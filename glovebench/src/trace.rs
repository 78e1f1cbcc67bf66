//! In-memory spans around the benchmark's calls into each layer, their
//! self-time tables, and the JSON-lines dump written when a traced run ends.
//!
//! Spans are recorded only by the traced run (`--trace 1`); the timed run
//! holds a disabled [`Tracer`] whose calls do nothing.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Root span of one release; its self time is the part of the release no
/// named layer span covers.
pub const RELEASE: &str = "release";
/// Root span of one set-up (input parse plus engine or daemon bring-up).
pub const SETUP: &str = "setup";

/// Every layer the benchmark names, in table order. Layers whose work runs
/// only inside the engine have no span of their own on the release path;
/// their rows show the probes timed outside the engine, or nothing.
pub const LAYERS: &[&str] = &[
    "io", "api", "glove", "stretch", "compact", "shard", "stream", "ledger", "protocol", "serve",
    "loadgen", "trace",
];

/// Id of an opened span; [`Tracer::NONE`] when tracing is off.
pub type SpanId = usize;

/// One recorded span, times in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`, or one of the roots [`RELEASE`] / [`SETUP`].
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Repetition the span belongs to.
    pub run: u32,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    run: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// The id returned while tracing is off.
    pub const NONE: SpanId = usize::MAX;

    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            origin: Instant::now(),
            on,
            run: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (the traced run alternates traced and
    /// untraced repetitions).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a new repetition: later spans carry its run id.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span at `start`; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, parent: SpanId) -> SpanId {
        if !self.on {
            return Self::NONE;
        }
        let start = self.ns(start);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: (parent != Self::NONE).then_some(parent),
            run: self.run,
        });
        self.spans.len() - 1
    }

    /// Closes an opened span at `end`.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        if id != Self::NONE {
            let end = self.ns(end);
            self.spans[id].end = end;
        }
    }

    /// Records a finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
    ) -> SpanId {
        let id = self.open(name, start, parent);
        self.close(id, end);
        id
    }

    /// Records a finished span given as a start instant and a duration in
    /// seconds (a duration the engine measured, placed on the timeline).
    pub fn span_secs(
        &mut self,
        name: &'static str,
        start: Instant,
        secs: f64,
        parent: SpanId,
    ) -> SpanId {
        self.span(
            name,
            start,
            start + std::time::Duration::from_secs_f64(secs.max(0.0)),
            parent,
        )
    }

    /// Per-span self times, ns, indexed like the spans.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_time((s.start, s.end), c))
            .collect()
    }

    /// Prints the per-layer and per-span self-time tables and the part of
    /// the release not covered by any layer span.
    pub fn print_tables(&self, out: &mut impl Write) -> std::io::Result<()> {
        let selfs = self.self_times();
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&selfs) {
            let row = by_name.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.end - s.start;
            row.2 += own;
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        writeln!(out, "trace: per-layer self time")?;
        writeln!(
            out,
            "  {:<10} {:>9} {:>12} {:>12}",
            "layer", "spans", "total_ms", "self_ms"
        )?;
        for layer in LAYERS {
            let (mut n, mut total, mut own) = (0, 0, 0);
            for (name, row) in &by_name {
                if name.split('.').next() == Some(*layer) {
                    n += row.0;
                    total += row.1;
                    own += row.2;
                }
            }
            writeln!(
                out,
                "  {layer:<10} {n:>9} {:>12.3} {:>12.3}",
                ms(total),
                ms(own)
            )?;
        }
        writeln!(out, "trace: per-span self time")?;
        for (name, (n, total, own)) in &by_name {
            writeln!(
                out,
                "  {name:<28} {n:>9} {:>12.3} {:>12.3}",
                ms(*total),
                ms(*own)
            )?;
        }
        let (release, uncovered) = by_name
            .get(RELEASE)
            .map_or((0, 0), |&(_, total, own)| (total, own));
        writeln!(
            out,
            "trace: release not covered by any layer span: {:.3} ms of {:.3} ms ({:.1}%)",
            ms(uncovered),
            ms(release),
            100.0 * uncovered as f64 / (release.max(1)) as f64
        )
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let id = t.open(RELEASE, now, Tracer::NONE);
        assert_eq!(id, Tracer::NONE);
        t.span("io.render", now, now, id);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn release_self_time_is_what_children_leave() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let r = t.open(RELEASE, ms(0), Tracer::NONE);
        t.span("shard.run", ms(10), ms(60), r);
        t.span("shard.run", ms(20), ms(70), r);
        t.close(r, ms(100));
        assert_eq!(t.self_times()[r], 40_000_000);
        let mut out = Vec::new();
        t.print_tables(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("40.000 ms of 100.000 ms"), "{text}");
    }
}
