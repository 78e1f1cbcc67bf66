//! Layer probes timed outside the engine, on the workload's own data: the
//! stretch kernels and the compact tier on a seeded sample of fingerprint
//! pairs, and the wire codec on the workload's own frames.

use crate::report::Results;
use crate::trace::{SpanId, Tracer};
use glove_core::compact::{signature_lower_bound, CompactSignature, SampleStore, SignatureSpace};
use glove_core::stream::StreamEvent;
use glove_core::stretch::{
    fingerprint_stretch, fingerprint_stretch_cutoff, stretch_lower_bound, StretchHull,
};
use glove_core::{Fingerprint, StretchConfig};
use glove_serve::protocol::{decode_frame, encode_frame, Frame};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Pairs drawn for the pair probes.
const PAIRS: usize = 4_000;
/// Minimum wall time of one probe's timing loop.
const PROBE_TIME: Duration = Duration::from_millis(150);

/// SplitMix64: the benchmark's own seeded generator for probe sampling.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Runs `body` (which handles `items` items) until [`PROBE_TIME`] has
/// passed and returns nanoseconds per item, recording one span.
fn per_item(
    tr: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    items: usize,
    mut body: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < PROBE_TIME {
        body();
        calls += 1;
    }
    let end = Instant::now();
    tr.span(name, start, end, parent);
    (end - start).as_nanos() as f64 / (calls as f64 * items.max(1) as f64)
}

/// Times the stretch kernels and the compact tier on a seeded sample of
/// pairs of `fps` (the fingerprints the engine's arenas hold on this
/// workload).
pub fn stretch_and_compact(
    results: &mut Results,
    tr: &mut Tracer,
    fps: &[Fingerprint],
    cfg: &StretchConfig,
    seed: u64,
) {
    let parent = Tracer::NONE;
    let mut rng = SplitMix::new(seed ^ 0x5eed_9a1e);
    let pairs: Vec<(usize, usize)> = (0..PAIRS)
        .map(|_| {
            let a = rng.below(fps.len());
            let b = (a + 1 + rng.below(fps.len() - 1)) % fps.len();
            (a, b)
        })
        .collect();

    let exact = per_item(tr, "stretch.exact", parent, PAIRS, || {
        for &(a, b) in &pairs {
            black_box(fingerprint_stretch(&fps[a], &fps[b], cfg));
        }
    });
    let mut efforts: Vec<f64> = pairs
        .iter()
        .map(|&(a, b)| fingerprint_stretch(&fps[a], &fps[b], cfg))
        .collect();
    efforts.sort_by(f64::total_cmp);
    // At the median effort about half the evaluations can be abandoned.
    let cutoff = efforts[efforts.len() / 2];
    let cut = per_item(tr, "stretch.cutoff", parent, PAIRS, || {
        for &(a, b) in &pairs {
            black_box(fingerprint_stretch_cutoff(&fps[a], &fps[b], cfg, cutoff));
        }
    });
    let hulls: Vec<StretchHull> = fps.iter().map(StretchHull::of).collect();
    let hull = per_item(tr, "stretch.hull_bound", parent, PAIRS, || {
        for &(a, b) in &pairs {
            black_box(stretch_lower_bound(&hulls[a], &hulls[b], cfg));
        }
    });
    let samples: usize = fps.iter().map(Fingerprint::len).sum();
    results.layer("stretch.exact_ns_per_pair", exact);
    results.layer("stretch.cutoff_ns_per_pair", cut);
    results.layer("stretch.hull_bound_ns", hull);
    results.layer(
        "stretch.samples_per_fp_mean",
        samples as f64 / fps.len() as f64,
    );

    let space = SignatureSpace::of(cfg);
    let sig = per_item(tr, "compact.signature", parent, fps.len(), || {
        for fp in fps {
            black_box(CompactSignature::of(fp, &space));
        }
    });
    let sigs: Vec<CompactSignature> = fps
        .iter()
        .map(|f| CompactSignature::of(f, &space))
        .collect();
    let bound = per_item(tr, "compact.signature_bound", parent, PAIRS, || {
        for &(a, b) in &pairs {
            black_box(signature_lower_bound(&sigs[a], &sigs[b], cfg, &space));
        }
    });
    let push = per_item(tr, "compact.store_push", parent, samples, || {
        let mut store = SampleStore::new();
        for fp in fps {
            black_box(store.push(fp.samples()));
        }
        black_box(store.bytes());
    });
    results.layer("compact.signature_ns", sig);
    results.layer("compact.signature_bound_ns", bound);
    results.layer("compact.store_push_ns_per_sample", push);
}

/// Times `encode_frame` and `decode_frame` on the workload's own `EVENTS`
/// frames.
pub fn protocol(results: &mut Results, tr: &mut Tracer, events: &[StreamEvent], per_frame: usize) {
    let frames: Vec<Frame> = events
        .chunks(per_frame)
        .map(|c| Frame::Events(c.to_vec()))
        .collect();
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    for (frame, bytes) in frames.iter().zip(&encoded) {
        let (decoded, _) = decode_frame(bytes).expect("own frames decode");
        assert_eq!(&decoded, frame, "wire round trip");
    }
    let n = frames.len();
    let enc = per_item(tr, "protocol.encode", Tracer::NONE, n, || {
        for f in &frames {
            black_box(encode_frame(f));
        }
    });
    let dec = per_item(tr, "protocol.decode", Tracer::NONE, n, || {
        for b in &encoded {
            black_box(decode_frame(b).expect("own frames decode"));
        }
    });
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    results.layer("protocol.encode_us_per_frame", enc / 1e3);
    results.layer("protocol.decode_us_per_frame", dec / 1e3);
    results.layer(
        "protocol.bytes_per_event",
        bytes as f64 / events.len() as f64,
    );
}

/// Per-user fingerprints of each `window_min` window: what a streaming
/// epoch's arena holds.
pub fn window_slices(events: &[StreamEvent], window_min: u32) -> Vec<Fingerprint> {
    let mut slices: std::collections::BTreeMap<(u32, u32), Vec<glove_core::Sample>> =
        std::collections::BTreeMap::new();
    for e in events {
        slices
            .entry((e.sample.t / window_min, e.user))
            .or_default()
            .push(e.sample);
    }
    slices
        .into_iter()
        .map(|((_, user), samples)| Fingerprint::new(user, samples).expect("non-empty slice"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = {
            let mut r = SplitMix::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(SplitMix::new(8).next_u64(), a[0]);
    }
}
