//! What every workload shares: the run context, input generation and the
//! engine configuration.

use crate::report::Results;
use crate::stats::{across_inputs, median, quartiles, tail_over_reps};
use crate::sys::reset_peak_rss;
use crate::trace::Tracer;
use glove_core::{Dataset, GloveConfig, SuppressionThresholds};
use glove_synth::{generate, ScenarioConfig};
use std::time::{Duration, Instant};

/// Timed repetitions every run makes at least, however long they take.
const MIN_REPS: usize = 3;
/// Hard cap on the measuring time of one run, whatever `--seconds` says,
/// so that a run always ends well within its time limit.
const MAX_MEASURE: Duration = Duration::from_secs(120);

/// One run of one workload.
pub struct Ctx {
    /// Workload seed (feeds `ScenarioConfig::seed` through [`input_seed`]).
    pub seed: u64,
    /// True for the traced run (`--trace 1`).
    pub traced: bool,
    /// Measuring time.
    pub seconds: Duration,
    /// Span recorder (recording only in traced repetitions).
    pub tracer: Tracer,
    /// Metrics, operations and check outcomes.
    pub results: Results,
}

impl Ctx {
    /// A context for one run.
    pub fn new(seed: u64, seconds: u64, traced: bool) -> Self {
        Self {
            seed,
            traced,
            seconds: Duration::from_secs(seconds).min(MAX_MEASURE),
            tracer: Tracer::new(false),
            results: Results::default(),
        }
    }
}

/// The repetitions of one run: which input each takes, whether it is
/// traced, and the timings every workload reports.
pub struct Reps {
    started: Instant,
    count: usize,
    setup: Vec<Vec<f64>>,
    release: Vec<Vec<f64>>,
    rss_mb: Vec<Vec<f64>>,
    /// Epoch latencies, ms, per repetition, grouped by input.
    latency_ms: Vec<Vec<Vec<f64>>>,
    traced: Vec<f64>,
    untraced: Vec<f64>,
    rep_secs: Vec<f64>,
}

/// One repetition: its input, its number (from 1) and whether it is traced.
pub struct Rep {
    /// Index of the input it runs.
    pub input: usize,
    /// Repetition number, from 1.
    pub n: usize,
    /// Whether it records spans.
    pub traced: bool,
}

impl Reps {
    /// Starts measuring a run over `inputs` inputs.
    pub fn new(inputs: usize) -> Self {
        let groups = vec![Vec::new(); inputs];
        Self {
            started: Instant::now(),
            count: 0,
            setup: groups.clone(),
            release: groups.clone(),
            rss_mb: groups,
            latency_ms: vec![Vec::new(); inputs],
            traced: Vec::new(),
            untraced: Vec::new(),
            rep_secs: Vec::new(),
        }
    }

    /// The next repetition, if it fits: at least [`MIN_REPS`] and one per
    /// input (one more in a traced run, so that some repetition is
    /// traced), then as long as one more of median length ends within the
    /// measuring time. Repetitions cycle through the inputs. In a traced
    /// run whole cycles alternate, untraced first, so traced and untraced
    /// repetitions see the same inputs and conditions. The process
    /// high-water mark is reset, so each repetition reads its own peak.
    pub fn next(&mut self, ctx: &mut Ctx) -> Option<Rep> {
        let inputs = self.setup.len();
        let min = MIN_REPS.max(inputs + usize::from(ctx.traced));
        if self.count >= min {
            let next = Duration::from_secs_f64(median(&self.rep_secs));
            if self.started.elapsed() + next > ctx.seconds {
                return None;
            }
        }
        let rep = Rep {
            input: self.count % inputs,
            n: self.count + 1,
            traced: ctx.traced && (self.count / inputs) % 2 == 1,
        };
        self.count += 1;
        ctx.tracer.set_on(rep.traced);
        ctx.tracer.next_run();
        reset_peak_rss();
        self.latency_ms[rep.input].push(Vec::new());
        Some(rep)
    }

    /// The epoch latencies, ms, of the current repetition on `input`.
    pub fn epochs(&mut self, input: usize) -> &mut Vec<f64> {
        self.latency_ms[input]
            .last_mut()
            .expect("a repetition of this input has started")
    }

    /// Books one repetition's set-up and release, seconds, and its peak
    /// resident size, MB, read when the release ended.
    pub fn record(&mut self, rep: &Rep, setup_s: f64, release_s: f64, rss_mb: f64) {
        self.setup[rep.input].push(setup_s);
        self.release[rep.input].push(release_s);
        self.rss_mb[rep.input].push(rss_mb);
        if rep.traced {
            self.traced.push(release_s);
        } else {
            self.untraced.push(release_s);
        }
        self.rep_secs.push(setup_s + release_s);
    }

    /// Records the timing and memory end-to-end metrics. A reading is
    /// reduced per input (median of its repetitions; the latency median
    /// over the input's pooled epochs; the tail by [`tail_over_reps`]) and
    /// averaged over the inputs.
    pub fn report(&self, r: &mut Results, samples_per_input: f64) {
        let release_s = across_inputs(&self.release, median);
        let all = self.release.concat();
        let (q1, q3) = quartiles(&all);
        println!(
            "release_s over {} repetitions of {} inputs: {release_s:.4} s (mean of per-input \
             medians), quartiles of all {q1:.4} / {q3:.4} s",
            all.len(),
            self.release.len(),
        );
        let t = tail_over_reps(&self.latency_ms);
        println!(
            "epoch_latency_tail_ms: p{} over {} epochs = {:.3} ms",
            t.pct, t.n, t.value
        );
        let pooled: Vec<Vec<f64>> = self.latency_ms.iter().map(|r| r.concat()).collect();
        r.e2e("setup_s", across_inputs(&self.setup, median));
        r.e2e("release_s", release_s);
        r.e2e("samples_per_s", samples_per_input / release_s);
        r.e2e("epoch_latency_p50_ms", across_inputs(&pooled, median));
        r.e2e("epoch_latency_tail_ms", t.value);
        r.e2e("peak_rss_mb", across_inputs(&self.rss_mb, median));
        if !self.traced.is_empty() {
            r.layer(
                "trace.overhead_frac",
                median(&self.traced) / median(&self.untraced) - 1.0,
            );
        }
    }
}

/// The scenario seed of input `i` of a run with `seed`. A run covers
/// several inputs, repetitions cycling through them, so that its figures
/// describe the workload rather than one draw of its population.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(i as u64)
}

/// The `metro` scenario with `users` subscribers over 14 days, generated
/// from `seed`.
pub fn metro(users: usize, seed: u64) -> Dataset {
    let mut cfg = ScenarioConfig::metro_like(users);
    cfg.seed = seed;
    generate(&cfg).dataset
}

/// The engine configuration of every workload: k = 2 with the paper's
/// Table 2 suppression thresholds (so a release may drop outlier samples)
/// and an explicit thread count.
pub fn glove_config(threads: usize) -> GloveConfig {
    GloveConfig {
        k: 2,
        threads,
        suppression: SuppressionThresholds::table2(),
        ..GloveConfig::default()
    }
}

/// Seconds between two instants.
pub fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    secs(from, to) * 1e3
}
