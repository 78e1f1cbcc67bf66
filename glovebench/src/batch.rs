//! `batch-metro` and `sharded-metro`: one release of a whole dataset through
//! `RunBuilder::batch` or `RunBuilder::sharded`, from the dataset text
//! `glove anonymize` would read to the rendered text it would write.

use crate::check::{user_samples, Published};
use crate::common::{glove_config, input_seed, metro, ms, secs, Ctx, Reps};
use crate::probes;
use crate::stats::median;
use crate::sys::{peak_rss_mb, render_digest};
use crate::trace::{SpanId, Tracer, RELEASE, SETUP};
use glove_core::api::{Anonymizer, NullObserver, Observer, RunBuilder, RunOutcome};
use glove_core::glove::GloveStats;
use glove_core::{Dataset, GloveConfig, ShardPolicy};
use std::time::Instant;

/// One single-release workload.
pub struct Spec {
    /// Subscribers generated.
    pub users: usize,
    /// Engine threads.
    pub threads: usize,
    /// `Some` for the sharded engine.
    pub shards: Option<ShardPolicy>,
    /// Inputs generated per run (see [`input_seed`]).
    pub inputs: usize,
}

/// Records the engine's phases as `api.*` spans while a traced release
/// runs.
struct PhaseSpans<'a> {
    tr: &'a mut Tracer,
    parent: SpanId,
    open: Vec<SpanId>,
    run: Option<(SpanId, Instant)>,
}

fn phase_span(phase: &str) -> &'static str {
    match phase {
        "prepare" => "api.prepare",
        "run" => "api.run",
        "flush" => "api.flush",
        _ => "api.phase",
    }
}

impl Observer for PhaseSpans<'_> {
    fn on_phase_start(&mut self, _engine: &str, phase: &str) {
        let id = self.tr.open(phase_span(phase), Instant::now(), self.parent);
        self.open.push(id);
    }

    fn on_phase_end(&mut self, _engine: &str, phase: &str, _elapsed_s: f64) {
        let now = Instant::now();
        if let Some(id) = self.open.pop() {
            self.tr.close(id, now);
            if phase == "run" {
                self.run = Some((id, now));
            }
        }
    }
}

/// Places the engine's own timings on the trace: the GLOVE run ending where
/// the `run` phase ended, and for sharded runs the shards list-scheduled on
/// the engine's workers so that they end with it (the engine reports each
/// shard's duration, not its start).
fn engine_spans(
    tr: &mut Tracer,
    run: Option<(SpanId, Instant)>,
    stats: &GloveStats,
    threads: usize,
) {
    let Some((run_id, run_end)) = run else { return };
    let span = std::time::Duration::from_secs_f64(stats.elapsed_s);
    let glove = tr.span("glove.anonymize", run_end - span, run_end, run_id);
    if stats.per_shard.is_empty() {
        return;
    }
    let mut free = vec![0.0f64; threads.max(1)];
    let mut placed = Vec::with_capacity(stats.per_shard.len());
    for shard in &stats.per_shard {
        let (w, start) = free
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one worker");
        free[w] = start + shard.elapsed_s;
        placed.push((start, shard.elapsed_s));
    }
    let makespan = free.iter().copied().fold(0.0, f64::max);
    let origin = run_end - std::time::Duration::from_secs_f64(makespan.min(stats.elapsed_s));
    for (start, len) in placed {
        tr.span_secs(
            "shard.run",
            origin + std::time::Duration::from_secs_f64(start),
            len,
            glove,
        );
    }
}

fn stats_of(outcome: &RunOutcome) -> &GloveStats {
    outcome
        .report
        .detail
        .as_glove()
        .expect("batch and sharded runs report GLOVE stats")
}

/// The engine of this workload.
fn engine(spec: &Spec, config: GloveConfig) -> Box<dyn Anonymizer> {
    let builder = RunBuilder::new(config);
    let builder = match spec.shards {
        Some(policy) => builder.sharded(policy),
        None => builder.batch(),
    };
    builder.build().expect("valid workload config")
}

/// Checks one release against its input; returns what it published and
/// the input user-samples no published sample of the same user covers.
fn check_release(
    ctx: &mut Ctx,
    input: &Dataset,
    outcome: &RunOutcome,
    k: usize,
) -> (Published, u64) {
    let out = outcome.output.dataset().expect("single-release output");
    let r = &outcome.report;
    ctx.results.check(out.is_k_anonymous(k), || {
        format!("release is not {k}-anonymous")
    });
    let mut published = Published::default();
    published.add(out);
    // Users balance exactly: every input user is published or discarded.
    ctx.results.check(
        r.users_in == input.num_users()
            && r.users_out == published.users()
            && r.users_in == r.users_out + r.discarded_users as usize,
        || {
            format!(
                "users do not balance: input {} report in {} out {} discarded {} published {}",
                input.num_users(),
                r.users_in,
                r.users_out,
                r.discarded_users,
                published.users()
            )
        },
    );
    ctx.results.check(
        r.samples_in == input.num_samples() && r.samples_out == out.num_samples(),
        || {
            format!(
                "samples do not balance: input {} report in {}, published {} report out {}",
                input.num_samples(),
                r.samples_in,
                out.num_samples(),
                r.samples_out
            )
        },
    );
    // Samples are merged and suppressed in generalized units, so the report
    // cannot say how many input samples each suppression hid; the share of
    // input user-samples left uncovered is measured on the output instead.
    let uncovered = published.uncovered(user_samples(input));
    println!(
        "unpublished: {uncovered} of {} input user-samples; the report books {} suppressed \
         generalized user-samples and {} discarded users",
        input.num_user_samples(),
        r.suppressed_user_samples,
        r.discarded_users
    );
    (published, uncovered)
}

/// What the first release of one input established.
struct Checked {
    digest: u64,
    stats: GloveStats,
}

/// Runs the workload and fills `ctx.results`.
pub fn run(ctx: &mut Ctx, spec: &Spec) {
    let texts: Vec<String> = (0..spec.inputs)
        .map(|i| glove_cli::io::to_string(&metro(spec.users, input_seed(ctx.seed, i))))
        .collect();
    let config = glove_config(spec.threads);

    let mut checked: Vec<Option<Checked>> = texts.iter().map(|_| None).collect();
    let mut accuracy = Vec::new();
    let (mut unpublished, mut user_samples_in, mut samples_in, mut records) = (0, 0, 0, 0);
    let mut parse_ns = Vec::new();
    let mut render_ms = Vec::new();
    let mut prepare_ms = Vec::new();
    let mut run_s = Vec::new();
    let mut shard_max = Vec::new();
    let mut shard_mean = Vec::new();
    let mut shard_eff = Vec::new();
    let mut pairs_per_s = Vec::new();
    let mut reps = Reps::new(texts.len());
    while let Some(rep) = reps.next(ctx) {
        let (which, traced) = (rep.input, rep.traced);
        let tr = &mut ctx.tracer;
        let t0 = Instant::now();
        let setup_id = tr.open(SETUP, t0, Tracer::NONE);
        let input = glove_cli::io::from_str(&texts[which]).expect("rendered input parses");
        let t_parsed = Instant::now();
        let engine = engine(spec, config);
        engine.prepare(&input).expect("valid population");
        let t1 = Instant::now();
        tr.span("io.parse", t0, t_parsed, setup_id);
        tr.span("api.build", t_parsed, t1, setup_id);
        tr.close(setup_id, t1);

        let release_id = tr.open(RELEASE, t1, Tracer::NONE);
        let (outcome, run) = if traced {
            let mut obs = PhaseSpans {
                tr: &mut *tr,
                parent: release_id,
                open: Vec::new(),
                run: None,
            };
            let outcome = engine.run(&input, &mut obs).expect("release succeeds");
            (outcome, obs.run)
        } else {
            let outcome = engine
                .run(&input, &mut NullObserver)
                .expect("release succeeds");
            (outcome, None)
        };
        let t_run = Instant::now();
        let digest = render_digest(outcome.output.dataset().expect("dataset"));
        let t2 = Instant::now();
        let rss_mb = peak_rss_mb();
        let stats = stats_of(&outcome);
        engine_spans(tr, run, stats, spec.threads);
        tr.span("io.render", t_run, t2, release_id);
        tr.close(release_id, t2);

        // The first release of each input is checked in full (untimed);
        // every later one must publish the same bytes and count the same
        // work.
        match &checked[which] {
            None => {
                let (published, uncovered) = check_release(ctx, &input, &outcome, config.k);
                accuracy.push((published.pos_accuracy_m(), published.time_accuracy_min()));
                unpublished += uncovered;
                user_samples_in += input.num_user_samples();
                samples_in += input.num_samples();
                records += input.num_samples() + input.fingerprints.len();
                checked[which] = Some(Checked {
                    digest,
                    stats: stats.clone(),
                });
            }
            Some(first) => {
                ctx.results.check(digest == first.digest, || {
                    format!("repetition {} published different bytes", rep.n)
                });
                ctx.results.check(
                    stats.merges == first.stats.merges
                        && stats.pairs_computed == first.stats.pairs_computed
                        && stats.pairs_pruned == first.stats.pairs_pruned
                        && stats.pairs_abandoned == first.stats.pairs_abandoned,
                    || format!("repetition {} counted different work", rep.n),
                );
            }
        }
        reps.record(&rep, secs(t0, t1), secs(t1, t2), rss_mb);
        // The whole input is complete when the release starts, so the one
        // epoch's latency is the release itself.
        reps.epochs(which).push(ms(t1, t2));
        parse_ns.push(
            secs(t0, t_parsed) * 1e9 / (input.num_samples() + input.fingerprints.len()) as f64,
        );
        render_ms.push(ms(t_run, t2));
        for p in &outcome.report.phases {
            match p.phase.as_str() {
                "prepare" => prepare_ms.push(p.elapsed_s * 1e3),
                "run" => run_s.push(p.elapsed_s),
                _ => {}
            }
        }
        let run = run_s.last().copied().unwrap_or(stats.elapsed_s);
        pairs_per_s.push(stats.candidate_pairs() as f64 / run);
        if !stats.per_shard.is_empty() {
            let e: Vec<f64> = stats.per_shard.iter().map(|s| s.elapsed_s).collect();
            let sum: f64 = e.iter().sum();
            shard_max.push(e.iter().copied().fold(0.0, f64::max));
            shard_mean.push(sum / e.len() as f64);
            shard_eff.push(sum / (spec.threads as f64 * run));
        }
    }
    let checked: Vec<&Checked> = checked.iter().flatten().collect();
    let inputs = checked.len() as f64;

    let r = &mut ctx.results;
    reps.report(r, samples_in as f64 / inputs);
    r.e2e(
        "pos_accuracy_m",
        accuracy.iter().map(|a| a.0).sum::<f64>() / inputs,
    );
    r.e2e(
        "time_accuracy_min",
        accuracy.iter().map(|a| a.1).sum::<f64>() / inputs,
    );
    r.e2e(
        "suppressed_frac",
        unpublished as f64 / user_samples_in as f64,
    );

    let parse_ns = median(&parse_ns);
    r.layer("io.parse_ms", parse_ns * records as f64 / inputs / 1e6);
    r.layer("io.parse_ns_per_record", parse_ns);
    r.layer("io.render_ms_per_epoch", median(&render_ms));
    r.layer("api.prepare_ms", median(&prepare_ms));
    r.layer("api.run_s", median(&run_s));
    // Counters and memory of the first input: exact for a seed.
    let reference = &checked[0].stats;
    glove_counters(r, &Work::of_glove(reference));
    r.layer("glove.pairs_per_s", median(&pairs_per_s));
    r.layer(
        "ledger.peak_arena_bytes",
        reference.ledger.peak_arena_bytes as f64,
    );
    r.layer(
        "ledger.peak_store_bytes",
        reference.ledger.peak_store_bytes as f64,
    );
    if !reference.per_shard.is_empty() {
        r.layer("shard.count", reference.per_shard.len() as f64);
        r.layer("shard.run_s_max", median(&shard_max));
        r.layer("shard.run_s_mean", median(&shard_mean));
        r.layer("shard.imbalance", median(&shard_max) / median(&shard_mean));
        r.layer("shard.parallel_eff", median(&shard_eff));
    }
    if ctx.traced {
        let input = glove_cli::io::from_str(&texts[0]).expect("rendered input parses");
        if let Some(policy) = spec.shards {
            let mut times = Vec::new();
            for _ in 0..3 {
                let t0 = Instant::now();
                std::hint::black_box(glove_core::shard::partition(&input, &policy, &config));
                let t1 = Instant::now();
                ctx.tracer.span("shard.partition", t0, t1, Tracer::NONE);
                times.push(ms(t0, t1));
            }
            ctx.results.layer("shard.partition_ms", median(&times));
        }
        probes::stretch_and_compact(
            &mut ctx.results,
            &mut ctx.tracer,
            &input.fingerprints,
            &config.stretch,
            ctx.seed,
        );
    }
}

/// The engine's deterministic work counters, whichever engine ran.
pub struct Work {
    /// Merges.
    pub merges: u64,
    /// Exact evaluations run to completion.
    pub computed: u64,
    /// Candidates dismissed by a cascade tier (0, 1 or abandoned in 2).
    pub pruned: u64,
    /// Dismissed by the tier-0 signature bound.
    pub tier0: u64,
    /// Dismissed by the tier-1 hull bound.
    pub tier1: u64,
    /// Exact evaluations abandoned by the tier-2 cutoff.
    pub abandoned: u64,
}

impl Work {
    /// The counters of a batch or sharded run.
    pub fn of_glove(s: &GloveStats) -> Self {
        Self {
            merges: s.merges,
            computed: s.pairs_computed,
            pruned: s.pairs_pruned,
            tier0: s.pairs_skipped_tier0,
            tier1: s.pairs_skipped_tier1,
            abandoned: s.pairs_abandoned,
        }
    }

    /// The counters of a streaming run.
    pub fn of_stream(s: &glove_core::stream::StreamStats) -> Self {
        Self {
            merges: s.merges,
            computed: s.pairs_computed,
            pruned: s.pairs_pruned,
            tier0: s.pairs_skipped_tier0,
            tier1: s.pairs_skipped_tier1,
            abandoned: s.pairs_abandoned,
        }
    }
}

/// Records the `glove.*` counters.
pub fn glove_counters(r: &mut crate::report::Results, w: &Work) {
    r.layer("glove.merges", w.merges as f64);
    r.layer("glove.candidate_pairs", (w.computed + w.pruned) as f64);
    r.layer("glove.pairs_computed", w.computed as f64);
    r.layer("glove.tier0_skipped", w.tier0 as f64);
    r.layer("glove.tier1_skipped", w.tier1 as f64);
    r.layer("glove.tier2_abandoned", w.abandoned as f64);
    let started = w.computed + w.abandoned;
    r.layer(
        "glove.exact_frac",
        w.computed as f64 / started.max(1) as f64,
    );
}
