//! `stream-daily`: the event text `glove stream` would read, pushed through
//! `StreamEngine::push`/`finish` in a closed loop, each epoch rendered as
//! `glove stream` would write it.

use crate::batch::{glove_counters, Work};
use crate::check::Published;
use crate::common::{glove_config, input_seed, metro, ms, secs, Ctx, Reps};
use crate::probes;
use crate::stats::median;
use crate::sys::{peak_rss_mb, render_digest};
use crate::trace::{SpanId, Tracer, RELEASE, SETUP};
use glove_core::stream::{events_of, EpochOutput, StreamEngine, StreamEvent, StreamStats};
use glove_core::{CarryPolicy, StreamConfig, UnderKPolicy};
use std::time::Instant;

/// The streaming configuration shared by `stream-daily` and `serve-6h`:
/// Fresh carry, under-k windows deferred.
pub fn stream_config(window_min: u32, threads: usize) -> StreamConfig {
    StreamConfig {
        window_min,
        carry: CarryPolicy::Fresh,
        under_k: UnderKPolicy::Defer,
        glove: glove_config(threads),
    }
}

/// The metro scenario rendered as `glove` event text.
pub fn event_text(users: usize, seed: u64) -> String {
    let ds = metro(users, seed);
    glove_cli::io::events_to_string(&ds.name, events_of(&ds))
}

/// What the reference pass over a stream found.
pub struct Reference {
    /// Digest of every epoch's rendered text, in order.
    pub digests: Vec<u64>,
    /// The run's statistics.
    pub stats: StreamStats,
    /// Input events no published sample of the same user covers.
    pub unpublished: u64,
    /// Mean published position and time extents.
    pub accuracy: (f64, f64),
}

/// Runs `events` through a fresh engine and checks what it published.
pub fn reference(
    ctx: &mut Ctx,
    name: &str,
    events: &[StreamEvent],
    config: StreamConfig,
) -> Reference {
    let mut engine = StreamEngine::new(name, config).expect("valid stream config");
    let mut epochs: Vec<EpochOutput> = Vec::new();
    for e in events {
        epochs.extend(engine.push(*e).expect("in-order events"));
    }
    let (last, stats) = engine.finish().expect("stream finishes");
    epochs.extend(last);
    check_epochs(ctx, events, &epochs, stats, config.glove.k)
}

/// Checks every epoch of a stream and the user balance, and measures what
/// the epochs published.
pub fn check_epochs(
    ctx: &mut Ctx,
    events: &[StreamEvent],
    epochs: &[EpochOutput],
    stats: StreamStats,
    k: usize,
) -> Reference {
    let mut published = Published::default();
    let mut discarded = 0;
    for (epoch, stat) in epochs.iter().zip(&stats.per_epoch) {
        let ds = &epoch.output.dataset;
        ctx.results.check(ds.is_k_anonymous(k), || {
            format!("epoch {} is not {k}-anonymous", epoch.epoch)
        });
        // Everyone who entered the epoch is published in it: residual
        // fingerprints merge into the nearest group.
        ctx.results.check(
            stat.epoch == epoch.epoch
                && ds.num_users() == stat.users_in
                && epoch.output.stats.discarded_users == 0,
            || {
                format!(
                    "epoch {}: {} users entered, {} published",
                    epoch.epoch,
                    stat.users_in,
                    ds.num_users()
                )
            },
        );
        published.add(ds);
        discarded += epoch.output.stats.discarded_users;
    }
    // A user never published was suppressed at least once (under k in a
    // window, or still deferred when the stream ended).
    let mut users: Vec<_> = events.iter().map(|e| e.user).collect();
    users.sort_unstable();
    users.dedup();
    let never = users.iter().filter(|&&u| !published.has_user(u)).count() as u64;
    ctx.results.check(
        never <= stats.suppressed_users && stats.events == events.len() as u64,
        || {
            format!(
                "{never} users never published but {} suppressed; {} of {} events consumed",
                stats.suppressed_users,
                stats.events,
                events.len()
            )
        },
    );
    let uncovered = published.uncovered(events.iter().map(|e| (e.user, e.sample)));
    println!(
        "unpublished: {uncovered} of {} events; {} users never published, {} user-windows \
         suppressed, {discarded} users discarded",
        events.len(),
        never,
        stats.suppressed_users
    );
    Reference {
        digests: epochs
            .iter()
            .map(|e| render_digest(&e.output.dataset))
            .collect(),
        stats,
        unpublished: uncovered,
        accuracy: (published.pos_accuracy_m(), published.time_accuracy_min()),
    }
}

/// Records the streaming engine's own per-layer counters and timings.
pub fn stream_layers(ctx: &mut Ctx, stats: &StreamStats, close_ms: &[f64]) {
    let r = &mut ctx.results;
    glove_counters(r, &Work::of_stream(stats));
    r.layer("stream.window_close_ms_p50", median(close_ms));
    r.layer(
        "stream.window_close_ms_max",
        close_ms.iter().copied().fold(0.0, f64::max),
    );
    r.layer("stream.epochs", stats.epochs as f64);
    let users: usize = stats.per_epoch.iter().map(|e| e.users_in).sum();
    r.layer(
        "stream.users_per_epoch_mean",
        users as f64 / stats.epochs.max(1) as f64,
    );
    r.layer(
        "stream.peak_resident_samples",
        stats.peak_resident_samples as f64,
    );
    r.layer("stream.deferred_users", stats.deferred_users as f64);
    r.layer(
        "ledger.peak_arena_bytes",
        stats.ledger.peak_arena_bytes as f64,
    );
    r.layer(
        "ledger.peak_store_bytes",
        stats.ledger.peak_store_bytes as f64,
    );
}

/// Runs the workload and fills `ctx.results`.
pub fn run(ctx: &mut Ctx, users: usize, window_min: u32, threads: usize, inputs: usize) {
    let texts: Vec<String> = (0..inputs)
        .map(|i| event_text(users, input_seed(ctx.seed, i)))
        .collect();
    let config = stream_config(window_min, threads);

    let mut checked: Vec<Option<Reference>> = texts.iter().map(|_| None).collect();
    let mut n_events = Vec::new();
    let mut parse_ns = Vec::new();
    let mut render_ms = Vec::new();
    let mut prepare_ms = Vec::new();
    let mut run_s = Vec::new();
    let mut flush_ms = Vec::new();
    let mut push_ns = Vec::new();
    let mut close_ms = Vec::new();
    let mut pairs_per_s = Vec::new();
    let mut reps = Reps::new(texts.len());
    while let Some(rep) = reps.next(ctx) {
        let (which, traced) = (rep.input, rep.traced);
        let keep = checked[which].is_none();
        let tr = &mut ctx.tracer;
        let t0 = Instant::now();
        let setup_id = tr.open(SETUP, t0, Tracer::NONE);
        let (name, events) =
            glove_cli::io::events_from_str(&texts[which]).expect("rendered events parse");
        let t_parsed = Instant::now();
        let mut engine = StreamEngine::new(name, config).expect("valid stream config");
        let t1 = Instant::now();
        tr.span("io.parse", t0, t_parsed, setup_id);
        tr.span("api.prepare", t_parsed, t1, setup_id);
        tr.close(setup_id, t1);

        let release_id = tr.open(RELEASE, t1, Tracer::NONE);
        let run_id = tr.open("api.run", t1, release_id);
        let mut digests = Vec::new();
        let mut kept = Vec::new();
        let mut closes = Vec::new();
        let mut rep_render = 0.0;
        let mut quiet_ns = 0u128;
        let mut quiet_pushes = 0u64;
        let mut quiet_from = t1;
        // Renders an epoch and books the latency of the call that closed
        // it; `closer` is that call's span, `parent` the render's.
        let mut epoch_out = |epoch: EpochOutput,
                             tr: &mut Tracer,
                             parent: SpanId,
                             closer: SpanId,
                             closed: (Instant, Instant),
                             closes: &mut Vec<(u64, Instant, SpanId)>| {
            let r0 = Instant::now();
            digests.push(render_digest(&epoch.output.dataset));
            let r1 = Instant::now();
            tr.span("io.render", r0, r1, parent);
            render_ms.push(ms(r0, r1));
            rep_render += secs(r0, r1);
            reps.epochs(which).push(ms(closed.0, closed.1));
            closes.push((epoch.epoch, closed.1, closer));
            if keep {
                kept.push(epoch);
            }
        };
        for e in &events {
            let p0 = Instant::now();
            let epoch = engine.push(*e).expect("in-order events");
            let p1 = Instant::now();
            match epoch {
                None => {
                    quiet_ns += (p1 - p0).as_nanos();
                    quiet_pushes += 1;
                }
                Some(epoch) => {
                    if traced {
                        tr.span("stream.push", quiet_from, p0, run_id);
                    }
                    let close = tr.span("stream.window_close", p0, p1, run_id);
                    epoch_out(epoch, tr, run_id, close, (p0, p1), &mut closes);
                    quiet_from = Instant::now();
                }
            }
        }
        let t_loop = Instant::now();
        if traced {
            tr.span("stream.push", quiet_from, t_loop, run_id);
        }
        tr.close(run_id, t_loop);
        let flush_id = tr.open("api.flush", t_loop, release_id);
        let (last, stats) = engine.finish().expect("stream finishes");
        let t_fin = Instant::now();
        if let Some(epoch) = last {
            epoch_out(epoch, tr, flush_id, flush_id, (t_loop, t_fin), &mut closes);
        }
        let t2 = Instant::now();
        let rss_mb = peak_rss_mb();
        tr.close(flush_id, t2);
        tr.close(release_id, t2);
        if traced {
            // Each epoch's GLOVE run, as the engine timed it, ends where
            // the push (or finish) that closed its window returned.
            for &(epoch, end, closer) in &closes {
                if let Some(stat) = stats.per_epoch.iter().find(|s| s.epoch == epoch) {
                    let len = std::time::Duration::from_secs_f64(stat.elapsed_s);
                    tr.span("glove.epoch", end - len, end, closer);
                }
            }
        }

        reps.record(&rep, secs(t0, t1), secs(t1, t2), rss_mb);
        parse_ns.push(secs(t0, t_parsed) * 1e9 / events.len() as f64);
        prepare_ms.push(ms(t_parsed, t1));
        run_s.push(secs(t1, t_loop) - rep_render);
        flush_ms.push(ms(t_loop, t_fin));
        push_ns.push(quiet_ns as f64 / quiet_pushes.max(1) as f64);
        close_ms.extend(stats.per_epoch.iter().map(|e| e.elapsed_s * 1e3));
        pairs_per_s.push((stats.pairs_computed + stats.pairs_pruned) as f64 / stats.elapsed_s);

        // The first pass over each input is checked in full (untimed);
        // every later one must publish the same epochs and count the same
        // work.
        match &checked[which] {
            None => {
                let k = config.glove.k;
                let first = check_epochs(ctx, &events, &kept, stats, k);
                ctx.results.check(digests == first.digests, || {
                    format!("repetition {}: rendering is not deterministic", rep.n)
                });
                n_events.push(events.len() as f64);
                checked[which] = Some(first);
            }
            Some(first) => {
                ctx.results.check(digests == first.digests, || {
                    format!("repetition {} published different epochs", rep.n)
                });
                ctx.results.check(
                    stats.merges == first.stats.merges
                        && stats.pairs_computed == first.stats.pairs_computed
                        && stats.epochs == first.stats.epochs,
                    || format!("repetition {} counted different work", rep.n),
                );
            }
        }
    }
    let checked: Vec<Reference> = checked.into_iter().flatten().collect();
    let inputs = checked.len() as f64;
    let events_per_input = n_events.iter().sum::<f64>() / inputs;

    let r = &mut ctx.results;
    reps.report(r, events_per_input);
    summarize_published(r, &checked, n_events.iter().sum());

    let parse_ns = median(&parse_ns);
    r.layer("io.parse_ms", parse_ns * events_per_input / 1e6);
    r.layer("io.parse_ns_per_record", parse_ns);
    r.layer("io.render_ms_per_epoch", median(&render_ms));
    r.layer("api.prepare_ms", median(&prepare_ms));
    r.layer("api.run_s", median(&run_s));
    r.layer("api.flush_ms", median(&flush_ms));
    r.layer("glove.pairs_per_s", median(&pairs_per_s));
    r.layer("stream.push_ns_per_event", median(&push_ns));
    let stats = checked[0].stats.clone();
    stream_layers(ctx, &stats, &close_ms);
    if ctx.traced {
        let (_, events) = glove_cli::io::events_from_str(&texts[0]).expect("rendered events parse");
        let slices = probes::window_slices(&events, window_min);
        probes::stretch_and_compact(
            &mut ctx.results,
            &mut ctx.tracer,
            &slices,
            &config.glove.stretch,
            ctx.seed,
        );
    }
}

/// Records the utility and coverage of what the checked passes published:
/// accuracy as the mean over inputs, the unpublished share pooled.
pub fn summarize_published(r: &mut crate::report::Results, checked: &[Reference], events: f64) {
    let inputs = checked.len().max(1) as f64;
    r.e2e(
        "pos_accuracy_m",
        checked.iter().map(|c| c.accuracy.0).sum::<f64>() / inputs,
    );
    r.e2e(
        "time_accuracy_min",
        checked.iter().map(|c| c.accuracy.1).sum::<f64>() / inputs,
    );
    let unpublished: u64 = checked.iter().map(|c| c.unpublished).sum();
    r.e2e("suppressed_frac", unpublished as f64 / events);
}
