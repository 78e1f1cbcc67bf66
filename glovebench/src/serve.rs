//! `serve-6h`: an in-process `glove serve` daemon on 127.0.0.1 fed by the
//! benchmark's own client at a fixed offered rate.
//!
//! One connection, two client threads: the sender (this thread) runs an
//! open-loop schedule of `EVENTS` frames and awaits each reply; the reader
//! timestamps every frame the daemon sends. Every latency counts from the
//! time its frame was due, so a stall also charges the frames behind it.

use crate::common::{input_seed, ms, secs, Ctx, Reps};
use crate::probes;
use crate::stats::{closing_due, median, tail};
use crate::stream::{event_text, reference, stream_config, stream_layers, summarize_published};
use crate::sys::{peak_rss_mb, render_digest};
use crate::trace::{Tracer, RELEASE, SETUP};
use glove_core::stream::StreamStats;
use glove_core::Dataset;
use glove_serve::protocol::{encode_frame, read_frame, write_frame, Frame};
use glove_serve::{EpochWriteFn, ServeOptions, Server};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Events per `EVENTS` frame.
const FRAME_EVENTS: usize = 256;
/// Offered load, events per second.
const RATE: f64 = 12_000.0;
/// An epoch later than this counts as a failed operation.
const EPOCH_LIMIT_MS: f64 = 1_000.0;
/// Longest wait for any reply before the run is abandoned.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One epoch as the daemon's epoch writer saw it: the digest of its
/// rendered text and when the render ran.
type Written = (u64, Instant, Instant);

/// A frame the reader received, with its arrival time.
type Arrival = (Instant, Frame);

/// What one served repetition measured.
struct Served {
    setup: f64,
    release: f64,
    parse_ms: f64,
    latencies_ms: Vec<f64>,
    outside_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    rtt_us: Vec<f64>,
    render_ms: Vec<f64>,
    busy: u64,
    late_ms_max: f64,
    offered: f64,
    late_epochs: u64,
    digests: Vec<u64>,
    stats: StreamStats,
    phases: Vec<(String, f64)>,
}

/// Waits for the next reply frame, keeping `EPOCH` pushes aside.
fn next_reply(rx: &Receiver<Arrival>, epochs: &mut Vec<Arrival>) -> Arrival {
    loop {
        let (at, frame) = rx
            .recv_timeout(REPLY_TIMEOUT)
            .expect("daemon replies within the timeout");
        match frame {
            Frame::Epoch { .. } => epochs.push((at, frame)),
            other => return (at, other),
        }
    }
}

fn one_rep(tr: &mut Tracer, text: &str, dir: &Path, config: glove_core::StreamConfig) -> Served {
    let written: Arc<Mutex<Vec<Written>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&written);
    // Renders each epoch through `glove_cli::io` as `glove serve` does,
    // into a digest instead of a file.
    let writer: Arc<EpochWriteFn> = Arc::new(move |ds: &Dataset, _path: &Path| {
        let start = Instant::now();
        let digest = render_digest(ds);
        let end = Instant::now();
        sink.lock()
            .expect("epoch log lock")
            .push((digest, start, end));
        Ok(())
    });

    let t0 = Instant::now();
    let setup_id = tr.open(SETUP, t0, Tracer::NONE);
    let (tenant, events) = glove_cli::io::events_from_str(text).expect("rendered events parse");
    let t_parsed = Instant::now();
    let server = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            out_dir: Some(dir.to_path_buf()),
            epoch_writer: Some(writer),
            ..ServeOptions::default()
        },
    )
    .expect("bind 127.0.0.1");
    let handle = server.spawn().expect("spawn the daemon");
    let mut conn = TcpStream::connect(handle.addr()).expect("connect to the daemon");
    conn.set_nodelay(true).expect("set TCP_NODELAY");
    let (tx, rx) = channel::<Arrival>();
    let reader = {
        let mut r = BufReader::new(conn.try_clone().expect("clone the socket"));
        std::thread::spawn(move || {
            while let Ok(Some(frame)) = read_frame(&mut r) {
                let bye = matches!(frame, Frame::Bye);
                if tx.send((Instant::now(), frame)).is_err() || bye {
                    break;
                }
            }
        })
    };
    let mut epochs: Vec<Arrival> = Vec::new();
    write_frame(
        &mut conn,
        &Frame::Hello {
            tenant: tenant.clone(),
            shed: false,
            config,
        },
    )
    .expect("send HELLO");
    let (_, hello) = next_reply(&rx, &mut epochs);
    assert!(
        matches!(hello, Frame::HelloOk { .. }),
        "HELLO refused: {hello:?}"
    );
    let t1 = Instant::now();
    tr.span("io.parse", t0, t_parsed, setup_id);
    tr.span("serve.bringup", t_parsed, t1, setup_id);
    tr.close(setup_id, t1);

    // The open-loop schedule: frame i is due at t1 + i * FRAME_EVENTS / RATE.
    let release_id = tr.open(RELEASE, t1, Tracer::NONE);
    let step = FRAME_EVENTS as f64 / RATE;
    let mut frame_due = Vec::new();
    let mut rtt_us = Vec::new();
    let mut busy = 0;
    let mut late_ms_max: f64 = 0.0;
    let mut first_sent = None;
    let mut last_sent = t1;
    for (i, chunk) in events.chunks(FRAME_EVENTS).enumerate() {
        let due = t1 + Duration::from_secs_f64(i as f64 * step);
        frame_due.push(secs(t1, due));
        let idle = Instant::now();
        if let Some(wait) = due.checked_duration_since(idle) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        tr.span("loadgen.wait", idle, sent, release_id);
        first_sent.get_or_insert(sent);
        last_sent = sent;
        late_ms_max = late_ms_max.max(ms(due, sent));
        let frame_id = tr.open("serve.frame", due, release_id);
        let mut rest = chunk.to_vec();
        let replied = loop {
            let e0 = Instant::now();
            let bytes = encode_frame(&Frame::Events(rest.clone()));
            tr.span("protocol.encode", e0, Instant::now(), frame_id);
            conn.write_all(&bytes).expect("send EVENTS");
            match next_reply(&rx, &mut epochs) {
                (at, Frame::EventsOk { .. }) => break at,
                (_, Frame::Busy { accepted, retry_ms }) => {
                    busy += 1;
                    rest.drain(..accepted as usize);
                    std::thread::sleep(Duration::from_millis(u64::from(retry_ms)));
                }
                (_, other) => panic!("EVENTS answered with {other:?}"),
            }
        };
        tr.close(frame_id, replied);
        rtt_us.push(secs(due, replied) * 1e6);
    }
    let flush_due = Instant::now();
    let flush_id = tr.open("serve.flush", flush_due, release_id);
    conn.write_all(&encode_frame(&Frame::Flush))
        .expect("send FLUSH");
    let (t2, report) = next_reply(&rx, &mut epochs);
    tr.close(release_id, t2);
    let Frame::Report { report, .. } = report else {
        panic!("FLUSH answered with {report:?}");
    };
    // The daemon's flush phase, as it timed it, ends before its REPORT.
    if let Some(flush) = report.phases.iter().find(|p| p.phase == "flush") {
        let len = Duration::from_secs_f64(flush.elapsed_s);
        tr.span("api.flush", t2.checked_sub(len).unwrap_or(t2), t2, flush_id);
    }
    tr.close(flush_id, t2);
    let stats = report
        .detail
        .as_stream()
        .expect("served runs report stream stats")
        .clone();

    // Tear down (untimed): stop the daemon, join both threads.
    write_frame(&mut conn, &Frame::Shutdown).expect("send SHUTDOWN");
    reader.join().expect("reader thread");
    let summary = handle.join();
    assert!(
        summary.failures.is_empty(),
        "daemon failures: {:?}",
        summary.failures
    );

    // Match each EPOCH to the frame that made its window provably complete.
    let event_t: Vec<u32> = events.iter().map(|e| e.sample.t).collect();
    let written = std::mem::take(&mut *written.lock().expect("epoch log lock"));
    let mut latencies_ms = Vec::new();
    let mut outside_ms = Vec::new();
    let mut engine_ms = Vec::new();
    let mut late_epochs = 0;
    for (i, (at, frame)) in epochs.iter().enumerate() {
        let Frame::Epoch {
            epoch,
            window_start_min,
            ..
        } = frame
        else {
            continue;
        };
        let end = window_start_min + u64::from(config.window_min);
        let due = closing_due(end, &event_t, FRAME_EVENTS, &frame_due, secs(t1, flush_due));
        let latency = (secs(t1, *at) - due) * 1e3;
        let engine = stats
            .per_epoch
            .iter()
            .find(|s| s.epoch == *epoch)
            .map_or(0.0, |s| s.elapsed_s * 1e3);
        latencies_ms.push(latency);
        outside_ms.push(latency - engine);
        engine_ms.push(engine);
        if latency > EPOCH_LIMIT_MS {
            late_epochs += 1;
        }
        if tr.on() {
            let due_at = t1 + Duration::from_secs_f64(due);
            let epoch_id = tr.span("serve.epoch", due_at, *at, release_id);
            if let Some(&(_, r0, r1)) = written.get(i) {
                tr.span_secs(
                    "glove.epoch",
                    r0 - Duration::from_secs_f64(engine / 1e3),
                    engine / 1e3,
                    epoch_id,
                );
                tr.span("io.render", r0, r1, epoch_id);
            }
        }
    }
    let sent_before_last = events.len().saturating_sub(FRAME_EVENTS) as f64;
    let offered = first_sent.map_or(0.0, |f| sent_before_last / secs(f, last_sent));
    Served {
        setup: secs(t0, t1),
        release: secs(t1, t2),
        parse_ms: ms(t0, t_parsed),
        latencies_ms,
        outside_ms,
        engine_ms,
        rtt_us,
        render_ms: written.iter().map(|&(_, a, b)| ms(a, b)).collect(),
        busy,
        late_ms_max,
        offered,
        late_epochs,
        digests: written.iter().map(|&(d, _, _)| d).collect(),
        stats,
        phases: report
            .phases
            .iter()
            .map(|p| (p.phase.clone(), p.elapsed_s))
            .collect(),
    }
}

/// The directory the daemon writes its per-tenant report under, inside the
/// working directory.
fn scratch_dir() -> PathBuf {
    std::env::current_dir()
        .expect("working directory")
        .join(".bench_tmp")
        .join(format!("serve-{}", std::process::id()))
}

/// Runs the workload and fills `ctx.results`.
pub fn run(ctx: &mut Ctx, users: usize, window_min: u32, threads: usize, inputs: usize) {
    let texts: Vec<String> = (0..inputs)
        .map(|i| event_text(users, input_seed(ctx.seed, i)))
        .collect();
    let config = stream_config(window_min, threads);
    // The in-process engine's run of each input: what the daemon must
    // publish, byte for byte. It is also the pass checked in full.
    let mut references = Vec::new();
    let mut n_events = Vec::new();
    for text in &texts {
        let (name, events) = glove_cli::io::events_from_str(text).expect("rendered events parse");
        references.push(reference(ctx, &name, &events, config));
        n_events.push(events.len() as f64);
    }
    let root = scratch_dir();

    let mut timings = Reps::new(texts.len());
    let mut reps: Vec<Served> = Vec::new();
    while let Some(rep) = timings.next(ctx) {
        let which = rep.input;
        let i = rep.n;
        let dir = root.join(format!("rep{i}"));
        let served = one_rep(&mut ctx.tracer, &texts[which], &dir, config);
        // Read after the daemon stopped: the high-water mark still holds
        // what it used.
        let rss_mb = peak_rss_mb();
        let _ = std::fs::remove_dir_all(&dir);
        let reference = &references[which];
        let r = &mut ctx.results;
        r.check(served.digests == reference.digests, || {
            format!(
                "repetition {i}: served epochs differ from the in-process engine's ({} vs {})",
                served.digests.len(),
                reference.digests.len()
            )
        });
        r.check(
            served.stats.events == n_events[which] as u64
                && served.stats.merges == reference.stats.merges
                && served.stats.pairs_computed == reference.stats.pairs_computed,
            || format!("repetition {i}: the daemon counted different work"),
        );
        r.ops(served.rtt_us.len() as u64, served.busy);
        let epochs = served.latencies_ms.len() as u64;
        r.ops(epochs - served.late_epochs, served.late_epochs);
        timings.record(&rep, served.setup, served.release, rss_mb);
        timings.epochs(which).extend(&served.latencies_ms);
        reps.push(served);
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(root.parent().expect("scratch root"));
    let events_per_input = n_events.iter().sum::<f64>() / n_events.len() as f64;

    let all = |f: fn(&Served) -> &Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let each = |f: fn(&Served) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    let rtt = all(|r| &r.rtt_us);
    let rt = tail(&rtt);
    println!(
        "serve.frame_rtt_us_tail: p{} of {} frames = {:.1} us",
        rt.pct, rt.n, rt.value
    );
    let r = &mut ctx.results;
    timings.report(r, events_per_input);
    summarize_published(r, &references, n_events.iter().sum());

    let parse_ms = median(&each(|r| r.parse_ms));
    r.layer("io.parse_ms", parse_ms);
    r.layer("io.parse_ns_per_record", parse_ms * 1e6 / events_per_input);
    r.layer("io.render_ms_per_epoch", median(&all(|r| &r.render_ms)));
    for (phase, name, scale) in [
        ("prepare", "api.prepare_ms", 1e3),
        ("run", "api.run_s", 1.0),
        ("flush", "api.flush_ms", 1e3),
    ] {
        let v: Vec<f64> = reps
            .iter()
            .flat_map(|r| {
                r.phases
                    .iter()
                    .filter(|p| p.0 == phase)
                    .map(|p| p.1 * scale)
            })
            .collect();
        r.layer(name, median(&v));
    }
    r.layer("serve.frame_rtt_us_p50", median(&rtt));
    r.layer("serve.frame_rtt_us_tail", rt.value);
    r.layer(
        "serve.busy_replies",
        reps.iter().map(|r| r.busy).max().unwrap_or(0) as f64,
    );
    r.layer("serve.engine_ms_p50", median(&all(|r| &r.engine_ms)));
    r.layer(
        "serve.engine_busy_frac",
        median(&each(|r| r.stats.elapsed_s / r.release)),
    );
    r.layer(
        "serve.outside_engine_ms_p50",
        median(&all(|r| &r.outside_ms)),
    );
    r.layer("loadgen.offered_events_per_s", median(&each(|r| r.offered)));
    r.layer(
        "loadgen.late_ms_max",
        each(|r| r.late_ms_max).into_iter().fold(0.0, f64::max),
    );
    r.layer(
        "glove.pairs_per_s",
        median(&each(|r| {
            (r.stats.pairs_computed + r.stats.pairs_pruned) as f64 / r.stats.elapsed_s
        })),
    );
    let close_ms = all(|r| &r.engine_ms);
    let stats = references[0].stats.clone();
    stream_layers(ctx, &stats, &close_ms);
    if ctx.traced {
        let (_, events) = glove_cli::io::events_from_str(&texts[0]).expect("rendered events parse");
        probes::protocol(&mut ctx.results, &mut ctx.tracer, &events, FRAME_EVENTS);
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
