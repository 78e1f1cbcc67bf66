//! `glovebench`: the repository's end-to-end benchmark.
//!
//! ```text
//! glovebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from `--seed`, hands them to the system
//! only as text, measures for about `--seconds` seconds, checks every
//! release, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics and the trace tables (`--trace 1`). The last line of
//! standard output is one JSON object. A failed output check exits with
//! code 1, a bad command line with code 2. See README.md.

mod batch;
mod check;
mod common;
mod probes;
mod report;
mod serve;
mod stats;
mod stream;
mod sys;
mod trace;

use common::Ctx;
use glove_core::ShardPolicy;
use std::process::ExitCode;

/// The workloads, in the order README.md describes them.
const WORKLOADS: &[&str] = &["batch-metro", "sharded-metro", "stream-daily", "serve-6h"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("glovebench: {e}");
            eprintln!(
                "usage: glovebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    match args.workload.as_str() {
        "batch-metro" => batch::run(
            &mut ctx,
            &batch::Spec {
                users: 1_000,
                threads: 1,
                shards: None,
                inputs: 4,
            },
        ),
        "sharded-metro" => batch::run(
            &mut ctx,
            &batch::Spec {
                users: 2_000,
                threads: 1,
                shards: Some(ShardPolicy::two_level(16)),
                inputs: 3,
            },
        ),
        "stream-daily" => stream::run(&mut ctx, 1_500, 1_440, 1, 3),
        "serve-6h" => serve::run(&mut ctx, 1_000, 360, 1, 4),
        _ => unreachable!("workload names are checked by parse_args"),
    }
    let attempted = ctx.results.attempted.max(1);
    let passed = attempted - ctx.results.failed;
    ctx.results.e2e("ok_frac", passed as f64 / attempted as f64);
    if args.trace {
        let mut out = std::io::stdout().lock();
        ctx.tracer.print_tables(&mut out).expect("write to stdout");
        let path = std::path::Path::new(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => println!("trace: spans written to {}", path.display()),
            Err(e) => eprintln!("glovebench: cannot write {}: {e}", path.display()),
        }
    }
    print!("{}", ctx.results.render(args.trace));
    if ctx.results.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload serve-6h --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-6h", 7, 20, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload batch-metro --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload batch-metro --seed x --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload batch-metro --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }
}
