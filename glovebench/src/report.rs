//! The metric catalogue and the result line.
//!
//! Every workload prints every metric of the catalogue: the end-to-end ones
//! with `--trace 0`, the per-layer ones with `--trace 1`. A per-layer metric
//! of a layer the workload never runs reads 0 (README.md, "Layer map").

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("release_s", "s"),
    ("samples_per_s", "samples/s"),
    ("epoch_latency_p50_ms", "ms"),
    ("epoch_latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("pos_accuracy_m", "m"),
    ("time_accuracy_min", "min"),
    ("suppressed_frac", "frac"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_ms", "ms"),
    ("io.parse_ns_per_record", "ns"),
    ("io.render_ms_per_epoch", "ms"),
    ("api.prepare_ms", "ms"),
    ("api.run_s", "s"),
    ("api.flush_ms", "ms"),
    ("glove.merges", "count"),
    ("glove.candidate_pairs", "count"),
    ("glove.pairs_computed", "count"),
    ("glove.tier0_skipped", "count"),
    ("glove.tier1_skipped", "count"),
    ("glove.tier2_abandoned", "count"),
    ("glove.exact_frac", "frac"),
    ("glove.pairs_per_s", "pairs/s"),
    ("stretch.exact_ns_per_pair", "ns"),
    ("stretch.cutoff_ns_per_pair", "ns"),
    ("stretch.hull_bound_ns", "ns"),
    ("stretch.samples_per_fp_mean", "samples"),
    ("compact.signature_ns", "ns"),
    ("compact.signature_bound_ns", "ns"),
    ("compact.store_push_ns_per_sample", "ns"),
    ("shard.partition_ms", "ms"),
    ("shard.count", "count"),
    ("shard.run_s_max", "s"),
    ("shard.run_s_mean", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.parallel_eff", "frac"),
    ("stream.push_ns_per_event", "ns"),
    ("stream.window_close_ms_p50", "ms"),
    ("stream.window_close_ms_max", "ms"),
    ("stream.epochs", "count"),
    ("stream.users_per_epoch_mean", "users"),
    ("stream.peak_resident_samples", "samples"),
    ("stream.deferred_users", "users"),
    ("ledger.peak_arena_bytes", "bytes"),
    ("ledger.peak_store_bytes", "bytes"),
    ("protocol.encode_us_per_frame", "us"),
    ("protocol.decode_us_per_frame", "us"),
    ("protocol.bytes_per_event", "bytes"),
    ("serve.frame_rtt_us_p50", "us"),
    ("serve.frame_rtt_us_tail", "us"),
    ("serve.busy_replies", "count"),
    ("serve.engine_ms_p50", "ms"),
    ("serve.engine_busy_frac", "frac"),
    ("serve.outside_engine_ms_p50", "ms"),
    ("loadgen.offered_events_per_s", "events/s"),
    ("loadgen.late_ms_max", "ms"),
    ("trace.overhead_frac", "frac"),
];

fn known(catalogue: &[(&str, &str)], name: &str) -> bool {
    catalogue.iter().any(|(n, _)| *n == name)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Results {
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    /// Operations attempted: releases, epochs and `EVENTS` frames.
    pub attempted: u64,
    /// Operations that failed (a check, a `BUSY`/`ERROR` reply, a late
    /// epoch).
    pub failed: u64,
    /// Output checks that failed, with what they found.
    check_failures: Vec<String>,
}

impl Results {
    /// Records an end-to-end metric.
    ///
    /// # Panics
    /// On a name outside [`END_TO_END`] (a bug in the benchmark).
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(known(END_TO_END, name), "unknown metric {name}");
        self.e2e.insert(name, value);
    }

    /// Records a per-layer metric.
    ///
    /// # Panics
    /// On a name outside [`PER_LAYER`] (a bug in the benchmark).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(known(PER_LAYER, name), "unknown metric {name}");
        self.layer.insert(name, value);
    }

    /// Counts `passed` operations that passed and `failed` that failed.
    pub fn ops(&mut self, passed: u64, failed: u64) {
        self.attempted += passed + failed;
        self.failed += failed;
    }

    /// An output check: counted as an operation; a failure is recorded and
    /// makes the run exit non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(u64::from(ok), u64::from(!ok));
        if !ok {
            let what = what();
            eprintln!("check failed: {what}");
            self.check_failures.push(what);
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The human-readable lines and the final JSON result line.
    pub fn render(&self, trace: bool) -> String {
        let mut out = String::new();
        for (title, catalogue, values) in [
            ("end-to-end", END_TO_END, &self.e2e),
            ("per-layer", PER_LAYER, &self.layer),
        ] {
            if values.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{title}:");
            for (name, unit) in catalogue {
                let v = values.get(name).copied().unwrap_or(0.0);
                let _ = writeln!(out, "  {name:<34} {v:>16.6} {unit}");
            }
        }
        let (catalogue, values) = if trace {
            (PER_LAYER, &self.layer)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must list exactly the metrics
    /// this catalogue prints, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} [{unit}] missing");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut r = Results::default();
        r.e2e("setup_s", 0.25);
        r.ops(1, 0);
        let text = r.render(false);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(last.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(last.matches("\"unit\"").count(), END_TO_END.len());
        let traced = r.render(true);
        let last = traced.lines().last().unwrap();
        assert_eq!(last.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
