//! The unified, serializable run report every engine produces.
//!
//! [`RunReport`] supersedes the ad-hoc stats plumbing that used to leak
//! into every consumer (`GloveStats` for batch/sharded runs, `StreamStats`
//! for streams, the baselines' own types): one top-level shape carries the
//! counters every engine shares, and the engine-specific types survive as
//! embedded **detail sections** ([`RunDetail`]) for consumers that need the
//! per-shard / per-epoch breakdowns.
//!
//! Reports serialize to JSON ([`RunReport::to_json`]) and parse back
//! ([`RunReport::from_json`]) with exact round-trip fidelity — enforced by
//! the `api_properties` test suite — so they can travel through bench
//! artifacts, CI trajectories and external tooling without this crate.

use crate::api::json::JsonValue;
use crate::config::{CarryPolicy, UnderKPolicy};
use crate::glove::GloveStats;
use crate::ledger::MemoryLedger;
use crate::shard::ShardStat;
use crate::stream::{EpochStat, StreamStats};
use crate::suppress::SuppressionLedger;

/// Wall-clock duration of one run phase (see the ordering guarantees in
/// [`crate::api::observer`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMetric {
    /// Phase name (`"prepare"`, `"run"`, `"flush"`, …).
    pub phase: String,
    /// Elapsed wall-clock seconds.
    pub elapsed_s: f64,
}

/// Engine-specific detail embedded in a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RunDetail {
    /// No engine-specific detail.
    #[default]
    None,
    /// Batch / sharded GLOVE statistics (per-shard breakdown included).
    Glove(GloveStats),
    /// Streaming statistics (per-epoch breakdown included).
    Stream(StreamStats),
    /// Detail of an engine outside this crate (the baselines adapters),
    /// as a JSON tree under the engine's name.
    External {
        /// The producing engine's identifier.
        engine: String,
        /// Engine-defined payload.
        data: JsonValue,
    },
}

impl RunDetail {
    /// The embedded GLOVE stats, if this is a batch/sharded detail.
    pub fn as_glove(&self) -> Option<&GloveStats> {
        match self {
            RunDetail::Glove(stats) => Some(stats),
            _ => None,
        }
    }

    /// The embedded stream stats, if this is a streaming detail.
    pub fn as_stream(&self) -> Option<&StreamStats> {
        match self {
            RunDetail::Stream(stats) => Some(stats),
            _ => None,
        }
    }

    /// The embedded external payload, if any.
    pub fn as_external(&self) -> Option<&JsonValue> {
        match self {
            RunDetail::External { data, .. } => Some(data),
            _ => None,
        }
    }
}

/// The unified result summary of one anonymization run, whatever the
/// engine.
///
/// Counters an engine does not produce stay zero (e.g. `merges` for the
/// uniform baseline, `created_samples` for every engine but W4M); `k` is 0
/// for engines without an anonymity parameter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Engine identifier (`"glove-batch"`, `"glove-sharded"`,
    /// `"glove-stream"`, `"uniform"`, `"w4m-lc"`).
    pub engine: String,
    /// Input dataset / stream name.
    pub dataset: String,
    /// Anonymity level of the run (0 when the engine has none).
    pub k: usize,
    /// Fingerprints in the input (0 when unknown, e.g. a pure event
    /// stream).
    pub fingerprints_in: usize,
    /// Subscribers in the input (0 when unknown).
    pub users_in: usize,
    /// Samples in the input; for event streams, the events consumed.
    pub samples_in: usize,
    /// Published fingerprints (summed over epochs for streams).
    pub fingerprints_out: usize,
    /// Published subscribers (user-slices summed over epochs for streams).
    pub users_out: usize,
    /// Published samples (summed over epochs for streams).
    pub samples_out: usize,
    /// Pairwise merges performed.
    pub merges: u64,
    /// Eq. 10 evaluations performed.
    pub pairs_computed: u64,
    /// Pair evaluations skipped by the admissible bound.
    pub pairs_pruned: u64,
    /// Pairs dismissed by the tier-0 bit-packed signature bound of the
    /// distance cascade (0 for engines or configurations without it).
    pub pairs_skipped_tier0: u64,
    /// Pairs dismissed by the tier-1 hull bound of the distance cascade.
    pub pairs_skipped_tier1: u64,
    /// Exact evaluations started but abandoned early by the partial-mean
    /// bound (tier 2 of the distance cascade).
    pub pairs_abandoned: u64,
    /// Samples dropped by §7.1 suppression (merge decisions).
    pub suppressed_samples: u64,
    /// Suppressed samples weighted by fingerprint multiplicity.
    pub suppressed_user_samples: u64,
    /// Synthetic samples fabricated (W4M resampling; GLOVE never creates).
    pub created_samples: u64,
    /// Original samples deleted by resampling (W4M).
    pub deleted_samples: u64,
    /// Fingerprints discarded (residual suppression, W4M trashing, stream
    /// under-k user-slices).
    pub discarded_fingerprints: u64,
    /// Subscribers dropped with those fingerprints.
    pub discarded_users: u64,
    /// Total wall-clock seconds of the run.
    pub elapsed_s: f64,
    /// Wall-clock phases, in execution order.
    pub phases: Vec<PhaseMetric>,
    /// Engine-specific detail section.
    pub detail: RunDetail,
}

impl RunReport {
    /// Fraction of candidate pairs the admissible bound skipped, in
    /// `[0, 1]` (0 when the engine evaluates no pairs).
    pub fn pruned_fraction(&self) -> f64 {
        let candidates = self.pairs_computed + self.pairs_pruned;
        if candidates > 0 {
            self.pairs_pruned as f64 / candidates as f64
        } else {
            0.0
        }
    }

    /// Serializes the report as compact JSON.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Parses a report serialized by [`RunReport::to_json`].
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        Self::from_value(&JsonValue::parse(text)?)
    }

    /// The report as a JSON tree.
    pub fn to_value(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("engine", JsonValue::Str(self.engine.clone())),
            ("dataset", JsonValue::Str(self.dataset.clone())),
            ("k", uint(self.k as u64)),
            ("fingerprints_in", uint(self.fingerprints_in as u64)),
            ("users_in", uint(self.users_in as u64)),
            ("samples_in", uint(self.samples_in as u64)),
            ("fingerprints_out", uint(self.fingerprints_out as u64)),
            ("users_out", uint(self.users_out as u64)),
            ("samples_out", uint(self.samples_out as u64)),
            ("merges", uint(self.merges)),
            ("pairs_computed", uint(self.pairs_computed)),
            ("pairs_pruned", uint(self.pairs_pruned)),
            ("pairs_skipped_tier0", uint(self.pairs_skipped_tier0)),
            ("pairs_skipped_tier1", uint(self.pairs_skipped_tier1)),
            ("pairs_abandoned", uint(self.pairs_abandoned)),
            ("suppressed_samples", uint(self.suppressed_samples)),
            (
                "suppressed_user_samples",
                uint(self.suppressed_user_samples),
            ),
            ("created_samples", uint(self.created_samples)),
            ("deleted_samples", uint(self.deleted_samples)),
            ("discarded_fingerprints", uint(self.discarded_fingerprints)),
            ("discarded_users", uint(self.discarded_users)),
            ("elapsed_s", num(self.elapsed_s)),
            (
                "phases",
                JsonValue::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            JsonValue::obj(vec![
                                ("phase", JsonValue::Str(p.phase.clone())),
                                ("elapsed_s", num(p.elapsed_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("detail", detail_to_value(&self.detail)),
        ])
    }

    /// Reconstructs a report from a JSON tree.
    pub fn from_value(v: &JsonValue) -> Result<RunReport, String> {
        let phases = v
            .get("phases")
            .and_then(JsonValue::as_arr)
            .ok_or("missing phases")?
            .iter()
            .map(|p| {
                Ok(PhaseMetric {
                    phase: str_field(p, "phase")?,
                    elapsed_s: f64_field(p, "elapsed_s")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RunReport {
            engine: str_field(v, "engine")?,
            dataset: str_field(v, "dataset")?,
            k: usize_field(v, "k")?,
            fingerprints_in: usize_field(v, "fingerprints_in")?,
            users_in: usize_field(v, "users_in")?,
            samples_in: usize_field(v, "samples_in")?,
            fingerprints_out: usize_field(v, "fingerprints_out")?,
            users_out: usize_field(v, "users_out")?,
            samples_out: usize_field(v, "samples_out")?,
            merges: u64_field(v, "merges")?,
            pairs_computed: u64_field(v, "pairs_computed")?,
            pairs_pruned: u64_field(v, "pairs_pruned")?,
            pairs_skipped_tier0: u64_field(v, "pairs_skipped_tier0")?,
            pairs_skipped_tier1: u64_field(v, "pairs_skipped_tier1")?,
            pairs_abandoned: u64_field(v, "pairs_abandoned")?,
            suppressed_samples: u64_field(v, "suppressed_samples")?,
            suppressed_user_samples: u64_field(v, "suppressed_user_samples")?,
            created_samples: u64_field(v, "created_samples")?,
            deleted_samples: u64_field(v, "deleted_samples")?,
            discarded_fingerprints: u64_field(v, "discarded_fingerprints")?,
            discarded_users: u64_field(v, "discarded_users")?,
            elapsed_s: f64_field(v, "elapsed_s")?,
            phases,
            detail: detail_from_value(v.get("detail").ok_or("missing detail")?)?,
        })
    }
}

#[inline]
fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

/// The dedicated integer path for counters: `u64` values ride through
/// [`JsonValue::Int`] and survive at any magnitude, where the old
/// `as f64` route silently lost precision past 2⁵³.
#[inline]
fn uint(v: u64) -> JsonValue {
    JsonValue::Int(v as i128)
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn usize_field(v: &JsonValue, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| format!("missing integer field '{key}'"))
}

fn detail_to_value(detail: &RunDetail) -> JsonValue {
    match detail {
        RunDetail::None => JsonValue::Null,
        RunDetail::Glove(stats) => JsonValue::obj(vec![
            ("type", JsonValue::Str("glove".into())),
            ("stats", glove_stats_to_value(stats)),
        ]),
        RunDetail::Stream(stats) => JsonValue::obj(vec![
            ("type", JsonValue::Str("stream".into())),
            ("stats", stream_stats_to_value(stats)),
        ]),
        RunDetail::External { engine, data } => JsonValue::obj(vec![
            ("type", JsonValue::Str("external".into())),
            ("engine", JsonValue::Str(engine.clone())),
            ("data", data.clone()),
        ]),
    }
}

fn detail_from_value(v: &JsonValue) -> Result<RunDetail, String> {
    if *v == JsonValue::Null {
        return Ok(RunDetail::None);
    }
    match v.get("type").and_then(JsonValue::as_str) {
        Some("glove") => Ok(RunDetail::Glove(glove_stats_from_value(
            v.get("stats").ok_or("missing glove stats")?,
        )?)),
        Some("stream") => Ok(RunDetail::Stream(stream_stats_from_value(
            v.get("stats").ok_or("missing stream stats")?,
        )?)),
        Some("external") => Ok(RunDetail::External {
            engine: str_field(v, "engine")?,
            data: v.get("data").cloned().ok_or("missing external data")?,
        }),
        other => Err(format!("unknown detail type {other:?}")),
    }
}

fn ledger_to_value(ledger: &SuppressionLedger) -> JsonValue {
    JsonValue::obj(vec![
        ("samples", uint(ledger.samples)),
        ("user_samples", uint(ledger.user_samples)),
    ])
}

fn ledger_from_value(v: &JsonValue) -> Result<SuppressionLedger, String> {
    Ok(SuppressionLedger {
        samples: u64_field(v, "samples")?,
        user_samples: u64_field(v, "user_samples")?,
    })
}

fn memory_to_value(ledger: &MemoryLedger) -> JsonValue {
    JsonValue::obj(vec![
        ("peak_arena_bytes", uint(ledger.peak_arena_bytes)),
        ("peak_store_bytes", uint(ledger.peak_store_bytes)),
        ("resident_pages", uint(ledger.resident_pages)),
        ("peak_rss_bytes", uint(ledger.peak_rss_bytes)),
    ])
}

fn memory_from_value(v: &JsonValue) -> Result<MemoryLedger, String> {
    Ok(MemoryLedger {
        peak_arena_bytes: u64_field(v, "peak_arena_bytes")?,
        peak_store_bytes: u64_field(v, "peak_store_bytes")?,
        resident_pages: u64_field(v, "resident_pages")?,
        peak_rss_bytes: u64_field(v, "peak_rss_bytes")?,
    })
}

fn shard_stat_to_value(stat: &ShardStat) -> JsonValue {
    JsonValue::obj(vec![
        ("shard", uint(stat.shard as u64)),
        ("fingerprints_in", uint(stat.fingerprints_in as u64)),
        ("users_in", uint(stat.users_in as u64)),
        ("fingerprints_out", uint(stat.fingerprints_out as u64)),
        ("merges", uint(stat.merges)),
        ("pairs_computed", uint(stat.pairs_computed)),
        ("pairs_pruned", uint(stat.pairs_pruned)),
        ("pairs_skipped_tier0", uint(stat.pairs_skipped_tier0)),
        ("pairs_skipped_tier1", uint(stat.pairs_skipped_tier1)),
        ("pairs_abandoned", uint(stat.pairs_abandoned)),
        ("memory", memory_to_value(&stat.ledger)),
        ("elapsed_s", num(stat.elapsed_s)),
    ])
}

fn shard_stat_from_value(v: &JsonValue) -> Result<ShardStat, String> {
    Ok(ShardStat {
        shard: usize_field(v, "shard")?,
        fingerprints_in: usize_field(v, "fingerprints_in")?,
        users_in: usize_field(v, "users_in")?,
        fingerprints_out: usize_field(v, "fingerprints_out")?,
        merges: u64_field(v, "merges")?,
        pairs_computed: u64_field(v, "pairs_computed")?,
        pairs_pruned: u64_field(v, "pairs_pruned")?,
        pairs_skipped_tier0: u64_field(v, "pairs_skipped_tier0")?,
        pairs_skipped_tier1: u64_field(v, "pairs_skipped_tier1")?,
        pairs_abandoned: u64_field(v, "pairs_abandoned")?,
        ledger: memory_from_value(v.get("memory").ok_or("missing shard memory")?)?,
        elapsed_s: f64_field(v, "elapsed_s")?,
    })
}

/// Serializes [`GloveStats`] (the batch/sharded detail section).
pub fn glove_stats_to_value(stats: &GloveStats) -> JsonValue {
    JsonValue::obj(vec![
        ("merges", uint(stats.merges)),
        ("pairs_computed", uint(stats.pairs_computed)),
        ("pairs_pruned", uint(stats.pairs_pruned)),
        ("pairs_skipped_tier0", uint(stats.pairs_skipped_tier0)),
        ("pairs_skipped_tier1", uint(stats.pairs_skipped_tier1)),
        ("pairs_abandoned", uint(stats.pairs_abandoned)),
        (
            "per_shard",
            JsonValue::Arr(stats.per_shard.iter().map(shard_stat_to_value).collect()),
        ),
        ("suppressed", ledger_to_value(&stats.suppressed)),
        ("reshaped_samples", uint(stats.reshaped_samples)),
        ("discarded_fingerprints", uint(stats.discarded_fingerprints)),
        ("discarded_users", uint(stats.discarded_users)),
        ("memory", memory_to_value(&stats.ledger)),
        ("elapsed_s", num(stats.elapsed_s)),
    ])
}

/// Parses a [`GloveStats`] detail section.
pub fn glove_stats_from_value(v: &JsonValue) -> Result<GloveStats, String> {
    Ok(GloveStats {
        merges: u64_field(v, "merges")?,
        pairs_computed: u64_field(v, "pairs_computed")?,
        pairs_pruned: u64_field(v, "pairs_pruned")?,
        pairs_skipped_tier0: u64_field(v, "pairs_skipped_tier0")?,
        pairs_skipped_tier1: u64_field(v, "pairs_skipped_tier1")?,
        pairs_abandoned: u64_field(v, "pairs_abandoned")?,
        per_shard: v
            .get("per_shard")
            .and_then(JsonValue::as_arr)
            .ok_or("missing per_shard")?
            .iter()
            .map(shard_stat_from_value)
            .collect::<Result<Vec<_>, _>>()?,
        suppressed: ledger_from_value(v.get("suppressed").ok_or("missing suppressed")?)?,
        reshaped_samples: u64_field(v, "reshaped_samples")?,
        discarded_fingerprints: u64_field(v, "discarded_fingerprints")?,
        discarded_users: u64_field(v, "discarded_users")?,
        ledger: memory_from_value(v.get("memory").ok_or("missing memory")?)?,
        elapsed_s: f64_field(v, "elapsed_s")?,
    })
}

fn epoch_stat_to_value(stat: &EpochStat) -> JsonValue {
    JsonValue::obj(vec![
        ("epoch", uint(stat.epoch)),
        ("window_start_min", uint(stat.window_start_min)),
        ("fingerprints_in", uint(stat.fingerprints_in as u64)),
        ("users_in", uint(stat.users_in as u64)),
        ("seeded_groups", uint(stat.seeded_groups as u64)),
        ("groups_out", uint(stat.groups_out as u64)),
        ("merges", uint(stat.merges)),
        ("pairs_computed", uint(stat.pairs_computed)),
        ("pairs_pruned", uint(stat.pairs_pruned)),
        ("pairs_skipped_tier0", uint(stat.pairs_skipped_tier0)),
        ("pairs_skipped_tier1", uint(stat.pairs_skipped_tier1)),
        ("pairs_abandoned", uint(stat.pairs_abandoned)),
        (
            "policy",
            JsonValue::obj(vec![
                ("k", uint(stat.policy_k as u64)),
                ("window_min", uint(u64::from(stat.policy_window_min))),
                (
                    "carry",
                    JsonValue::Str(
                        match stat.policy_carry {
                            CarryPolicy::Fresh => "fresh",
                            CarryPolicy::Sticky => "sticky",
                        }
                        .into(),
                    ),
                ),
                (
                    "under_k",
                    JsonValue::Str(
                        match stat.policy_under_k {
                            UnderKPolicy::Suppress => "suppress",
                            UnderKPolicy::Defer => "defer",
                        }
                        .into(),
                    ),
                ),
                ("cohort_users", uint(stat.policy_cohort_users as u64)),
            ]),
        ),
        ("elapsed_s", num(stat.elapsed_s)),
    ])
}

fn epoch_stat_from_value(v: &JsonValue) -> Result<EpochStat, String> {
    // The per-epoch policy snapshot is parsed leniently: reports written
    // before the policy plane existed simply read back the zero snapshot.
    let policy = v.get("policy");
    let pfield = |key: &str| policy.and_then(|p| p.get(key));
    Ok(EpochStat {
        epoch: u64_field(v, "epoch")?,
        window_start_min: u64_field(v, "window_start_min")?,
        fingerprints_in: usize_field(v, "fingerprints_in")?,
        users_in: usize_field(v, "users_in")?,
        seeded_groups: usize_field(v, "seeded_groups")?,
        groups_out: usize_field(v, "groups_out")?,
        merges: u64_field(v, "merges")?,
        pairs_computed: u64_field(v, "pairs_computed")?,
        pairs_pruned: u64_field(v, "pairs_pruned")?,
        pairs_skipped_tier0: u64_field(v, "pairs_skipped_tier0")?,
        pairs_skipped_tier1: u64_field(v, "pairs_skipped_tier1")?,
        pairs_abandoned: u64_field(v, "pairs_abandoned")?,
        policy_k: pfield("k").and_then(JsonValue::as_usize).unwrap_or(0),
        policy_window_min: pfield("window_min")
            .and_then(JsonValue::as_u64)
            .and_then(|w| u32::try_from(w).ok())
            .unwrap_or(0),
        policy_carry: match pfield("carry").and_then(JsonValue::as_str) {
            Some("sticky") => CarryPolicy::Sticky,
            _ => CarryPolicy::Fresh,
        },
        policy_under_k: match pfield("under_k").and_then(JsonValue::as_str) {
            Some("defer") => UnderKPolicy::Defer,
            _ => UnderKPolicy::Suppress,
        },
        policy_cohort_users: pfield("cohort_users")
            .and_then(JsonValue::as_usize)
            .unwrap_or(0),
        elapsed_s: f64_field(v, "elapsed_s")?,
    })
}

/// Serializes [`StreamStats`] (the streaming detail section).
pub fn stream_stats_to_value(stats: &StreamStats) -> JsonValue {
    JsonValue::obj(vec![
        ("events", uint(stats.events)),
        ("epochs", uint(stats.epochs)),
        (
            "peak_resident_fingerprints",
            uint(stats.peak_resident_fingerprints as u64),
        ),
        (
            "peak_resident_samples",
            uint(stats.peak_resident_samples as u64),
        ),
        ("merges", uint(stats.merges)),
        ("pairs_computed", uint(stats.pairs_computed)),
        ("pairs_pruned", uint(stats.pairs_pruned)),
        ("pairs_skipped_tier0", uint(stats.pairs_skipped_tier0)),
        ("pairs_skipped_tier1", uint(stats.pairs_skipped_tier1)),
        ("pairs_abandoned", uint(stats.pairs_abandoned)),
        ("seeded_groups", uint(stats.seeded_groups)),
        ("suppressed_users", uint(stats.suppressed_users)),
        ("suppressed_samples", uint(stats.suppressed_samples)),
        ("deferred_users", uint(stats.deferred_users)),
        ("deferred_samples", uint(stats.deferred_samples)),
        ("seed_suppressed", ledger_to_value(&stats.seed_suppressed)),
        ("shed_events", uint(stats.shed_events)),
        (
            "per_epoch",
            JsonValue::Arr(stats.per_epoch.iter().map(epoch_stat_to_value).collect()),
        ),
        ("memory", memory_to_value(&stats.ledger)),
        ("elapsed_s", num(stats.elapsed_s)),
    ])
}

/// Parses a [`StreamStats`] detail section.
pub fn stream_stats_from_value(v: &JsonValue) -> Result<StreamStats, String> {
    Ok(StreamStats {
        events: u64_field(v, "events")?,
        epochs: u64_field(v, "epochs")?,
        peak_resident_fingerprints: usize_field(v, "peak_resident_fingerprints")?,
        peak_resident_samples: usize_field(v, "peak_resident_samples")?,
        merges: u64_field(v, "merges")?,
        pairs_computed: u64_field(v, "pairs_computed")?,
        pairs_pruned: u64_field(v, "pairs_pruned")?,
        pairs_skipped_tier0: u64_field(v, "pairs_skipped_tier0")?,
        pairs_skipped_tier1: u64_field(v, "pairs_skipped_tier1")?,
        pairs_abandoned: u64_field(v, "pairs_abandoned")?,
        seeded_groups: u64_field(v, "seeded_groups")?,
        suppressed_users: u64_field(v, "suppressed_users")?,
        suppressed_samples: u64_field(v, "suppressed_samples")?,
        deferred_users: u64_field(v, "deferred_users")?,
        deferred_samples: u64_field(v, "deferred_samples")?,
        seed_suppressed: ledger_from_value(v.get("seed_suppressed").ok_or("missing ledger")?)?,
        // Absent in reports serialized before the shed ledger existed.
        shed_events: match v.get("shed_events") {
            Some(_) => u64_field(v, "shed_events")?,
            None => 0,
        },
        per_epoch: v
            .get("per_epoch")
            .and_then(JsonValue::as_arr)
            .ok_or("missing per_epoch")?
            .iter()
            .map(epoch_stat_from_value)
            .collect::<Result<Vec<_>, _>>()?,
        ledger: memory_from_value(v.get("memory").ok_or("missing memory")?)?,
        elapsed_s: f64_field(v, "elapsed_s")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            engine: "glove-sharded".into(),
            dataset: "civ-like".into(),
            k: 2,
            fingerprints_in: 100,
            users_in: 100,
            samples_in: 1_234,
            fingerprints_out: 50,
            users_out: 100,
            samples_out: 900,
            merges: 50,
            pairs_computed: 4_000,
            pairs_pruned: 950,
            pairs_skipped_tier0: 600,
            pairs_skipped_tier1: 300,
            pairs_abandoned: 50,
            suppressed_samples: 3,
            suppressed_user_samples: 5,
            created_samples: 0,
            deleted_samples: 0,
            discarded_fingerprints: 1,
            discarded_users: 1,
            elapsed_s: 0.12345,
            phases: vec![
                PhaseMetric {
                    phase: "prepare".into(),
                    elapsed_s: 0.0001,
                },
                PhaseMetric {
                    phase: "run".into(),
                    elapsed_s: 0.123,
                },
            ],
            detail: RunDetail::Glove(GloveStats {
                merges: 50,
                pairs_computed: 4_000,
                pairs_pruned: 950,
                pairs_skipped_tier0: 600,
                pairs_skipped_tier1: 300,
                pairs_abandoned: 50,
                per_shard: vec![ShardStat {
                    shard: 0,
                    fingerprints_in: 100,
                    users_in: 100,
                    fingerprints_out: 50,
                    merges: 50,
                    pairs_computed: 4_000,
                    pairs_pruned: 950,
                    pairs_skipped_tier0: 600,
                    pairs_skipped_tier1: 300,
                    pairs_abandoned: 50,
                    ledger: MemoryLedger {
                        peak_arena_bytes: 1 << 20,
                        peak_store_bytes: 24 * 1_234,
                        resident_pages: 1,
                        peak_rss_bytes: 64 << 20,
                    },
                    elapsed_s: 0.11,
                }],
                suppressed: SuppressionLedger {
                    samples: 3,
                    user_samples: 5,
                },
                reshaped_samples: 7,
                discarded_fingerprints: 1,
                discarded_users: 1,
                ledger: MemoryLedger {
                    peak_arena_bytes: 1 << 20,
                    peak_store_bytes: 24 * 1_234,
                    resident_pages: 1,
                    peak_rss_bytes: 64 << 20,
                },
                elapsed_s: 0.12,
            }),
        }
    }

    #[test]
    fn report_json_round_trips() {
        let report = sample_report();
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn stream_detail_round_trips() {
        let mut report = sample_report();
        report.engine = "glove-stream".into();
        report.detail = RunDetail::Stream(StreamStats {
            events: 10_000,
            epochs: 3,
            peak_resident_fingerprints: 42,
            peak_resident_samples: 321,
            merges: 77,
            pairs_computed: 5_000,
            pairs_pruned: 123,
            pairs_skipped_tier0: 70,
            pairs_skipped_tier1: 40,
            pairs_abandoned: 13,
            seeded_groups: 4,
            suppressed_users: 2,
            suppressed_samples: 9,
            deferred_users: 1,
            deferred_samples: 3,
            seed_suppressed: SuppressionLedger::default(),
            shed_events: 6,
            ledger: MemoryLedger {
                peak_arena_bytes: 512 << 10,
                peak_store_bytes: 24 * 321,
                resident_pages: 1,
                peak_rss_bytes: 48 << 20,
            },
            per_epoch: vec![EpochStat {
                epoch: 0,
                window_start_min: 1_440,
                fingerprints_in: 40,
                users_in: 40,
                seeded_groups: 0,
                groups_out: 20,
                merges: 20,
                pairs_computed: 780,
                pairs_pruned: 12,
                pairs_skipped_tier0: 7,
                pairs_skipped_tier1: 4,
                pairs_abandoned: 1,
                policy_k: 2,
                policy_window_min: 1_440,
                policy_carry: CarryPolicy::Sticky,
                policy_under_k: UnderKPolicy::Defer,
                policy_cohort_users: 3,
                elapsed_s: 0.05,
            }],
            elapsed_s: 0.2,
        });
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn external_detail_round_trips() {
        let mut report = sample_report();
        report.engine = "w4m-lc".into();
        report.detail = RunDetail::External {
            engine: "w4m-lc".into(),
            data: JsonValue::obj(vec![
                ("mean_position_error_m", JsonValue::Num(812.5)),
                ("mean_time_error_min", JsonValue::Num(44.25)),
            ]),
        };
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        assert_eq!(
            parsed
                .detail
                .as_external()
                .and_then(|d| d.get("mean_position_error_m"))
                .and_then(JsonValue::as_f64),
            Some(812.5)
        );
    }

    #[test]
    fn none_detail_round_trips() {
        let mut report = sample_report();
        report.detail = RunDetail::None;
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn from_json_rejects_mangled_reports() {
        let report = sample_report();
        let json = report.to_json();
        assert!(RunReport::from_json(&json.replace("\"engine\"", "\"motor\"")).is_err());
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("not json").is_err());
    }

    /// Regression: counters used to ride through `f64`, which silently
    /// rounds integers past 2⁵³ — a week-long metro run's pair count no
    /// longer survives that path. The dedicated integer path must
    /// round-trip every `u64` exactly.
    #[test]
    fn counters_beyond_2_53_round_trip_exactly() {
        let mut report = sample_report();
        report.pairs_computed = (1u64 << 53) + 1;
        report.pairs_pruned = u64::MAX;
        report.merges = (1u64 << 60) + 7;
        let RunDetail::Glove(stats) = &mut report.detail else {
            panic!("the sample report carries a glove detail")
        };
        stats.suppressed.samples = (1u64 << 53) + 1;
        stats.suppressed.user_samples = (1u64 << 53) + 3;
        let json = report.to_json();
        assert!(
            json.contains(&((1u64 << 53) + 1).to_string()),
            "integer counters must render as exact integer literals"
        );
        let parsed = RunReport::from_json(&json).unwrap();
        assert_eq!(parsed.pairs_computed, (1u64 << 53) + 1);
        assert_eq!(parsed.pairs_pruned, u64::MAX);
        assert_eq!(parsed.merges, (1u64 << 60) + 7);
        let suppressed = parsed.detail.as_glove().unwrap().suppressed;
        assert_eq!(suppressed.samples, (1u64 << 53) + 1);
        assert_eq!(suppressed.user_samples, (1u64 << 53) + 3);
        assert_eq!(parsed, report);
    }

    #[test]
    fn memory_ledger_round_trips_in_detail() {
        let report = sample_report();
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        let stats = parsed.detail.as_glove().unwrap();
        assert_eq!(stats.ledger.peak_arena_bytes, 1 << 20);
        assert_eq!(stats.ledger.peak_store_bytes, 24 * 1_234);
        assert_eq!(stats.ledger.resident_pages, 1);
        assert_eq!(stats.ledger.peak_rss_bytes, 64 << 20);
        assert_eq!(stats.per_shard[0].ledger, stats.ledger);
    }

    #[test]
    fn pruned_fraction_is_well_defined() {
        let mut report = sample_report();
        assert!((report.pruned_fraction() - 950.0 / 4_950.0).abs() < 1e-12);
        report.pairs_computed = 0;
        report.pairs_pruned = 0;
        assert_eq!(report.pruned_fraction(), 0.0);
    }
}
