//! Exact reference runs of GLOVE, kept as test oracles (cargo feature
//! `oracle`; the production build compiles none of this).
//!
//! The production loop of [`crate::glove`] reaches Alg. 1's output through
//! admissible pair pruning, a tiered distance cascade and a columnar sample
//! store. This module keeps the algorithm in the paper's plain form — the
//! full stretch-effort matrix (§6.3) over a `Vec<Fingerprint>`, every pair
//! evaluated to completion — so tests and benches can check that the
//! production path publishes byte-identical datasets:
//!
//! * [`anonymize`] runs the full-matrix loop through the batch and shard
//!   engines (the configuration's [`GloveConfig::shard`] applies);
//! * [`run_stream`] runs the stream engine with every epoch on the
//!   full-matrix loop;
//! * [`anonymize_hull_only`] runs the production loop with the distance
//!   cascade forced off (tier-1 hull bound only), the comparator that
//!   measures what the cascade buys.
//!
//! The full-matrix loop keeps the production loop's row-minimum
//! bookkeeping and its `(value, smaller slot)` tie order, so merge order
//! and published bytes match exactly. Its `pairs_computed` counts every
//! pair it evaluates — the whole initial matrix, every new row and the
//! residual's distances — which a production run splits into
//! `pairs_computed + pairs_pruned`.

use crate::config::{GloveConfig, ResidualPolicy, StreamConfig};
use crate::error::GloveError;
use crate::glove::{anonymize_via, run_arena, GloveOutput, GloveStats};
use crate::merge::merge_fingerprints;
use crate::model::{Dataset, Fingerprint};
use crate::parallel::par_map;
use crate::policy::{KPlan, PolicyPlane};
use crate::reshape::reshape_suppressed;
use crate::stream::{drain, StreamEngine, StreamEvent, StreamRun};
use crate::stretch::fingerprint_stretch;
use std::time::Instant;

/// [`crate::glove::anonymize`] on the full-matrix loop: the exact
/// reference output, monolithic or sharded per `config.shard`.
///
/// # Errors
///
/// As [`crate::glove::anonymize`].
pub fn anonymize(dataset: &Dataset, config: &GloveConfig) -> Result<GloveOutput, GloveError> {
    anonymize_via(dataset, config, None, full_matrix)
}

/// [`crate::glove::anonymize`] on the production loop with the distance
/// cascade forced off: every candidate is seeded with the tier-1 hull
/// bound and every started evaluation runs to completion.
///
/// # Errors
///
/// As [`crate::glove::anonymize`].
pub fn anonymize_hull_only(
    dataset: &Dataset,
    config: &GloveConfig,
) -> Result<GloveOutput, GloveError> {
    anonymize_via(dataset, config, None, hull_only)
}

/// [`crate::stream::run_stream`] with every epoch anonymized on the
/// full-matrix loop.
///
/// # Errors
///
/// As [`crate::stream::run_stream`].
pub fn run_stream(
    name: impl Into<String>,
    events: impl IntoIterator<Item = StreamEvent>,
    config: StreamConfig,
) -> Result<StreamRun, GloveError> {
    let engine =
        StreamEngine::with_policy(name, config, crate::policy::shared(PolicyPlane::uniform()))?
            .with_arena_run(full_matrix);
    drain(engine, events)
}

fn hull_only(
    dataset: &Dataset,
    config: &GloveConfig,
    plan: Option<&KPlan>,
) -> Result<GloveOutput, GloveError> {
    run_arena(dataset, config, plan, false)
}

/// A candidate minimum `(effort, slot)`. Every minimum of the loop
/// compares these lexicographically — the smaller slot wins a tie.
type Candidate = (f64, usize);

const NONE: Candidate = (f64::INFINITY, usize::MAX);

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Active,
    Done,
    Retired,
}

/// The full-matrix arena. Slots are append-only and never compacted (the
/// production arena's compaction preserves slot order, so tie-breaking is
/// unaffected); the rows of slots that leave the game are freed.
struct Matrix {
    fps: Vec<Fingerprint>,
    states: Vec<SlotState>,
    kreq: Vec<usize>,
    /// `rows[i][j]` for `j < i` holds the Eq. 10 effort of the pair.
    rows: Vec<Vec<f64>>,
    /// Cached minimum of each slot's row over active partners.
    row_min: Vec<Candidate>,
    active: Vec<usize>,
}

impl Matrix {
    fn cell(&self, i: usize, j: usize) -> f64 {
        if i > j {
            self.rows[i][j]
        } else {
            self.rows[j][i]
        }
    }

    fn rescan_row_min(&mut self, i: usize) {
        let mut best = NONE;
        for &j in &self.active {
            if j != i {
                best = min(best, (self.cell(i, j), j));
            }
        }
        self.row_min[i] = best;
    }

    fn retire(&mut self, i: usize) {
        self.states[i] = SlotState::Retired;
        self.rows[i] = Vec::new();
    }
}

fn min(a: Candidate, b: Candidate) -> Candidate {
    if b < a {
        b
    } else {
        a
    }
}

/// Alg. 1 over the full stretch-effort matrix, every pair evaluated to
/// completion.
fn full_matrix(
    dataset: &Dataset,
    config: &GloveConfig,
    plan: Option<&KPlan>,
) -> Result<GloveOutput, GloveError> {
    let started = Instant::now();
    let mut stats = GloveStats::default();
    let threads = config.threads;
    let cfg = &config.stretch;
    let fps = dataset.fingerprints.clone();
    let n = fps.len();
    let kreq: Vec<usize> = fps
        .iter()
        .map(|f| plan.map_or(config.k, |p| p.required_k(f.users()).max(config.k)))
        .collect();
    let states: Vec<SlotState> = fps
        .iter()
        .zip(&kreq)
        .map(|(f, &k)| {
            if f.multiplicity() >= k {
                SlotState::Done
            } else {
                SlotState::Active
            }
        })
        .collect();
    let rows = par_map(n, threads, |i| {
        (0..i)
            .map(|j| fingerprint_stretch(&fps[i], &fps[j], cfg))
            .collect::<Vec<f64>>()
    });
    stats.pairs_computed += (n as u64) * (n as u64).saturating_sub(1) / 2;
    let mut m = Matrix {
        active: (0..n).filter(|&i| states[i] == SlotState::Active).collect(),
        fps,
        states,
        kreq,
        rows,
        row_min: vec![NONE; n],
    };
    for i in m.active.clone() {
        m.rescan_row_min(i);
    }

    while m.active.len() >= 2 {
        let (_, a) = m
            .active
            .iter()
            .fold(NONE, |best, &i| min(best, (m.row_min[i].0, i)));
        let b = m.row_min[a].1;
        let outcome = merge_fingerprints(&m.fps[a], &m.fps[b], cfg, &config.suppression)?;
        stats.merges += 1;
        stats.suppressed.absorb(outcome.suppressed);
        m.retire(a);
        m.retire(b);
        m.active.retain(|&i| i != a && i != b);

        let new = m.fps.len();
        let new_kreq = m.kreq[a].max(m.kreq[b]);
        let done = outcome.fingerprint.multiplicity() >= new_kreq;
        m.kreq.push(new_kreq);
        m.fps.push(outcome.fingerprint);
        m.rows.push(Vec::new());
        m.row_min.push(NONE);
        let partners = m.active.clone();
        if done {
            m.states.push(SlotState::Done);
            for i in partners {
                if [a, b].contains(&m.row_min[i].1) {
                    m.rescan_row_min(i);
                }
            }
            continue;
        }
        m.states.push(SlotState::Active);
        let fps_ref = &m.fps;
        let dists = par_map(partners.len(), threads, |idx| {
            fingerprint_stretch(&fps_ref[new], &fps_ref[partners[idx]], cfg)
        });
        stats.pairs_computed += partners.len() as u64;
        let mut row = vec![f64::INFINITY; new];
        let mut new_min = NONE;
        for (&j, &d) in partners.iter().zip(&dists) {
            row[j] = d;
            new_min = min(new_min, (d, j));
        }
        m.rows[new] = row;
        m.row_min[new] = new_min;
        // Rows that pointed at a merged slot rescan without the newcomer
        // (it joins the active set only after this round); the rest fold it
        // in, where a tie never wins since `new` is the largest slot.
        for (&j, &d) in partners.iter().zip(&dists) {
            if [a, b].contains(&m.row_min[j].1) {
                m.rescan_row_min(j);
            } else {
                m.row_min[j] = min(m.row_min[j], (d, new));
            }
        }
        m.active.push(new);
    }

    if let Some(&r) = m.active.first() {
        match config.residual {
            ResidualPolicy::MergeIntoNearest => {
                let done: Vec<usize> = (0..m.states.len())
                    .filter(|&i| m.states[i] == SlotState::Done)
                    .collect();
                if done.is_empty() {
                    return Err(GloveError::Unsatisfiable(format!(
                        "no k-anonymous group exists to absorb the residual fingerprint \
                         ({} users < k = {})",
                        m.fps[r].multiplicity(),
                        m.kreq[r]
                    )));
                }
                let fps_ref = &m.fps;
                let dists = par_map(done.len(), threads, |idx| {
                    fingerprint_stretch(&fps_ref[r], &fps_ref[done[idx]], cfg)
                });
                stats.pairs_computed += done.len() as u64;
                let (_, t) = done
                    .iter()
                    .zip(&dists)
                    .fold(NONE, |best, (&i, &d)| min(best, (d, i)));
                let outcome = merge_fingerprints(&m.fps[t], &m.fps[r], cfg, &config.suppression)?;
                stats.merges += 1;
                stats.suppressed.absorb(outcome.suppressed);
                m.fps[t] = outcome.fingerprint;
            }
            ResidualPolicy::Suppress => {
                stats.discarded_fingerprints += 1;
                stats.discarded_users += m.fps[r].multiplicity() as u64;
            }
        }
        m.states[r] = SlotState::Retired;
    }

    let mut published = Vec::new();
    for (fp, state) in m.fps.into_iter().zip(&m.states) {
        if *state == SlotState::Done {
            let mut fp = fp;
            if config.reshape {
                stats.reshaped_samples +=
                    reshape_suppressed(&mut fp, &config.suppression, &mut stats.suppressed)? as u64;
            }
            published.push(fp);
        }
    }
    stats.elapsed_s = started.elapsed().as_secs_f64();
    let dataset = Dataset::new(format!("{}-glove-k{}", dataset.name, config.k), published)?;
    Ok(GloveOutput { dataset, stats })
}
