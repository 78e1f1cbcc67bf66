//! Property harness for the columnar sample store and two-level sharding:
//!
//! * **Encode/decode round-trip** — pushing any fingerprint's samples into
//!   a [`SampleStore`] and materializing the span back returns the exact
//!   original `Vec<Sample>`, including the wide-page escape hatch for
//!   continent-spanning fingerprints whose extent exceeds the packed
//!   `u32` offset window.
//! * **Engine byte-identity** — the columnar engine publishes datasets
//!   byte-identical to the full-matrix `Vec<Fingerprint>` reference of
//!   `glove_core::oracle` through every engine: batch, sharded (all three
//!   partitioners) and streamed. The struct-of-arrays pages change the
//!   memory layout, never the numbers.
//! * **Two-level stitch determinism** — the two-level partition is a pure
//!   function of dataset and policy, so repeated sharded runs (and runs
//!   at different worker counts) publish identical datasets in identical
//!   stitch order.

use glove_core::compact::SampleStore;
use glove_core::glove::anonymize;
use glove_core::oracle;
use glove_core::shard::partition;
use glove_core::stream::{events_of, run_stream};
use glove_core::{
    CarryPolicy, Dataset, Fingerprint, GloveConfig, Sample, ShardBy, ShardPolicy, StreamConfig,
    UnderKPolicy, UserId,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: an arbitrary (possibly generalized) sample. Coordinates are
/// clustered around `cities` "cities"; the fifth sits a continent away, so
/// fingerprints mixing it with the others overflow the packed page's `u32`
/// offset window and take the wide-page escape hatch. Engine datasets stay
/// on the first four — a k-anonymous group covering the far city would
/// need merged sample spans beyond `u32`, which the model now (correctly)
/// rejects instead of silently narrowing.
fn arb_sample_in(cities: usize) -> impl Strategy<Value = Sample> {
    (
        0usize..cities,
        -9_000i64..9_000,
        -9_000i64..9_000,
        1u32..5_000,
        1u32..5_000,
        0u32..20_160,
        1u32..700,
    )
        .prop_map(|(city, ox, oy, dx, dy, t, dt)| {
            let (cx, cy) = [
                (0, 0),
                (120_000, 0),
                (0, 150_000),
                (300_000, 280_000),
                (6_000_000_000, 5_500_000_000),
            ][city];
            Sample::new(cx + ox, cy + oy, dx, dy, t, dt).expect("valid extents")
        })
}

fn arb_sample() -> impl Strategy<Value = Sample> {
    arb_sample_in(4)
}

/// Strategy: a dataset of `users` single-subscriber fingerprints with 1..=8
/// samples each.
fn arb_dataset(users: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Dataset> {
    vec(vec(arb_sample(), 1..=8), users).prop_map(|fps| {
        let fps = fps
            .into_iter()
            .enumerate()
            .map(|(u, samples)| {
                Fingerprint::with_users(vec![u as UserId], samples).expect("non-empty")
            })
            .collect();
        Dataset::new("columnar-prop", fps).expect("unique users")
    })
}

/// Canonical serialization for bit-exact comparison of published datasets.
fn serialize(ds: &Dataset) -> String {
    let mut out = String::new();
    for fp in &ds.fingerprints {
        out.push_str(&format!("F {:?}\n", fp.users()));
        for s in fp.samples() {
            out.push_str(&format!(
                "S {} {} {} {} {} {}\n",
                s.x, s.y, s.dx, s.dy, s.t, s.dt
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Columnar encode/decode is lossless for any mix of packed and wide
    /// fingerprints, in any interleaving.
    #[test]
    fn store_round_trips_any_fingerprint_mix(
        fingerprints in vec(vec(arb_sample_in(5), 1..=8), 1..=12),
    ) {
        let mut store = SampleStore::default();
        let spans: Vec<_> = fingerprints
            .iter()
            .map(|samples| store.push(samples))
            .collect();
        for (samples, span) in fingerprints.iter().zip(&spans) {
            prop_assert_eq!(&store.materialize(*span), samples);
        }
        // Compaction keeps only the live spans and stays lossless.
        let keep: Vec<_> = spans.iter().copied().step_by(2).collect();
        let (rebuilt, new_spans) = store.rebuilt(&keep);
        for (old, new) in keep.iter().zip(&new_spans) {
            prop_assert_eq!(store.materialize(*old), rebuilt.materialize(*new));
        }
    }

    /// The columnar batch engine is byte-identical to the full-matrix
    /// reference.
    #[test]
    fn batch_columnar_is_byte_identical_to_reference(
        ds in arb_dataset(4..=14),
        k in 2usize..=3,
    ) {
        let cfg = GloveConfig { k, threads: 1, ..GloveConfig::default() };
        let columnar = anonymize(&ds, &cfg).expect("columnar run succeeds");
        let reference = oracle::anonymize(&ds, &cfg).expect("reference run succeeds");
        prop_assert_eq!(
            serialize(&columnar.dataset),
            serialize(&reference.dataset),
            "columnar engine changed the published dataset"
        );
        prop_assert_eq!(columnar.stats.merges, reference.stats.merges);
        prop_assert_eq!(
            columnar.stats.pairs_computed + columnar.stats.pairs_pruned,
            reference.stats.pairs_computed
        );
        prop_assert!(columnar.stats.ledger.peak_store_bytes > 0);
    }

    /// Byte-identity holds through the sharded engine for every
    /// partitioner, two-level included.
    #[test]
    fn sharded_columnar_is_byte_identical_to_reference(
        ds in arb_dataset(8..=16),
        shards in 2usize..=5,
        by_idx in 0usize..3,
    ) {
        let by = match by_idx {
            1 => ShardBy::Spatial,
            2 => ShardBy::TwoLevel,
            _ => ShardBy::Activity,
        };
        let base = GloveConfig {
            shard: Some(ShardPolicy { shards, by }),
            threads: 1,
            ..GloveConfig::default()
        };
        let columnar = anonymize(&ds, &base).expect("columnar run succeeds");
        let reference = oracle::anonymize(&ds, &base).expect("reference run succeeds");
        prop_assert_eq!(serialize(&columnar.dataset), serialize(&reference.dataset));
        prop_assert_eq!(columnar.stats.merges, reference.stats.merges);
    }

    /// Byte-identity holds through the streaming engine, epoch by epoch.
    #[test]
    fn streamed_columnar_is_byte_identical_to_reference(
        ds in arb_dataset(4..=10),
        window_idx in 0usize..3,
    ) {
        let window_min = [1_440u32, 10_080, 20_160][window_idx];
        let events = events_of(&ds);
        let config = StreamConfig {
            window_min,
            carry: CarryPolicy::Fresh,
            under_k: UnderKPolicy::Defer,
            glove: GloveConfig { threads: 1, ..GloveConfig::default() },
        };
        let columnar = run_stream(ds.name.clone(), events.iter().copied(), config)
            .expect("columnar stream succeeds");
        let reference = oracle::run_stream(ds.name.clone(), events.iter().copied(), config)
            .expect("reference stream succeeds");
        prop_assert_eq!(columnar.epochs.len(), reference.epochs.len());
        for (c, r) in columnar.epochs.iter().zip(&reference.epochs) {
            prop_assert_eq!(
                serialize(&c.output.dataset),
                serialize(&r.output.dataset),
                "columnar stream diverged at epoch {}",
                c.epoch
            );
        }
    }

    /// The two-level partition is a pure function of dataset and policy:
    /// identical bucket lists on repeated calls, buckets conserve every
    /// index exactly once, and the stitched run output does not depend on
    /// the worker-thread count.
    #[test]
    fn two_level_stitch_is_deterministic(
        ds in arb_dataset(8..=16),
        shards in 2usize..=5,
    ) {
        let policy = ShardPolicy::two_level(shards);
        let config = GloveConfig::default();
        let a = partition(&ds, &policy, &config);
        let b = partition(&ds, &policy, &config);
        prop_assert_eq!(&a, &b, "two-level partition is not deterministic");
        let mut seen: Vec<usize> = a.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(
            seen,
            (0..ds.fingerprints.len()).collect::<Vec<_>>(),
            "two-level partition lost or duplicated fingerprints"
        );

        let run = |threads| {
            let cfg = GloveConfig {
                shard: Some(policy),
                threads,
                ..GloveConfig::default()
            };
            anonymize(&ds, &cfg).expect("two-level run succeeds")
        };
        let serial = run(1);
        let parallel = run(4);
        prop_assert_eq!(
            serialize(&serial.dataset),
            serialize(&parallel.dataset),
            "two-level stitch order depends on the worker count"
        );
        prop_assert_eq!(serial.stats.merges, parallel.stats.merges);
    }
}
