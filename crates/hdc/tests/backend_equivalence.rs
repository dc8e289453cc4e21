//! Property-based proof that every distance backend and scan strategy is
//! bit-identical to the scalar full scan.
//!
//! Two layers:
//!
//! * the [`DistanceBackend`] contract itself — for every enabled backend,
//!   `bounded_distance` returns the exact distance whenever it returns at
//!   all, abandons only when the exact distance strictly exceeds the
//!   bound, and never abandons at `bound == usize::MAX`;
//! * the scan — `scan_min2_with` must report the same winner, winner
//!   distance, and runner-up for **every** enabled backend × strategy
//!   (direct, sampled-prefilter cascade, auto) as the naive per-row
//!   reference, on random class counts, dimensions with non-word-multiple
//!   tails, masks, and sub-ranges — and on one large planted shape with
//!   an index and a bit-sliced mirror attached, top-k included;
//! * the routing — a planned top-k ranks through the backend it is
//!   handed, counted by a wrapper backend.

use std::sync::atomic::{AtomicUsize, Ordering};

use hdc::kernel::PackedRows;
use hdc::prelude::*;
use hdc::{
    enabled_backends, BitSlicedRows, BucketIndex, DistanceBackend, IndexBuildOptions, ScanStrategy,
};
use proptest::prelude::*;

/// The seed's naive word-wise zip kernel — the reference implementation.
fn naive_hamming(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x ^ y).count_ones() as usize)
        .sum()
}

fn naive_hamming_masked(a: &[u64], b: &[u64], m: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .zip(m)
        .map(|((x, y), w)| ((x ^ y) & w).count_ones() as usize)
        .sum()
}

/// The seed's two-pass min + runner-up over a full distance list.
fn naive_min2(distances: &[usize]) -> (usize, usize, Option<usize>) {
    let mut best = 0usize;
    for (i, d) in distances.iter().enumerate().skip(1) {
        if *d < distances[best] {
            best = i;
        }
    }
    let runner_up = distances
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best)
        .map(|(_, d)| *d)
        .min();
    (best, distances[best], runner_up)
}

/// Dimensions that exercise word boundaries, tails, and the SIMD block
/// sizes (AVX2 folds 64-word blocks, AVX-512 checks every 128 words,
/// NEON every 32): include multi-block lengths, not just tiny ones.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(63usize),
        Just(64usize),
        Just(65usize),
        Just(1_024usize),
        Just(4_096usize),
        Just(8_200usize),
        Just(10_000usize),
        2usize..700,
    ]
}

fn words(d: usize, seed: u64) -> Vec<u64> {
    Hypervector::random(Dimension::new(d).unwrap(), seed)
        .as_bitvec()
        .as_words()
        .to_vec()
}

/// A random memory plus a near or far query, as packed rows.
fn packed_memory(c: usize, d: usize, seed: u64, near: bool) -> (PackedRows, Vec<u64>) {
    let dim = Dimension::new(d).unwrap();
    let rows: Vec<Hypervector> = (0..c as u64)
        .map(|i| Hypervector::random(dim, seed ^ (i << 32)))
        .collect();
    let query = if near {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        rows[(seed as usize) % c].with_flipped_bits(d / 4, &mut rng)
    } else {
        Hypervector::random(dim, seed ^ 0xDEAD_BEEF)
    };
    let mut packed = PackedRows::with_capacity(d, c);
    for row in &rows {
        packed.push(row.as_bitvec().as_words());
    }
    (packed, query.as_bitvec().as_words().to_vec())
}

const STRATEGIES: [ScanStrategy; 3] = [
    ScanStrategy::Direct,
    ScanStrategy::Cascade,
    ScanStrategy::Auto,
];

/// Checks one backend against the contract for one (a, b, mask, bound).
fn check_contract(backend: &dyn DistanceBackend, a: &[u64], b: &[u64], m: &[u64], bound: usize) {
    let exact = naive_hamming(a, b);
    assert_eq!(
        backend.bounded_distance(a, b, usize::MAX),
        Some(exact),
        "{} unbounded",
        backend.name()
    );
    match backend.bounded_distance(a, b, bound) {
        Some(d) => assert_eq!(d, exact, "{} bound={bound}", backend.name()),
        None => assert!(
            exact > bound,
            "{} abandoned at exact={exact}",
            backend.name()
        ),
    }
    let exact_masked = naive_hamming_masked(a, b, m);
    assert_eq!(
        backend.bounded_distance_masked(a, b, m, usize::MAX),
        Some(exact_masked),
        "{} unbounded masked",
        backend.name()
    );
    match backend.bounded_distance_masked(a, b, m, bound) {
        Some(d) => assert_eq!(d, exact_masked, "{} masked bound={bound}", backend.name()),
        None => assert!(exact_masked > bound, "{} masked abandon", backend.name()),
    }
}

proptest! {
    /// Every enabled backend honours the bounded-distance contract on
    /// random words and bounds (including bound 0 and bounds near exact).
    #[test]
    fn backends_honour_the_bounded_contract(
        d in dims(),
        s1 in any::<u64>(),
        s2 in any::<u64>(),
        s3 in any::<u64>(),
        tightness in 0usize..4,
    ) {
        let (a, b, m) = (words(d, s1), words(d, s2), words(d, s3));
        let exact = naive_hamming(&a, &b);
        let bound = match tightness {
            0 => 0,
            1 => exact / 2,
            2 => exact.saturating_sub(1),
            _ => exact + 1,
        };
        for backend in enabled_backends() {
            check_contract(backend, &a, &b, &m, bound);
        }
    }

    /// Every backend × strategy scan reports exactly what the naive
    /// reference reports, masked and unmasked.
    #[test]
    fn every_backend_and_strategy_match_the_naive_scan(
        c in 1usize..40,
        d in dims(),
        seed in any::<u64>(),
        near in any::<bool>(),
    ) {
        let (packed, query) = packed_memory(c, d, seed, near);
        let mask = words(d, seed ^ 0xA5A5);
        let plain: Vec<usize> = (0..c)
            .map(|r| naive_hamming(packed.row_words(r), &query))
            .collect();
        let masked: Vec<usize> = (0..c)
            .map(|r| naive_hamming_masked(packed.row_words(r), &query, &mask))
            .collect();
        let (best, best_distance, runner_up) = naive_min2(&plain);
        let (mbest, mbest_distance, mrunner_up) = naive_min2(&masked);
        for backend in enabled_backends() {
            for strategy in STRATEGIES {
                let hit = packed
                    .scan_min2_with(backend, strategy, &query, None, 0..c)
                    .unwrap();
                prop_assert_eq!(hit.best, best, "{} {:?}", backend.name(), strategy);
                prop_assert_eq!(hit.best_distance, best_distance);
                prop_assert_eq!(hit.runner_up, runner_up);
                let hit = packed
                    .scan_min2_with(backend, strategy, &query, Some(&mask), 0..c)
                    .unwrap();
                prop_assert_eq!(hit.best, mbest, "{} {:?} masked", backend.name(), strategy);
                prop_assert_eq!(hit.best_distance, mbest_distance);
                prop_assert_eq!(hit.runner_up, mrunner_up);
            }
        }
    }

    /// Sub-range scans agree with the naive reference restricted to the
    /// same range, for every backend × strategy.
    #[test]
    fn ranged_scans_match_on_every_backend(
        c in 2usize..40,
        d in dims(),
        seed in any::<u64>(),
        lo in 0usize..40,
        span in 0usize..40,
    ) {
        let (packed, query) = packed_memory(c, d, seed, false);
        let lo = lo % c;
        let hi = (lo + 1 + span % c).min(c);
        let naive: Vec<usize> = (lo..hi)
            .map(|r| naive_hamming(packed.row_words(r), &query))
            .collect();
        let (best, best_distance, runner_up) = naive_min2(&naive);
        for backend in enabled_backends() {
            for strategy in STRATEGIES {
                let hit = packed
                    .scan_min2_with(backend, strategy, &query, None, lo..hi)
                    .unwrap();
                prop_assert_eq!(hit.best, lo + best, "{} {:?}", backend.name(), strategy);
                prop_assert_eq!(hit.best_distance, best_distance);
                prop_assert_eq!(hit.runner_up, runner_up);
            }
        }
    }
}

/// A large planted shape (160 × 2,500 bits, four near-duplicates of the
/// query among random rows, so pruning and abandonment actually fire),
/// with a bucket index and a bit-sliced mirror attached: every backend ×
/// strategy — `Auto` resolving against the index included — must match
/// the naive reference on both the nearest-row scan and the top-k
/// ranking. Deterministic — proptest shrinking on this memory would be
/// slow for no gain.
#[test]
fn large_planted_shape_matches_the_naive_scan_on_every_backend_and_strategy() {
    let d = 2_500usize;
    let dim = Dimension::new(d).unwrap();
    let base = Hypervector::random(dim, 77);
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(78)
    };
    let mut packed = PackedRows::with_capacity(d, 160);
    for i in 0..160u64 {
        let row = if i % 40 == 7 {
            base.with_flipped_bits(10 + i as usize % 5, &mut rng)
        } else {
            Hypervector::random(dim, 500 + i)
        };
        packed.push(row.as_bitvec().as_words());
    }
    let query = base.with_flipped_bits(6, &mut rng);
    let query = query.as_bitvec().as_words();
    let naive: Vec<usize> = (0..160)
        .map(|r| naive_hamming(packed.row_words(r), query))
        .collect();
    let (best, best_distance, runner_up) = naive_min2(&naive);
    let mut naive_ranked: Vec<(usize, usize)> = naive.iter().copied().enumerate().collect();
    naive_ranked.sort_by_key(|&(row, distance)| (distance, row));
    naive_ranked.truncate(5);
    let sliced = BitSlicedRows::from_packed(&packed);
    for backend in enabled_backends() {
        let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        for strategy in STRATEGIES
            .into_iter()
            .chain([ScanStrategy::Indexed, ScanStrategy::BitSliced])
        {
            let hit = packed
                .scan_min2_planned_sliced(
                    backend,
                    strategy,
                    Some(&index),
                    Some(&sliced),
                    query,
                    None,
                    0..160,
                    None,
                    None,
                )
                .unwrap();
            assert_eq!(
                (hit.best, hit.best_distance, hit.runner_up),
                (best, best_distance, runner_up),
                "{} {:?}",
                backend.name(),
                strategy
            );
            let mut ranked = Vec::new();
            packed.top_k_planned_sliced(
                backend,
                strategy,
                Some(&index),
                Some(&sliced),
                query,
                0..160,
                5,
                &mut ranked,
                None,
            );
            assert_eq!(
                ranked,
                naive_ranked,
                "top-k {} {:?}",
                backend.name(),
                strategy
            );
        }
    }
}

/// Wraps a backend and counts every distance call routed through it.
#[derive(Debug)]
struct Counting {
    inner: &'static dyn DistanceBackend,
    calls: AtomicUsize,
}

impl DistanceBackend for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bounded_distance(&self, a: &[u64], b: &[u64], bound: usize) -> Option<usize> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.bounded_distance(a, b, bound)
    }

    fn bounded_distance_masked(
        &self,
        a: &[u64],
        b: &[u64],
        mask: &[u64],
        bound: usize,
    ) -> Option<usize> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.bounded_distance_masked(a, b, mask, bound)
    }
}

/// The planned top-k scans must rank through the backend they are
/// handed, not the process-wide one — otherwise every "backend × top-k"
/// equivalence cell silently tests the detected backend under each
/// backend's name. The direct ranking (also what the cascade ranks
/// with) scores each row of the range exactly once.
#[test]
fn planned_top_k_ranks_through_the_given_backend() {
    let (packed, query) = packed_memory(37, 700, 5, true);
    for inner in enabled_backends() {
        for strategy in [
            ScanStrategy::Direct,
            ScanStrategy::Cascade,
            ScanStrategy::Auto,
        ] {
            let counting = Counting {
                inner,
                calls: AtomicUsize::new(0),
            };
            let mut ranked = Vec::new();
            packed.top_k_planned(
                &counting,
                strategy,
                None,
                &query,
                3..30,
                4,
                &mut ranked,
                None,
            );
            assert_eq!(ranked, packed.top_k_range(&query, 3..30, 4));
            assert_eq!(
                counting.calls.load(Ordering::Relaxed),
                27,
                "{} {strategy:?}",
                inner.name()
            );
        }
        let counting = Counting {
            inner,
            calls: AtomicUsize::new(0),
        };
        let index = BucketIndex::build(&packed, inner, IndexBuildOptions::default()).unwrap();
        let mut ranked = Vec::new();
        packed.top_k_planned(
            &counting,
            ScanStrategy::Indexed,
            Some(&index),
            &query,
            0..37,
            4,
            &mut ranked,
            None,
        );
        assert_eq!(ranked, packed.top_k_range(&query, 0..37, 4));
        assert!(counting.calls.load(Ordering::Relaxed) >= index.buckets());
    }
}
