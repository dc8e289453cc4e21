//! Two-level coarse-quantized index over [`PackedRows`] — exact
//! sublinear search.
//!
//! The linear scan is O(C·D) no matter how good the kernels are
//! (DESIGN.md §9/§12). Following MEMHD's multi-centroid associative
//! memory, this module clusters the `C` stored rows into `B ≈ √C`
//! buckets, each summarized by one **bundled-centroid hypervector** (the
//! per-bit majority of its members, the classic HD bundling operation)
//! plus the bucket's **radius** — the maximum Hamming distance from any
//! member to its centroid.
//!
//! A query then scans the `B` centroids first and walks buckets in
//! ascending lower-bound order, running the exact member scan only
//! inside buckets that survive the triangle-inequality Hamming bound
//!
//! ```text
//! d(q, row) ≥ d(q, centroid) − d(centroid, row) ≥ d(q, centroid) − radius
//! ```
//!
//! A bucket whose bound strictly exceeds the current runner-up provably
//! cannot change the winner *or* the runner-up, so pruning keeps the
//! result **bit-identical** to the linear scan (proof sketch in
//! DESIGN.md §14). The masked variant stays sound because a masked
//! distance never exceeds the full-dimension distance, so the
//! full-dimension radius still dominates `d_M(centroid, row)`.
//!
//! The build seeds its medoids farthest-first over a seeded row sample,
//! so separated clusters each get a bucket, then walks a fixed set of
//! seeded pilot queries through the exact walk and records their mean
//! work ([`IndexStats::pilot_work`]) — the measurement
//! [`ScanStrategy::Auto`] resolves against (DESIGN.md §12).
//!
//! An explicit probe mode ([`ScanStrategy::Probe`]) visits only the
//! `nprobe` buckets closest by centroid distance — approximate, with
//! recall measured in the bench (`BENCH_search.json` `index_scaling`),
//! mirroring the paper's sampling knobs.
//!
//! [`ScanStrategy::Probe`]: super::ScanStrategy::Probe
//! [`ScanStrategy::Auto`]: super::ScanStrategy::Auto

use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::Range;

use super::{splitmix64, DistanceBackend, Min2, PackedRows, RowSource};

/// Seed for the deterministic medoid initialization and majority
/// tie-breaks (arbitrary constant; fixed so index builds are
/// reproducible across runs and processes).
pub const INDEX_SEED: u64 = 0x4841_4D5F_4258_4944;

/// Sample rows per bucket the farthest-first seeding scans. A uniform
/// sample of `8·B` rows misses a given one of `B` equal clusters with
/// probability ≈ e⁻⁸, so every cluster is in the pool to be seeded.
const SEED_ROWS_PER_BUCKET: usize = 8;

/// Salt separating the row-sample draws from the tie-break draws of the
/// same seed.
const SAMPLE_SALT: u64 = 0x5341_4D50_4C45_0000;

/// Pilot queries the build walks through the exact bucket walk to
/// measure [`IndexStats::pilot_work`].
pub const PILOT_QUERIES: usize = 16;

/// Bits flipped in each pilot query relative to the stored row it is
/// drawn from: a query that lands near the data, as real queries do.
const PILOT_FLIPS: usize = 8;

/// Seed of the pilot draws. Fixed — not [`IndexBuildOptions::seed`] —
/// so [`BucketIndex::from_parts`], which never sees the build options,
/// walks the very same pilots and reaches the same `Auto` decision.
const PILOT_SEED: u64 = 0x4841_4D5F_5049_4C54;

thread_local! {
    /// Per-thread `(sort key, lower bound, bucket)` scratch for the
    /// bucket walk, so an indexed scan allocates nothing after the
    /// first call on a thread.
    static BUCKET_SCRATCH: RefCell<Vec<(usize, usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Observability counters for one scan: how much work the bucket
/// pruning actually saved. All strategies fill `rows_scanned`; only
/// indexed walks fill the bucket fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanCounters {
    /// Buckets whose members were visited (had at least one in-range
    /// member and survived the radius bound).
    pub buckets_probed: u64,
    /// Rows handed to the distance backend (including rows the backend
    /// abandoned early under its bound).
    pub rows_scanned: u64,
    /// Rows never touched: members of buckets pruned by the radius
    /// bound, or outside the probed set in [`Probe`] mode.
    ///
    /// [`Probe`]: super::ScanStrategy::Probe
    pub rows_pruned: u64,
    /// Rows dropped wholesale by the bit-sliced columnwise group bound
    /// ([`BitSlicedRows`]) — kept distinct from `rows_pruned` so
    /// telemetry can tell columnwise pruning from bucket pruning.
    ///
    /// [`BitSlicedRows`]: super::bitsliced::BitSlicedRows
    pub rows_group_pruned: u64,
}

impl ScanCounters {
    /// Folds another scan's counters into this one (saturating, so
    /// long-lived aggregates never wrap).
    pub fn absorb(&mut self, other: ScanCounters) {
        self.buckets_probed = self.buckets_probed.saturating_add(other.buckets_probed);
        self.rows_scanned = self.rows_scanned.saturating_add(other.rows_scanned);
        self.rows_pruned = self.rows_pruned.saturating_add(other.rows_pruned);
        self.rows_group_pruned = self
            .rows_group_pruned
            .saturating_add(other.rows_group_pruned);
    }
}

/// Shape summary of a built [`BucketIndex`], including the measured
/// pilot work [`ScanStrategy::Auto`] resolves against (see
/// [`IndexStats::pilot_work_frac`]).
///
/// [`ScanStrategy::Auto`]: super::ScanStrategy::Auto
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Number of (non-empty at build time) buckets, `B`.
    pub buckets: usize,
    /// Number of indexed rows, `C`.
    pub rows: usize,
    /// Mean over buckets of the max member↔centroid distance.
    pub mean_radius: usize,
    /// Largest bucket radius.
    pub max_radius: usize,
    /// Mean distance evaluations — centroids plus member rows — of the
    /// exact walk over the [`PILOT_QUERIES`] seeded pilot queries
    /// (stored rows with a few seeded bit flips), rounded up. Measured
    /// at build and at [`BucketIndex::from_parts`]; incremental
    /// [`assign_row`](BucketIndex::assign_row) mutations leave it as
    /// built until the owner rebuilds.
    pub pilot_work: usize,
}

impl IndexStats {
    /// [`pilot_work`](Self::pilot_work) as a fraction of the row count:
    /// the share of a direct scan's distance work one exact indexed
    /// query costs. Above 1 the walk does more work than the scan it
    /// replaces; 1 for an empty index.
    pub fn pilot_work_frac(&self) -> f64 {
        match self.rows {
            0 => 1.0,
            rows => self.pilot_work as f64 / rows as f64,
        }
    }
}

/// Knobs of [`BucketIndex::build`]. The defaults are what
/// `ensure_indexed` (ham-core) and the serving paths use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexBuildOptions {
    /// Bucket count `B`; `0` picks `⌈√C⌉`, the classic IVF balance
    /// point where centroid scan and bucket scan cost the same.
    pub buckets: usize,
    /// Seed for medoid initialization and majority tie-breaks.
    pub seed: u64,
    /// Bundling refinement passes (assign a sample, recenter each
    /// bucket to the per-bit majority of its sample members).
    pub refine_passes: usize,
    /// Rows sampled per bucket per refinement pass (clamped to ≥ 1);
    /// the full matrix is only walked once, in the final assignment.
    pub sample_per_bucket: usize,
}

impl Default for IndexBuildOptions {
    fn default() -> Self {
        IndexBuildOptions {
            buckets: 0,
            seed: INDEX_SEED,
            refine_passes: 1,
            sample_per_bucket: 32,
        }
    }
}

/// The two-level index: per-bucket sorted member lists over the
/// original row numbering (rows are never re-packed), one bundled
/// centroid row per bucket, and per-bucket radii.
///
/// An index is built against one specific [`PackedRows`] snapshot; the
/// scan entry points assert that the matrix they are handed has the
/// row count the index was built for. Incremental mutation goes
/// through [`assign_row`](Self::assign_row) (reassign-on-add — radii
/// only grow, which keeps the bound sound but loosens it, tracked by
/// [`dirty`](Self::dirty) until the owner rebuilds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketIndex {
    centroids: PackedRows,
    radii: Vec<usize>,
    members: Vec<Vec<u32>>,
    assignments: Vec<u32>,
    dirty: usize,
    stats: IndexStats,
}

/// Ceiling integer square root (Newton), the `B = ⌈√C⌉` default.
fn ceil_sqrt(n: usize) -> usize {
    if n < 2 {
        return n;
    }
    let mut x = n;
    let mut y = x.div_ceil(2);
    while y < x {
        x = y;
        y = (x + n / x) / 2;
    }
    if x * x < n {
        x + 1
    } else {
        x
    }
}

/// Nearest centroid of `row` with early abandonment: `(bucket,
/// distance)`, ties to the lowest bucket.
fn nearest(centroids: &PackedRows, backend: &dyn DistanceBackend, row: &[u64]) -> (usize, usize) {
    let mut best = 0usize;
    let mut best_distance = usize::MAX;
    for (bucket, centroid) in centroids.iter_rows().enumerate() {
        if best_distance == 0 {
            break;
        }
        // Only a strict improvement matters, so the backend may abandon
        // at `best_distance - 1`; abandonment is optional, so a `Some`
        // above the bound must still be filtered.
        if let Some(distance) = backend.bounded_distance(centroid, row, best_distance - 1) {
            if distance < best_distance {
                best = bucket;
                best_distance = distance;
            }
        }
    }
    (best, best_distance)
}

impl BucketIndex {
    /// Builds an index over `packed`: a seeded row sample, farthest-first
    /// medoids over its first `8·B` rows, `refine_passes` rounds of
    /// sampled assign-and-rebundle (per-bit majority recentering, the
    /// k-medoids analogue in Hamming space), then one full assignment
    /// pass that fixes memberships and radii. Empty buckets are
    /// compacted away, and the pilot walk fills
    /// [`IndexStats::pilot_work`].
    ///
    /// Deterministic for a given `(packed, options.seed)` on every
    /// backend (backends are bit-identical). Returns `None` for an
    /// empty matrix.
    pub fn build(
        packed: &PackedRows,
        backend: &dyn DistanceBackend,
        options: IndexBuildOptions,
    ) -> Option<BucketIndex> {
        let rows = packed.len();
        if rows == 0 {
            return None;
        }
        let dim = packed.dim();
        let wpr = packed.words_per_row();
        let target = match options.buckets {
            0 => ceil_sqrt(rows).max(1),
            b => b,
        }
        .min(rows);

        // A seeded sample of distinct rows (partial Fisher–Yates). Not a
        // stride: rows dealt round-robin to clusters would alias with
        // any fixed step and hide every cluster off the step's residue.
        let want = target
            .saturating_mul(options.sample_per_bucket.max(1))
            .min(rows)
            .max(1);
        let mut sample: Vec<u32> = (0..rows as u32).collect();
        for k in 0..want {
            let pick = k
                + (splitmix64(options.seed ^ SAMPLE_SALT ^ k as u64) % (rows - k) as u64) as usize;
            sample.swap(k, pick);
        }
        sample.truncate(want);

        // Farthest-first (k-center greedy) medoids over a contiguous copy
        // of the sample's head: every new medoid is the pool row farthest
        // from all medoids so far, so separated clusters each get one
        // before any cluster gets a second.
        let pool_len = want.min(target.saturating_mul(SEED_ROWS_PER_BUCKET));
        let mut pool = PackedRows::with_capacity(dim, pool_len);
        for &row_id in &sample[..pool_len] {
            pool.push(packed.row_words(row_id as usize));
        }
        let mut centroids = farthest_first(&pool, target, backend);
        let target = centroids.len();
        sample.sort_unstable();

        // Sampled refinement: assign the sample, then recenter every
        // bucket to the per-bit majority of its sample members
        // (bundling). Seeded tie-break at exact half.
        let mut word_buf = vec![0u64; wpr];
        for _ in 0..options.refine_passes {
            let mut counts = vec![0u32; target * dim];
            let mut sizes = vec![0u32; target];
            for &row_id in &sample {
                let row = packed.row_words(row_id as usize);
                let (bucket, _) = nearest(&centroids, backend, row);
                sizes[bucket] += 1;
                // Branchless per-bit adds over contiguous counters: dense
                // rows set half their bits, so this beats walking the set
                // bits one by one.
                let bucket_counts = &mut counts[bucket * dim..(bucket + 1) * dim];
                for (lane, &word) in bucket_counts.chunks_mut(64).zip(row) {
                    for (bit, count) in lane.iter_mut().enumerate() {
                        *count += ((word >> bit) & 1) as u32;
                    }
                }
            }
            let mut next = PackedRows::with_capacity(dim, target);
            for (bucket, &bucket_size) in sizes.iter().enumerate() {
                if bucket_size == 0 {
                    next.push(centroids.row_words(bucket));
                    continue;
                }
                word_buf.iter_mut().for_each(|w| *w = 0);
                let size = u64::from(bucket_size);
                let base = bucket * dim;
                for (bit, &count) in counts[base..base + dim].iter().enumerate() {
                    let set = match (2 * u64::from(count)).cmp(&size) {
                        Ordering::Greater => true,
                        Ordering::Less => false,
                        Ordering::Equal => {
                            splitmix64(options.seed ^ ((bucket as u64) << 32) ^ bit as u64) & 1 == 1
                        }
                    };
                    if set {
                        word_buf[bit / 64] |= 1 << (bit % 64);
                    }
                }
                next.push(&word_buf);
            }
            centroids = next;
        }

        // Final full assignment fixes memberships and radii.
        let mut assignments = vec![0u32; rows];
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); target];
        let mut radii = vec![0usize; target];
        for (row_id, slot) in assignments.iter_mut().enumerate() {
            let (bucket, distance) = nearest(&centroids, backend, packed.row_words(row_id));
            *slot = bucket as u32;
            members[bucket].push(row_id as u32);
            radii[bucket] = radii[bucket].max(distance);
        }

        // Compact empty buckets out.
        let keep: Vec<usize> = (0..target).filter(|&b| !members[b].is_empty()).collect();
        if keep.len() < target {
            let mut remap = vec![u32::MAX; target];
            let mut kept_centroids = PackedRows::with_capacity(dim, keep.len());
            let mut kept_members = Vec::with_capacity(keep.len());
            let mut kept_radii = Vec::with_capacity(keep.len());
            for (new_id, &old) in keep.iter().enumerate() {
                remap[old] = new_id as u32;
                kept_centroids.push(centroids.row_words(old));
                kept_members.push(std::mem::take(&mut members[old]));
                kept_radii.push(radii[old]);
            }
            for a in &mut assignments {
                *a = remap[*a as usize];
            }
            centroids = kept_centroids;
            members = kept_members;
            radii = kept_radii;
        }

        Some(
            BucketIndex {
                centroids,
                radii,
                members,
                assignments,
                dirty: 0,
                stats: IndexStats::default(),
            }
            .with_stats(packed, backend),
        )
    }

    /// Reassembles an index over `packed` from its serialized parts (the
    /// snapshot loader's entry point). Shape is validated — bucket/radius
    /// count match, one assignment per row of `packed`, every assignment
    /// in range, radii within `dim`, same row width — and member lists
    /// and stats are recomputed, the pilot walk included, so the `Auto`
    /// decision matches the one a fresh build reaches on the same parts. `None` means the parts are
    /// inconsistent and the caller should treat the memory as unindexed.
    pub fn from_parts(
        centroids: PackedRows,
        radii: Vec<usize>,
        assignments: Vec<u32>,
        dirty: usize,
        packed: &dyn RowSource,
        backend: &dyn DistanceBackend,
    ) -> Option<BucketIndex> {
        let buckets = centroids.len();
        if radii.len() != buckets {
            return None;
        }
        if buckets == 0 && !assignments.is_empty() {
            return None;
        }
        if radii.iter().any(|&r| r > centroids.dim()) {
            return None;
        }
        if assignments.len() != packed.len() || centroids.words_per_row() != packed.words_per_row()
        {
            return None;
        }
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); buckets];
        for (row, &bucket) in assignments.iter().enumerate() {
            if bucket as usize >= buckets {
                return None;
            }
            members[bucket as usize].push(row as u32);
        }
        Some(
            BucketIndex {
                centroids,
                radii,
                members,
                assignments,
                dirty,
                stats: IndexStats::default(),
            }
            .with_stats(packed, backend),
        )
    }

    /// Fills the stats: the radius summary, and [`IndexStats::pilot_work`]
    /// — the mean distance evaluations (centroids + rows scanned) of the
    /// exact walk over [`PILOT_QUERIES`] pilots, each a seeded stored row
    /// with [`PILOT_FLIPS`] seeded bit flips. Rows scanned do not depend
    /// on the backend (abandonment never changes the walk), so neither
    /// does the result.
    fn with_stats(mut self, packed: &dyn RowSource, backend: &dyn DistanceBackend) -> Self {
        let rows = self.rows();
        self.stats = IndexStats {
            buckets: self.buckets(),
            rows,
            ..IndexStats::default()
        };
        self.summarize_radii();
        if rows == 0 {
            return self;
        }
        let dim = self.centroids.dim();
        let mut query = vec![0u64; packed.words_per_row()];
        let mut work = 0usize;
        for pilot in 0..PILOT_QUERIES as u64 {
            let row = (splitmix64(PILOT_SEED ^ pilot) % rows as u64) as usize;
            query.copy_from_slice(packed.row_words(row));
            for flip in 0..PILOT_FLIPS as u64 {
                let bit =
                    (splitmix64(PILOT_SEED ^ (pilot << 32) ^ (flip + 1)) % dim as u64) as usize;
                query[bit / 64] ^= 1 << (bit % 64);
            }
            let mut counters = ScanCounters::default();
            self.scan_min2(
                packed,
                backend,
                &query,
                None,
                0..rows,
                None,
                Some(&mut counters),
            );
            work += self.buckets() + counters.rows_scanned as usize;
        }
        self.stats.pilot_work = work.div_ceil(PILOT_QUERIES);
        self
    }

    /// Number of buckets, `B`.
    pub fn buckets(&self) -> usize {
        self.centroids.len()
    }

    /// Number of indexed rows, `C`.
    pub fn rows(&self) -> usize {
        self.assignments.len()
    }

    /// The bundled-centroid matrix (`B` rows, same width as the
    /// indexed matrix).
    pub fn centroids(&self) -> &PackedRows {
        &self.centroids
    }

    /// Per-bucket max member↔centroid distance.
    pub fn radii(&self) -> &[usize] {
        &self.radii
    }

    /// Row → bucket map over the indexed matrix.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Ascending member rows of `bucket`.
    pub fn members(&self, bucket: usize) -> &[u32] {
        &self.members[bucket]
    }

    /// Bucket of `row`.
    pub fn bucket_of(&self, row: usize) -> usize {
        self.assignments[row] as usize
    }

    /// Shape summary (radii, pilot work) — what
    /// [`ScanStrategy::Auto`](super::ScanStrategy::Auto) reads.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Incremental mutations absorbed since the last full build. The
    /// owner's rebuild policy (`ensure_indexed` in ham-core) compares
    /// this against the row count.
    pub fn dirty(&self) -> usize {
        self.dirty
    }

    /// Absorbs one appended or replaced row: assigns it to its nearest
    /// centroid, grows that bucket's radius if needed, and (for a
    /// replacement) drops the old membership. Radii never shrink and
    /// centroids never move here, so the triangle bound stays sound —
    /// just looser — until a rebuild; every mutation bumps
    /// [`dirty`](Self::dirty).
    ///
    /// Call *after* mutating `packed`. `row` must be an existing row
    /// or the one just appended.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range, skips ahead of the indexed
    /// rows, or `packed` has a different row width.
    pub fn assign_row(
        &mut self,
        packed: &dyn RowSource,
        backend: &dyn DistanceBackend,
        row: usize,
    ) {
        assert!(row < packed.len(), "row {row} out of range");
        assert!(
            row <= self.assignments.len(),
            "rows must be appended in order"
        );
        assert_eq!(
            self.centroids.words_per_row(),
            packed.words_per_row(),
            "index row width mismatch"
        );
        let (bucket, distance) = nearest(&self.centroids, backend, packed.row_words(row));
        if row < self.assignments.len() {
            let old = self.assignments[row] as usize;
            let old_members = &mut self.members[old];
            if let Ok(at) = old_members.binary_search(&(row as u32)) {
                old_members.remove(at);
            }
            self.assignments[row] = bucket as u32;
        } else {
            self.assignments.push(bucket as u32);
        }
        let members = &mut self.members[bucket];
        if let Err(at) = members.binary_search(&(row as u32)) {
            members.insert(at, row as u32);
        }
        self.radii[bucket] = self.radii[bucket].max(distance);
        self.dirty += 1;
        self.stats.rows = self.assignments.len();
        self.summarize_radii();
    }

    /// Refreshes the radius fields of the stats.
    fn summarize_radii(&mut self) {
        self.stats.max_radius = self.radii.iter().copied().max().unwrap_or(0);
        self.stats.mean_radius = match self.radii.len() {
            0 => 0,
            n => self.radii.iter().sum::<usize>() / n,
        };
    }

    /// Members of `bucket` that fall inside the global row `range`.
    fn members_in(&self, bucket: usize, range: &Range<usize>) -> &[u32] {
        let members = &self.members[bucket];
        let lo = members.partition_point(|&m| (m as usize) < range.start);
        let hi = members.partition_point(|&m| (m as usize) < range.end);
        &members[lo..hi]
    }

    /// The indexed winner/runner-up scan over all buckets. With
    /// `nprobe: None` the result is bit-identical to
    /// [`PackedRows::scan_min2`]; `Some(n)` visits only the `n` buckets
    /// closest by centroid distance (approximate).
    ///
    /// Returns `None` when the range is empty, or when (in probe mode)
    /// no probed bucket intersects it.
    ///
    /// # Panics
    ///
    /// Panics if `packed` is not the matrix this index was built for
    /// (row count or width mismatch), `query`/`mask` have the wrong
    /// word count, or `range` exceeds the stored rows.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_min2(
        &self,
        packed: &dyn RowSource,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
        range: Range<usize>,
        nprobe: Option<usize>,
        counters: Option<&mut ScanCounters>,
    ) -> Option<Min2> {
        self.scan_min2_in(
            packed,
            backend,
            query,
            mask,
            range,
            0..self.buckets(),
            nprobe,
            counters,
        )
    }

    /// The per-shard kernel of a bucket-partitioned scatter-gather
    /// scan: an exact walk restricted to `bucket_range`, over the full
    /// row space. Each shard prunes against its own local runner-up
    /// (weaker than the serial bound, still sound), and because bucket
    /// ranges partition the rows, the partial results merge exactly
    /// through [`Min2::merge`].
    ///
    /// Returns `None` when no bucket in the range has members.
    pub fn scan_min2_buckets(
        &self,
        packed: &dyn RowSource,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
        bucket_range: Range<usize>,
        counters: Option<&mut ScanCounters>,
    ) -> Option<Min2> {
        if packed.is_empty() {
            return None;
        }
        self.scan_min2_in(
            packed,
            backend,
            query,
            mask,
            0..packed.len(),
            bucket_range,
            None,
            counters,
        )
    }

    /// Shared bucket walk. Exactness argument (full sketch in
    /// DESIGN.md §14):
    ///
    /// * a bucket is pruned only when `d(q, centroid) − radius`, a
    ///   sound lower bound on every member's distance, **strictly**
    ///   exceeds the running runner-up, which never increases — so
    ///   every pruned row's distance strictly exceeds the *final*
    ///   runner-up and can influence neither reported field;
    /// * in exact mode buckets are walked in ascending lower-bound
    ///   order, so the first prunable bucket proves all later ones
    ///   prunable and the walk stops;
    /// * best/runner-up are tracked by `(distance, row)`, making the
    ///   result independent of traversal order — bit-identical to the
    ///   direct scan's lowest-index tie-break.
    #[allow(clippy::too_many_arguments)]
    fn scan_min2_in(
        &self,
        packed: &dyn RowSource,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
        range: Range<usize>,
        bucket_range: Range<usize>,
        nprobe: Option<usize>,
        counters: Option<&mut ScanCounters>,
    ) -> Option<Min2> {
        self.check_scan(packed, query, mask, &range, &bucket_range);
        if range.is_empty() || bucket_range.is_empty() {
            return None;
        }
        let mut local = ScanCounters::default();
        let mut best = 0usize;
        let mut best_distance = usize::MAX;
        let mut runner_up = usize::MAX;
        BUCKET_SCRATCH.with(|cell| {
            let order = &mut *cell.borrow_mut();
            let limit = self.order_buckets(backend, query, mask, bucket_range, nprobe, order);
            for &(_, _, bucket) in &order[limit..] {
                local.rows_pruned += self.members_in(bucket, &range).len() as u64;
            }
            for position in 0..limit {
                let (_, lower, bucket) = order[position];
                let members = self.members_in(bucket, &range);
                if members.is_empty() {
                    continue;
                }
                if lower > runner_up {
                    if nprobe.is_none() {
                        // Exact walk: ordered by lower bound, so every
                        // remaining bucket is prunable too.
                        for &(_, _, later) in &order[position..limit] {
                            local.rows_pruned += self.members_in(later, &range).len() as u64;
                        }
                        break;
                    }
                    local.rows_pruned += members.len() as u64;
                    continue;
                }
                local.buckets_probed += 1;
                for &member in members {
                    let row_id = member as usize;
                    let row = packed.row_words(row_id);
                    let distance = match mask {
                        None => backend.bounded_distance(row, query, runner_up),
                        Some(mask) => backend.bounded_distance_masked(row, query, mask, runner_up),
                    };
                    local.rows_scanned += 1;
                    let Some(distance) = distance else { continue };
                    if (distance, row_id) < (best_distance, best) {
                        runner_up = runner_up.min(best_distance);
                        best = row_id;
                        best_distance = distance;
                    } else if distance < runner_up {
                        runner_up = distance;
                    }
                }
            }
        });
        if let Some(counters) = counters {
            counters.absorb(local);
        }
        (best_distance != usize::MAX).then_some(Min2 {
            best,
            best_distance,
            runner_up: (runner_up != usize::MAX).then_some(runner_up),
        })
    }

    /// The indexed ranked scan. With `nprobe: None` the buffer ends
    /// bit-identical to [`PackedRows::top_k_range_into`] — a bucket is
    /// pruned only when the list is full and the bucket's lower bound
    /// strictly exceeds the k-th distance, which never increases.
    ///
    /// # Panics
    ///
    /// Same contract as [`scan_min2`](Self::scan_min2).
    #[allow(clippy::too_many_arguments)]
    pub fn top_k_into(
        &self,
        packed: &dyn RowSource,
        backend: &dyn DistanceBackend,
        query: &[u64],
        range: Range<usize>,
        k: usize,
        nprobe: Option<usize>,
        counters: Option<&mut ScanCounters>,
        ranked: &mut Vec<(usize, usize)>,
    ) {
        let bucket_range = 0..self.buckets();
        self.check_scan(packed, query, None, &range, &bucket_range);
        ranked.clear();
        if k == 0 || range.is_empty() {
            return;
        }
        let mut local = ScanCounters::default();
        BUCKET_SCRATCH.with(|cell| {
            let order = &mut *cell.borrow_mut();
            let limit = self.order_buckets(backend, query, None, bucket_range, nprobe, order);
            for &(_, _, bucket) in &order[limit..] {
                local.rows_pruned += self.members_in(bucket, &range).len() as u64;
            }
            for position in 0..limit {
                let (_, lower, bucket) = order[position];
                let members = self.members_in(bucket, &range);
                if members.is_empty() {
                    continue;
                }
                let kth = match ranked.len() == k {
                    true => ranked.last().map_or(usize::MAX, |&(_, d)| d),
                    false => usize::MAX,
                };
                if lower > kth {
                    if nprobe.is_none() {
                        for &(_, _, later) in &order[position..limit] {
                            local.rows_pruned += self.members_in(later, &range).len() as u64;
                        }
                        break;
                    }
                    local.rows_pruned += members.len() as u64;
                    continue;
                }
                local.buckets_probed += 1;
                for &member in members {
                    let row_id = member as usize;
                    let row = packed.row_words(row_id);
                    let full = ranked.len() == k;
                    let bound = match full {
                        true => ranked.last().expect("full list is non-empty").1,
                        false => usize::MAX,
                    };
                    let distance = backend.bounded_distance(row, query, bound);
                    local.rows_scanned += 1;
                    let Some(distance) = distance else { continue };
                    if full {
                        let &(worst_row, worst_distance) =
                            ranked.last().expect("full list is non-empty");
                        if (distance, row_id) >= (worst_distance, worst_row) {
                            continue;
                        }
                        ranked.pop();
                    }
                    let at = ranked.partition_point(|&(r, d)| (d, r) < (distance, row_id));
                    ranked.insert(at, (row_id, distance));
                }
            }
        });
        if let Some(counters) = counters {
            counters.absorb(local);
        }
    }

    /// Scores every bucket in `bucket_range` against the query and
    /// sorts the scratch: by prunability lower bound for the exact
    /// walk, by centroid distance for probe mode. Returns how many
    /// leading entries the walk may visit.
    fn order_buckets(
        &self,
        backend: &dyn DistanceBackend,
        query: &[u64],
        mask: Option<&[u64]>,
        bucket_range: Range<usize>,
        nprobe: Option<usize>,
        order: &mut Vec<(usize, usize, usize)>,
    ) -> usize {
        order.clear();
        for bucket in bucket_range {
            let centroid = self.centroids.row_words(bucket);
            let dc = match mask {
                None => backend.bounded_distance(centroid, query, usize::MAX),
                Some(mask) => backend.bounded_distance_masked(centroid, query, mask, usize::MAX),
            }
            .expect("unbounded distance never abandons");
            let lower = dc.saturating_sub(self.radii[bucket]);
            let key = match nprobe {
                None => lower,
                Some(_) => dc,
            };
            order.push((key, lower, bucket));
        }
        order.sort_unstable();
        match nprobe {
            None => order.len(),
            Some(n) => n.max(1).min(order.len()),
        }
    }

    /// Common scan-entry validation.
    fn check_scan(
        &self,
        packed: &dyn RowSource,
        query: &[u64],
        mask: Option<&[u64]>,
        range: &Range<usize>,
        bucket_range: &Range<usize>,
    ) {
        assert_eq!(
            self.assignments.len(),
            packed.len(),
            "index does not cover the scanned matrix"
        );
        assert_eq!(
            self.centroids.words_per_row(),
            packed.words_per_row(),
            "index row width mismatch"
        );
        assert_eq!(
            query.len(),
            packed.words_per_row(),
            "query word count mismatch"
        );
        if let Some(mask) = mask {
            assert_eq!(
                mask.len(),
                packed.words_per_row(),
                "mask word count mismatch"
            );
        }
        assert!(range.end <= packed.len(), "row range out of bounds");
        assert!(
            bucket_range.end <= self.buckets(),
            "bucket range out of bounds"
        );
    }
}

/// Farthest-first (k-center greedy) selection of up to `target` medoids
/// from `pool`: the first pool row, then repeatedly the row farthest from
/// every medoid picked so far (ties to the lowest row). Stops early once
/// every pool row coincides with a medoid.
fn farthest_first(pool: &PackedRows, target: usize, backend: &dyn DistanceBackend) -> PackedRows {
    let mut medoids = PackedRows::with_capacity(pool.dim(), target);
    let mut gap = vec![usize::MAX; pool.len()];
    let mut next = 0usize;
    while medoids.len() < target {
        let medoid = pool.row_words(next);
        medoids.push(medoid);
        let mut farthest = (0usize, 0usize);
        for (row_id, row) in pool.iter_rows().enumerate() {
            // Only a strictly smaller distance moves the gap, so the
            // backend may abandon at `gap - 1`.
            if gap[row_id] > 0 {
                if let Some(distance) = backend.bounded_distance(row, medoid, gap[row_id] - 1) {
                    gap[row_id] = gap[row_id].min(distance);
                }
            }
            if gap[row_id] > farthest.0 {
                farthest = (gap[row_id], row_id);
            }
        }
        if farthest.0 == 0 {
            break;
        }
        next = farthest.1;
    }
    medoids
}

#[cfg(test)]
mod tests {
    use super::super::active_backend;
    use super::*;
    use crate::bitvec::BitVec;

    fn pseudo_bits(len: usize, salt: u64) -> BitVec {
        BitVec::from_bits((0..len).map(|i| splitmix64(salt ^ i as u64) & 1 == 1))
    }

    /// `clusters` planted centers, members flipped with ~`noise_pct`%.
    fn clustered(dim: usize, rows: usize, clusters: usize, noise_pct: usize) -> PackedRows {
        let mut out = PackedRows::with_capacity(dim, rows);
        let centers: Vec<BitVec> = (0..clusters)
            .map(|c| pseudo_bits(dim, 0xC0FFEE ^ c as u64))
            .collect();
        for r in 0..rows {
            let mut row = centers[r % clusters].clone();
            for i in 0..dim {
                if splitmix64(0xF00D ^ (r as u64) << 20 ^ i as u64) % 100 < noise_pct as u64 {
                    row.set(i, !row.get(i));
                }
            }
            out.push(row.as_words());
        }
        out
    }

    fn uniform(dim: usize, rows: usize) -> PackedRows {
        let mut out = PackedRows::with_capacity(dim, rows);
        for r in 0..rows {
            out.push(pseudo_bits(dim, 0xDEAD ^ r as u64).as_words());
        }
        out
    }

    #[test]
    fn build_is_deterministic_and_covers_every_row() {
        let packed = clustered(300, 64, 4, 5);
        let backend = active_backend();
        let a = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let b = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rows(), packed.len());
        let mut seen = vec![false; packed.len()];
        for bucket in 0..a.buckets() {
            assert!(!a.members(bucket).is_empty(), "empty buckets are compacted");
            for &m in a.members(bucket) {
                assert!(!seen[m as usize], "row in two buckets");
                seen[m as usize] = true;
                assert_eq!(a.bucket_of(m as usize), bucket);
            }
        }
        assert!(seen.iter().all(|&s| s), "lost rows");
    }

    #[test]
    fn radii_bound_every_member() {
        let packed = clustered(257, 50, 5, 10);
        let backend = active_backend();
        let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        for bucket in 0..index.buckets() {
            for &m in index.members(bucket) {
                let d = backend
                    .bounded_distance(
                        packed.row_words(m as usize),
                        index.centroids().row_words(bucket),
                        usize::MAX,
                    )
                    .unwrap();
                assert!(d <= index.radii()[bucket]);
            }
        }
    }

    #[test]
    fn exact_indexed_matches_linear_on_all_shapes() {
        let backend = active_backend();
        for (name, packed) in [
            ("clustered", clustered(300, 80, 4, 5)),
            ("uniform", uniform(130, 60)),
            ("tiny", clustered(65, 3, 1, 2)),
        ] {
            let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
            for salt in 0..8u64 {
                let query = pseudo_bits(packed.dim(), 0xAB ^ salt);
                let mask = pseudo_bits(packed.dim(), 0xCD ^ salt);
                let linear = packed.scan_min2(query.as_words());
                let mut counters = ScanCounters::default();
                let indexed = index.scan_min2(
                    &packed,
                    backend,
                    query.as_words(),
                    None,
                    0..packed.len(),
                    None,
                    Some(&mut counters),
                );
                assert_eq!(indexed, linear, "{name} plain salt {salt}");
                assert_eq!(
                    counters.rows_scanned + counters.rows_pruned,
                    packed.len() as u64,
                    "{name}: every row is scanned or pruned"
                );
                let linear_masked = packed.scan_min2_masked(query.as_words(), mask.as_words());
                let indexed_masked = index.scan_min2(
                    &packed,
                    backend,
                    query.as_words(),
                    Some(mask.as_words()),
                    0..packed.len(),
                    None,
                    None,
                );
                assert_eq!(indexed_masked, linear_masked, "{name} masked salt {salt}");
                let range = packed.len() / 4..packed.len() - 1;
                let linear_ranged = packed.scan_min2_range(query.as_words(), range.clone());
                let indexed_ranged =
                    index.scan_min2(&packed, backend, query.as_words(), None, range, None, None);
                assert_eq!(indexed_ranged, linear_ranged, "{name} ranged salt {salt}");
            }
        }
    }

    #[test]
    fn bucket_partition_merges_to_serial() {
        let packed = clustered(300, 80, 4, 5);
        let backend = active_backend();
        let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let query = pseudo_bits(300, 99);
        let serial = packed.scan_min2(query.as_words());
        for shards in 1..=index.buckets() + 1 {
            let chunk = index.buckets().div_ceil(shards).max(1);
            let parts = (0..shards).filter_map(|s| {
                let lo = (s * chunk).min(index.buckets());
                let hi = ((s + 1) * chunk).min(index.buckets());
                index.scan_min2_buckets(&packed, backend, query.as_words(), None, lo..hi, None)
            });
            assert_eq!(Min2::merge(parts), serial, "shards {shards}");
        }
    }

    #[test]
    fn top_k_matches_linear_and_probe_all_is_exact() {
        let packed = clustered(300, 60, 4, 8);
        let backend = active_backend();
        let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let query = pseudo_bits(300, 7);
        for k in [0usize, 1, 3, 60, 100] {
            let linear = packed.top_k_range(query.as_words(), 0..packed.len(), k);
            let mut ranked = Vec::new();
            index.top_k_into(
                &packed,
                backend,
                query.as_words(),
                0..packed.len(),
                k,
                None,
                None,
                &mut ranked,
            );
            assert_eq!(ranked, linear, "k {k}");
            index.top_k_into(
                &packed,
                backend,
                query.as_words(),
                0..packed.len(),
                k,
                Some(index.buckets()),
                None,
                &mut ranked,
            );
            assert_eq!(ranked, linear, "probe-all k {k}");
        }
    }

    #[test]
    fn probe_all_buckets_equals_exact_and_probe_one_probes_one() {
        let packed = clustered(300, 60, 4, 8);
        let backend = active_backend();
        let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let query = pseudo_bits(300, 11);
        let exact = index.scan_min2(
            &packed,
            backend,
            query.as_words(),
            None,
            0..packed.len(),
            None,
            None,
        );
        let probed = index.scan_min2(
            &packed,
            backend,
            query.as_words(),
            None,
            0..packed.len(),
            Some(index.buckets() + 5),
            None,
        );
        assert_eq!(probed, exact);
        let mut counters = ScanCounters::default();
        index.scan_min2(
            &packed,
            backend,
            query.as_words(),
            None,
            0..packed.len(),
            Some(1),
            Some(&mut counters),
        );
        assert_eq!(counters.buckets_probed, 1);
        assert_eq!(
            counters.rows_scanned + counters.rows_pruned,
            packed.len() as u64
        );
    }

    #[test]
    fn assign_row_keeps_membership_coherent_and_exact() {
        let mut packed = clustered(257, 40, 4, 5);
        let backend = active_backend();
        let mut index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        // Append rows, replace one, and verify exactness holds after
        // every mutation.
        for step in 0..6u64 {
            let row = pseudo_bits(257, 0xADD ^ step);
            if step % 3 == 2 {
                packed.replace(step as usize, row.as_words());
                index.assign_row(&packed, backend, step as usize);
            } else {
                let id = packed.push(row.as_words());
                index.assign_row(&packed, backend, id);
            }
            let query = pseudo_bits(257, 0xBEEF ^ step);
            assert_eq!(
                index.scan_min2(
                    &packed,
                    backend,
                    query.as_words(),
                    None,
                    0..packed.len(),
                    None,
                    None,
                ),
                packed.scan_min2(query.as_words()),
                "step {step}"
            );
        }
        assert_eq!(index.dirty(), 6);
        assert_eq!(index.rows(), packed.len());
        let mut seen = vec![0usize; packed.len()];
        for bucket in 0..index.buckets() {
            for &m in index.members(bucket) {
                seen[m as usize] += 1;
            }
        }
        assert!(
            seen.iter().all(|&s| s == 1),
            "each row in exactly one bucket"
        );
    }

    #[test]
    fn from_parts_round_trips_and_rejects_bad_shapes() {
        let packed = clustered(300, 30, 3, 5);
        let backend = active_backend();
        let index = BucketIndex::build(&packed, backend, IndexBuildOptions::default()).unwrap();
        let rebuilt = BucketIndex::from_parts(
            index.centroids().clone(),
            index.radii().to_vec(),
            index.assignments().to_vec(),
            index.dirty(),
            &packed,
            backend,
        )
        .unwrap();
        assert_eq!(rebuilt, index, "pilot work included");

        // Assignment past the bucket count.
        let mut bad = index.assignments().to_vec();
        bad[0] = index.buckets() as u32;
        assert!(BucketIndex::from_parts(
            index.centroids().clone(),
            index.radii().to_vec(),
            bad,
            0,
            &packed,
            backend,
        )
        .is_none());
        // Radius beyond the dimension.
        let mut bad_radii = index.radii().to_vec();
        bad_radii[0] = 301;
        assert!(BucketIndex::from_parts(
            index.centroids().clone(),
            bad_radii,
            index.assignments().to_vec(),
            0,
            &packed,
            backend,
        )
        .is_none());
        // Radius/bucket count mismatch.
        assert!(BucketIndex::from_parts(
            index.centroids().clone(),
            vec![0; index.buckets() + 1],
            index.assignments().to_vec(),
            0,
            &packed,
            backend,
        )
        .is_none());
        // Parts that do not cover the rows they are attached to.
        let shorter = clustered(300, 29, 3, 5);
        assert!(BucketIndex::from_parts(
            index.centroids().clone(),
            index.radii().to_vec(),
            index.assignments().to_vec(),
            0,
            &shorter,
            backend,
        )
        .is_none());
    }

    #[test]
    fn pilot_work_separates_clustered_from_uniform() {
        use super::super::{ResolvedScan, ScanStrategy, AUTO_INDEXED_MAX_WORK};
        let backend = active_backend();
        let dim = 2048;
        let clustered = clustered(dim, 256, 4, 2);
        let uniform = uniform(dim, 256);
        let ci = BucketIndex::build(&clustered, backend, IndexBuildOptions::default()).unwrap();
        let ui = BucketIndex::build(&uniform, backend, IndexBuildOptions::default()).unwrap();
        assert!(
            ci.stats().pilot_work_frac() < AUTO_INDEXED_MAX_WORK,
            "clustered pilots should walk few rows: {:?}",
            ci.stats()
        );
        assert!(
            ui.stats().pilot_work_frac() > 1.0,
            "uniform pilots walk every row plus the centroids: {:?}",
            ui.stats()
        );
        assert_eq!(
            ScanStrategy::Auto.resolve(Some(&ci)),
            ResolvedScan::Indexed { nprobe: None }
        );
        assert_eq!(ScanStrategy::Auto.resolve(Some(&ui)), ResolvedScan::Direct);
    }

    #[test]
    fn farthest_first_seeds_one_medoid_per_separated_cluster() {
        // Eight clusters dealt round-robin with ~2% noise: eight seeds
        // land in eight different clusters, and a build with one bucket
        // per cluster keeps every bucket pure.
        let backend = active_backend();
        let packed = clustered(512, 64, 8, 2);
        let seeds = farthest_first(&packed, 8, backend);
        let mut hit = [false; 8];
        for seed in seeds.iter_rows() {
            let row = (0..packed.len())
                .find(|&r| packed.row_words(r) == seed)
                .unwrap();
            assert!(!hit[row % 8], "two seeds in cluster {}", row % 8);
            hit[row % 8] = true;
        }
        let options = IndexBuildOptions {
            buckets: 8,
            ..IndexBuildOptions::default()
        };
        let index = BucketIndex::build(&packed, backend, options).unwrap();
        assert_eq!(index.buckets(), 8);
        for bucket in 0..8 {
            let cluster = index.members(bucket)[0] % 8;
            assert!(index.members(bucket).iter().all(|&m| m % 8 == cluster));
        }
        // Duplicate rows stop the seeding early instead of picking the
        // same medoid twice.
        let mut twins = PackedRows::new(64);
        for _ in 0..5 {
            twins.push(&[0xF0F0]);
        }
        assert_eq!(farthest_first(&twins, 3, backend).len(), 1);
    }

    #[test]
    fn default_bucket_count_is_the_ceiling_square_root() {
        for (n, root) in [
            (0, 0),
            (1, 1),
            (2, 2),
            (4, 2),
            (5, 3),
            (512, 23),
            (2_048, 46),
        ] {
            assert_eq!(ceil_sqrt(n), root, "n = {n}");
        }
        assert_eq!(ceil_sqrt(16_384), 128);
    }

    #[test]
    fn empty_matrix_builds_nothing() {
        let packed = PackedRows::new(100);
        assert!(
            BucketIndex::build(&packed, active_backend(), IndexBuildOptions::default()).is_none()
        );
    }
}
