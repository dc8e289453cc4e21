//! The near-duplicate similarity-search scenario: many tight clusters of
//! planted near-duplicates packed close together, queried with even
//! smaller perturbations and scored on recall@k — the RRAM in-memory
//! similarity-search shape.
//!
//! Cluster radii are a few dozen bits while cluster centers sit a few
//! hundred bits apart (around a common base), so a query's own cluster
//! is far nearer than any other. The default index build recovers one
//! bucket per cluster (farthest-first seeding over a seeded row sample),
//! the exact bucket walk then scans the centroids plus the query's own
//! bucket, and the build's pilot walk measures that as a few percent of
//! the rows ([`IndexStats::pilot_work_frac`]) — so
//! [`ScanStrategy::Auto`] resolves to the indexed walk here.
//!
//! Rows are dealt to clusters round-robin, so any strided row sample
//! aliases with the cluster count; the index build samples without a
//! stride for exactly this reason.

use hdc::prelude::*;
use hdc::{IndexBuildOptions, IndexStats};

use crate::synth::noisy_copy;
use crate::{QueryRecord, Workload};

/// Parameters of the near-duplicate world.
#[derive(Debug, Clone, Copy)]
pub struct NearDupParams {
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Stored near-duplicate rows (≥ the index policy's 256-row floor,
    /// so tenant provisioning auto-builds the index too).
    pub rows: usize,
    /// Tight clusters the rows split into, round-robin. Keep this near
    /// `⌈√rows⌉` so the default index build (one bucket per `√rows`)
    /// recovers one cluster per bucket.
    pub clusters: usize,
    /// Bits flipped from the common base to each cluster center. Sets
    /// the inter-cluster spacing (~`2 × center_flips` bits), far above
    /// the cluster radii, so the triangle bound prunes every foreign
    /// bucket.
    pub center_flips: usize,
    /// Largest perturbation of a stored row from its cluster center;
    /// row `i` flips `4 + (i mod max_row_flips)` bits, so duplicates
    /// come in a spread of tightnesses and some pairs are genuinely
    /// confusable.
    pub max_row_flips: usize,
    /// Bits flipped in each query relative to its source row.
    pub query_flips: usize,
    /// Recall cutoff.
    pub k: usize,
}

impl Default for NearDupParams {
    /// The bench operating point: 512 rows in 23 clusters of an
    /// 8,192-bit space. Cluster radii stay within ~20 bits while
    /// centers sit ~384 bits apart, so the exact walk scans the
    /// centroids and one bucket. At 8,192 bits a row is exactly 128
    /// words — the AVX-512 direct scan's bound-check stride — so the
    /// direct scan pays full rows for every candidate.
    fn default() -> Self {
        NearDupParams {
            dim: 8_192,
            rows: 512,
            clusters: 23,
            center_flips: 192,
            max_row_flips: 16,
            query_flips: 10,
            k: 5,
        }
    }
}

/// The near-duplicate similarity-search scenario.
#[derive(Debug)]
pub struct NearDupWorkload {
    memory: AssociativeMemory,
    records: Vec<QueryRecord>,
    stats: IndexStats,
    params: NearDupParams,
    seed: u64,
}

impl NearDupWorkload {
    /// Builds the planted clusters, their bucket index, and one query
    /// per stored row, fully derived from `seed`. The memory is left on
    /// [`ScanStrategy::Auto`] with the index attached — the decision
    /// under test.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn build(params: NearDupParams, seed: u64) -> Self {
        assert!(params.rows > 0 && params.clusters > 0 && params.max_row_flips > 0 && params.k > 0);
        let dim = Dimension::new(params.dim).expect("nonzero dimension");
        let base = Hypervector::random(dim, seed);
        let centers: Vec<Hypervector> = (0..params.clusters)
            .map(|c| {
                noisy_copy(
                    &base,
                    params.center_flips,
                    seed ^ 0xCE_0000 ^ ((c as u64) << 8),
                )
            })
            .collect();
        let mut memory = AssociativeMemory::new(dim);
        let mut rows = Vec::with_capacity(params.rows);
        for i in 0..params.rows {
            let flips = 4 + i % params.max_row_flips;
            let row = noisy_copy(
                &centers[i % params.clusters],
                flips,
                seed ^ 0xD0B_0000 ^ i as u64,
            );
            memory
                .insert(format!("dup{i}"), row.clone())
                .expect("rows share the dimension");
            rows.push(row);
        }
        let stats = memory
            .build_index(IndexBuildOptions::default())
            .expect("non-empty memory builds an index");
        memory.set_scan_strategy(ScanStrategy::Auto);
        let records = rows
            .iter()
            .enumerate()
            .map(|(i, row)| QueryRecord {
                truth: i,
                query: noisy_copy(row, params.query_flips, seed ^ 0x9D_0000 ^ i as u64),
            })
            .collect();
        NearDupWorkload {
            memory,
            records,
            stats,
            params,
            seed,
        }
    }

    /// The stats of the index the `Auto` decision reads (its pilot work).
    pub fn index_stats(&self) -> IndexStats {
        self.stats
    }

    /// The parameters this world was built at.
    pub fn params(&self) -> &NearDupParams {
        &self.params
    }
}

impl Workload for NearDupWorkload {
    fn name(&self) -> &'static str {
        "neardup"
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn k(&self) -> usize {
        self.params.k
    }

    fn memory(&self) -> &AssociativeMemory {
        &self.memory
    }

    fn queries(&self) -> &[QueryRecord] {
        &self.records
    }

    fn rank(&self, query: &Hypervector, counters: &mut ScanCounters) -> Vec<usize> {
        let (ranked, scan) = self
            .memory
            .search_top_k_counted(query, self.k())
            .expect("queries match the dimension");
        counters.absorb(scan);
        ranked.into_iter().map(|(class, _)| class.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_local;
    use hdc::kernel::AUTO_INDEXED_MAX_WORK;
    use hdc::ResolvedScan;

    #[test]
    fn clusters_are_recovered_and_auto_resolves_to_indexed() {
        let w = NearDupWorkload::build(NearDupParams::default(), 5);
        let stats = w.index_stats();
        assert_eq!(stats.buckets, w.params().clusters, "stats = {stats:?}");
        assert!(
            stats.pilot_work_frac() < AUTO_INDEXED_MAX_WORK,
            "stats = {stats:?}"
        );
        assert_eq!(
            w.resolved_strategy(),
            ResolvedScan::Indexed { nprobe: None }
        );
    }

    #[test]
    fn index_recovers_one_bucket_per_cluster_where_a_stride_aliases() {
        // 4,096 rows in 64 round-robin clusters: B = 64 and 2,048 sample
        // rows, so a stride-2 sample would only ever see the even
        // clusters. The build must still give every cluster its own
        // bucket, with radii inside the planted row noise.
        let params = NearDupParams {
            rows: 4_096,
            clusters: 64,
            ..NearDupParams::default()
        };
        let w = NearDupWorkload::build(params, 9);
        let index = w.memory().index().expect("built at construction");
        assert_eq!(index.buckets(), params.clusters);
        for bucket in 0..index.buckets() {
            let members = index.members(bucket);
            let cluster = members[0] as usize % params.clusters;
            assert!(
                members
                    .iter()
                    .all(|&m| m as usize % params.clusters == cluster),
                "bucket {bucket} mixes clusters"
            );
        }
        let planted_noise = 4 + params.max_row_flips - 1;
        assert!(
            index.stats().max_radius <= planted_noise,
            "stats = {:?}",
            index.stats()
        );
    }

    #[test]
    fn recall_is_high_and_deterministic() {
        let w = NearDupWorkload::build(NearDupParams::default(), 5);
        let report = run_local(&w);
        assert_eq!(report.k, 5);
        assert!(report.recall_at_k > 0.98, "recall = {}", report.recall_at_k);
        assert!(report.recall_at_k >= report.accuracy);
        let again = run_local(&NearDupWorkload::build(NearDupParams::default(), 5));
        assert_eq!(report.accuracy, again.accuracy);
        assert_eq!(report.recall_at_k, again.recall_at_k);
    }
}
