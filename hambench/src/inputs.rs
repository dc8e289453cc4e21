//! Workload inputs, all derived from the seed: the memory handed to the
//! system, the read stream with planted truths, and the publish plan.

use std::time::Instant;

use ham_workloads::neardup::{NearDupParams, NearDupWorkload};
use ham_workloads::synth::noisy_copy;
use ham_workloads::{LangidWorkload, Workload};
use hdc::prelude::*;

/// The paper's classifier: D = 10,000, 20k training characters and 50
/// test sentences per language.
pub const LANGID_SCALE: LangidScale = LangidScale {
    dim: 10_000,
    train_chars: 20_000,
    test_sentences: 50,
};
/// Rows of the in-process top-k memory.
pub const TOPK_ROWS: usize = 16_384;
/// Rows of the served memory that takes publishes.
pub const PUBLISH_ROWS: usize = 2_048;
/// Clusters held back from reads so publishes can replace their rows
/// without moving any read's answer.
pub const RESERVED_CLUSTERS: usize = 4;

/// Size of the langid world.
#[derive(Debug, Clone, Copy)]
pub struct LangidScale {
    pub dim: usize,
    pub train_chars: usize,
    pub test_sentences: usize,
}

/// One read: the query and the row it was planted from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Read {
    pub truth: usize,
    pub query: Hypervector,
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Inputs {
    /// The memory handed to the system under test.
    pub memory: AssociativeMemory,
    /// Reads in stream order (a seeded shuffle).
    pub reads: Vec<Read>,
    /// The rows publishes replace and what they replace them with.
    pub plan: PublishPlan,
    /// Recall cutoff of the in-process path.
    pub k: usize,
    /// Seconds it took to generate all of the above.
    pub build_s: f64,
}

/// The deterministic sequence of row replacements: publish `j` replaces
/// row `targets[j % n].row` with a fresh noisy copy of that target's
/// anchor.
#[derive(Debug, Clone)]
pub struct PublishPlan {
    targets: Vec<Target>,
    seed: u64,
}

#[derive(Debug, Clone)]
struct Target {
    row: usize,
    anchor: Hypervector,
    flips: usize,
}

impl PublishPlan {
    /// Publish `j`: the row it replaces and the new row.
    pub fn replacement(&self, j: usize) -> (usize, Hypervector) {
        let t = &self.targets[j % self.targets.len()];
        let salt = splitmix64(self.seed ^ 0x5EED_0000_0000 ^ j as u64);
        (t.row, noisy_copy(&t.anchor, t.flips, salt))
    }

    /// Every row some publish replaces.
    #[cfg(test)]
    pub fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.targets.iter().map(|t| t.row)
    }
}

/// The langid classifier: every class row may take publishes (a noisy
/// copy of its own trained prototype, 0.5 % of the bits flipped), and
/// every test sentence is a read.
pub fn langid(seed: u64, scale: LangidScale) -> Inputs {
    let started = Instant::now();
    let w = LangidWorkload::build(scale.dim, scale.train_chars, scale.test_sentences, seed);
    let memory = w.memory().clone();
    let reads = shuffled(
        w.queries()
            .iter()
            .map(|r| Read {
                truth: r.truth,
                query: r.query.clone(),
            })
            .collect(),
        seed,
    );
    let targets = memory
        .iter()
        .map(|(class, _, row)| Target {
            row: class.0,
            anchor: row.clone(),
            flips: scale.dim / 200,
        })
        .collect();
    Inputs {
        memory,
        reads,
        plan: PublishPlan { targets, seed },
        k: w.k(),
        build_s: started.elapsed().as_secs_f64(),
    }
}

/// Near-duplicate clusters at `rows` rows in ⌈√rows⌉ clusters, the
/// other parameters at their defaults. The last [`RESERVED_CLUSTERS`]
/// clusters take publishes and no reads: each replacement is a fresh
/// noisy copy of its cluster's centre (the majority of the cluster's
/// rows), so the geometry every read sees stays fixed.
pub fn neardup(seed: u64, rows: usize) -> (Inputs, NearDupParams) {
    let started = Instant::now();
    let params = NearDupParams {
        rows,
        clusters: (rows as f64).sqrt().ceil() as usize,
        ..NearDupParams::default()
    };
    let w = NearDupWorkload::build(params, seed);
    let memory = w.memory().clone();
    let reads = shuffled(
        w.queries()
            .iter()
            .filter(|r| !is_reserved(r.truth, &params))
            .map(|r| Read {
                truth: r.truth,
                query: r.query.clone(),
            })
            .collect(),
        seed,
    );
    let centres = cluster_centres(&memory, &params);
    let targets = (0..rows)
        .filter(|&row| is_reserved(row, &params))
        .map(|row| Target {
            row,
            anchor: centres[cluster_of(row, &params)].clone(),
            flips: 4 + row % params.max_row_flips,
        })
        .collect();
    let inputs = Inputs {
        memory,
        reads,
        plan: PublishPlan { targets, seed },
        k: params.k,
        build_s: started.elapsed().as_secs_f64(),
    };
    (inputs, params)
}

/// Rows are dealt to clusters round-robin.
pub fn cluster_of(row: usize, params: &NearDupParams) -> usize {
    row % params.clusters
}

pub fn is_reserved(row: usize, params: &NearDupParams) -> bool {
    cluster_of(row, params) >= params.clusters - RESERVED_CLUSTERS
}

/// Each cluster's centre, estimated as the bitwise majority of its rows.
pub fn cluster_centres(memory: &AssociativeMemory, params: &NearDupParams) -> Vec<Hypervector> {
    let mut bundles: Vec<Bundler> = (0..params.clusters)
        .map(|_| Bundler::new(memory.dim()))
        .collect();
    for (class, _, row) in memory.iter() {
        bundles[cluster_of(class.0, params)].accumulate(row);
    }
    bundles.iter().map(Bundler::finish).collect()
}

/// A seeded Fisher–Yates shuffle.
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = seed ^ 0x0BDE_5EED;
    for i in (1..items.len()).rev() {
        state = splitmix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
    items
}

pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL_LANGID: LangidScale = LangidScale {
        dim: 512,
        train_chars: 2_000,
        test_sentences: 2,
    };

    fn rows(memory: &AssociativeMemory) -> Vec<Hypervector> {
        memory.iter().map(|(_, _, hv)| hv.clone()).collect()
    }

    fn replacements(plan: &PublishPlan) -> Vec<(usize, Hypervector)> {
        (0..50).map(|j| plan.replacement(j)).collect()
    }

    #[test]
    fn same_seed_gives_bit_identical_inputs() {
        let (a, b) = (langid(3, SMALL_LANGID), langid(3, SMALL_LANGID));
        assert_eq!(rows(&a.memory), rows(&b.memory));
        assert_eq!(a.reads, b.reads);
        assert_eq!(replacements(&a.plan), replacements(&b.plan));

        let (a, _) = neardup(3, 512);
        let (b, _) = neardup(3, 512);
        assert_eq!(rows(&a.memory), rows(&b.memory));
        assert_eq!(a.reads, b.reads);
        assert_eq!(replacements(&a.plan), replacements(&b.plan));

        let (c, _) = neardup(4, 512);
        assert_ne!(rows(&a.memory), rows(&c.memory));
        assert_ne!(a.reads, c.reads);
    }

    #[test]
    fn publishes_never_land_in_a_cluster_a_read_is_planted_in() {
        for seed in [1, 2, 3] {
            let (inputs, params) = neardup(seed, 512);
            let read_clusters: Vec<usize> = inputs
                .reads
                .iter()
                .map(|r| cluster_of(r.truth, &params))
                .collect();
            assert!(!inputs.reads.is_empty());
            for row in inputs.plan.rows() {
                assert!(!read_clusters.contains(&cluster_of(row, &params)));
            }
            // Geometrically too: every replacement sits nearest to its own
            // reserved cluster's centre, never to a centre a read uses.
            let centres = cluster_centres(&inputs.memory, &params);
            for j in 0..200 {
                let (row, hv) = inputs.plan.replacement(j);
                let nearest = (0..centres.len())
                    .min_by_key(|&c| hv.hamming(&centres[c]).as_usize())
                    .unwrap();
                assert_eq!(nearest, cluster_of(row, &params));
                assert!(!read_clusters.contains(&nearest));
            }
        }
    }

    #[test]
    fn langid_publishes_stay_near_their_prototype() {
        let inputs = langid(5, SMALL_LANGID);
        for j in 0..42 {
            let (row, hv) = inputs.plan.replacement(j);
            let old = inputs.memory.row(ClassId(row)).unwrap();
            assert_eq!(hv.hamming(old).as_usize(), SMALL_LANGID.dim / 200);
        }
    }
}
