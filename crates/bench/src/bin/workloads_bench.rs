//! `ham-workloads-bench` — the multi-scenario scorecard.
//!
//! Runs every workload of the harness (`ham-workloads`) through both
//! evaluation paths and writes `BENCH_workloads.json`:
//!
//! 1. **langid** — the paper's 21-language task at its full operating
//!    point, local top-1 ranking and the provisioned tenant engine.
//! 2. **weighted** — MIMHD-style multi-bit inference: the local row ranks
//!    with the bit-sliced weighted kernel, the served row answers from
//!    the majority-binarized memory; the accuracy gap between the two
//!    rows is the multi-bit story.
//! 3. **neardup** — planted near-duplicate similarity search scored on
//!    recall@k, plus a head-to-head `Auto` vs `Direct` timing on the
//!    same stream, with the strategy `Auto` resolved to and the pilot
//!    work fraction the decision read.
//!
//! Every row carries throughput, mean latency, and the aggregated
//! [`ScanCounters`] (rows scanned / pruned, buckets probed), so scenario
//! regressions show up as numbers, not vibes.
//!
//! Usage: `ham-workloads-bench [--out FILE] [--quick]`.

use std::path::PathBuf;
use std::time::Instant;

use ham_workloads::neardup::NearDupParams;
use ham_workloads::weighted::WeightedParams;
use ham_workloads::{
    run_local, serve, strategy_label, LangidWorkload, NearDupWorkload, WeightedWorkload, Workload,
    WorkloadReport,
};
use hdc::prelude::*;
use serde::Serialize;

/// The measured `Auto` decision on the near-duplicate stream.
#[derive(Debug, Serialize)]
struct AutoVsDirect {
    /// What `ScanStrategy::Auto` resolved to on this memory.
    auto_resolves_to: String,
    /// The pilot work fraction the decision read
    /// (`IndexStats::pilot_work_frac`), and the index shape behind it.
    pilot_work_frac: f64,
    mean_radius: usize,
    /// Mean nanoseconds per query over the full stream, per strategy.
    direct_ns_per_query: f64,
    auto_ns_per_query: f64,
    /// `direct / auto` — >1 means the Auto-selected engine is faster.
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct Snapshot {
    host_threads: usize,
    kernel_backend: &'static str,
    /// One row per workload × path.
    reports: Vec<WorkloadReport>,
    /// Weighted-kernel accuracy minus binarized accuracy on the same
    /// stream (the local-vs-served gap, isolated from serving effects).
    weighted_gain_over_binarized: f64,
    neardup_auto_vs_direct: AutoVsDirect,
}

/// Times one full pass of exact searches over the stream under the given
/// strategy, returning mean ns/query. A warm-up pass runs first.
fn time_searches(memory: &AssociativeMemory, queries: &[Hypervector], passes: usize) -> f64 {
    for query in queries {
        std::hint::black_box(memory.search(query).expect("query matches dimension"));
    }
    let started = Instant::now();
    for _ in 0..passes {
        for query in queries {
            std::hint::black_box(memory.search(query).expect("query matches dimension"));
        }
    }
    started.elapsed().as_nanos() as f64 / (passes * queries.len()).max(1) as f64
}

fn main() {
    let mut out = PathBuf::from("BENCH_workloads.json");
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }));
            }
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("usage: ham-workloads-bench [--out FILE] [--quick]");
                println!("  --quick  shrink every workload to smoke-test scale");
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let host_threads = hdc::available_threads();
    println!(
        "host threads: {host_threads}, kernel backend: {}",
        hdc::active_backend_name()
    );
    let mut reports = Vec::new();

    // 1. langid — the paper's scenario behind the trait.
    let langid = if quick {
        LangidWorkload::build(2_000, 8_000, 5, LangidWorkload::DEFAULT_SEED)
    } else {
        LangidWorkload::build(10_000, 20_000, 50, LangidWorkload::DEFAULT_SEED)
    };
    let local = run_local(&langid);
    println!(
        "{} local: accuracy {:.4}, {:.0} qps",
        local.workload, local.accuracy, local.throughput_qps
    );
    reports.push(local);
    let state = serve::provision(&langid, 1).expect("tenant provisions");
    let served = serve::run_served(&langid, &state).expect("tenant serves");
    println!(
        "{} served: accuracy {:.4}, {:.0} qps",
        served.workload, served.accuracy, served.throughput_qps
    );
    reports.push(served);

    // 2. weighted — multi-bit counts vs their majority binarization.
    let weighted_params = if quick {
        WeightedParams {
            dim: 1_024,
            classes: 8,
            train_copies: 15,
            noisy_dims: 512,
            train_flips: 512 * 15 / 100,
            queries_per_class: 4,
            query_flips: 512 * 43 / 100,
        }
    } else {
        WeightedParams::default()
    };
    let weighted = WeightedWorkload::build(weighted_params, 7);
    let weighted_local = run_local(&weighted);
    let binarized = weighted.binarized_accuracy();
    let weighted_gain = weighted_local.accuracy - binarized;
    println!(
        "weighted local: accuracy {:.4} (binarized {:.4}, gain {:+.4})",
        weighted_local.accuracy, binarized, weighted_gain
    );
    reports.push(weighted_local);
    let state = serve::provision(&weighted, 2).expect("tenant provisions");
    let weighted_served = serve::run_served(&weighted, &state).expect("tenant serves");
    println!(
        "weighted served: accuracy {:.4} (binarized baseline over the wire)",
        weighted_served.accuracy
    );
    reports.push(weighted_served);

    // 3. neardup — recall@k plus the measured Auto decision. The
    // default world is already small (512 rows), and shrinking its
    // dimensionality would change the very geometry the Auto-vs-Direct
    // head-to-head measures, so quick mode only trims timing passes.
    let neardup = NearDupWorkload::build(NearDupParams::default(), 5);
    let local = run_local(&neardup);
    println!(
        "neardup local: recall@{} {:.4}, strategy {}, {:.0} qps",
        local.k, local.recall_at_k, local.strategy, local.throughput_qps
    );
    reports.push(local);
    let state = serve::provision(&neardup, 3).expect("tenant provisions");
    let served = serve::run_served(&neardup, &state).expect("tenant serves");
    println!(
        "neardup served: accuracy {:.4}, {:.0} qps",
        served.accuracy, served.throughput_qps
    );
    reports.push(served);

    // The decision under test: what Auto resolved to on this geometry,
    // and how it times against the direct scan on the same stream.
    let stats = neardup.index_stats();
    let queries: Vec<Hypervector> = neardup
        .queries()
        .iter()
        .map(|record| record.query.clone())
        .collect();
    let mut direct_memory = neardup.memory().clone();
    direct_memory.set_scan_strategy(ScanStrategy::Direct);
    let passes = if quick { 2 } else { 4 };
    let direct_ns = time_searches(&direct_memory, &queries, passes);
    let auto_ns = time_searches(neardup.memory(), &queries, passes);
    let auto_vs_direct = AutoVsDirect {
        auto_resolves_to: strategy_label(neardup.memory().resolved_strategy()),
        pilot_work_frac: stats.pilot_work_frac(),
        mean_radius: stats.mean_radius,
        direct_ns_per_query: direct_ns,
        auto_ns_per_query: auto_ns,
        speedup: direct_ns / auto_ns.max(f64::MIN_POSITIVE),
    };
    println!(
        "neardup auto vs direct: auto={} (pilot work {:.3}) direct {:.0} ns vs auto {:.0} ns ({:.2}x)",
        auto_vs_direct.auto_resolves_to,
        auto_vs_direct.pilot_work_frac,
        direct_ns,
        auto_ns,
        auto_vs_direct.speedup
    );

    let snapshot = Snapshot {
        host_threads,
        kernel_backend: hdc::active_backend_name(),
        reports,
        weighted_gain_over_binarized: weighted_gain,
        neardup_auto_vs_direct: auto_vs_direct,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    });
    println!("wrote {}", out.display());
}
