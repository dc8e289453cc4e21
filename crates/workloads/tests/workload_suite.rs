//! The workload-harness acceptance suite: every scenario runs through
//! the one [`Workload`] trait end to end — local ranking, tenant
//! provisioning, and the real TCP wire — deterministically per seed,
//! with the `Auto` scan decision pinned on the near-duplicate geometry,
//! across backends and across a warm restart.

use std::time::Duration;

use ham_core::resilience::{load_snapshot, ResilientOptions, PRIORITY_NORMAL};
use ham_serve::frame::STATUS_OK;
use ham_serve::{BootSource, HamClient, ServeConfig, Server, SlotResult, TenantState};
use ham_workloads::neardup::{NearDupParams, NearDupWorkload};
use ham_workloads::weighted::{WeightedParams, WeightedWorkload};
use ham_workloads::{run_local, serve, LangidWorkload, Workload};
use hdc::kernel::AUTO_INDEXED_MAX_WORK;
use hdc::prelude::*;
use hdc::{active_backend, enabled_backends, BucketIndex, IndexBuildOptions};

/// Small-but-faithful operating points, sized for CI.
fn langid() -> LangidWorkload {
    LangidWorkload::build(1_000, 4_000, 2, LangidWorkload::DEFAULT_SEED)
}

fn weighted() -> WeightedWorkload {
    WeightedWorkload::build(WeightedParams::default(), 7)
}

/// Wide-margin weighted world for the wire test: every degradation rung
/// agrees with the exact binary search, so wire answers are stable.
fn easy_weighted() -> WeightedWorkload {
    WeightedWorkload::build(
        WeightedParams {
            dim: 512,
            classes: 8,
            train_copies: 7,
            noisy_dims: 256,
            train_flips: 256 * 15 / 100,
            queries_per_class: 4,
            query_flips: 256 / 4,
        },
        21,
    )
}

fn neardup() -> NearDupWorkload {
    NearDupWorkload::build(
        NearDupParams {
            dim: 4_096,
            rows: 512,
            clusters: 23,
            center_flips: 96,
            max_row_flips: 8,
            query_flips: 5,
            k: 5,
        },
        5,
    )
}

#[test]
fn every_workload_is_deterministic_and_meets_its_floor() {
    let workloads: Vec<(Box<dyn Workload>, f64)> = vec![
        (Box::new(langid()), 0.5),
        (Box::new(weighted()), 0.9),
        (Box::new(neardup()), 0.98),
    ];
    for (workload, floor) in &workloads {
        let report = run_local(workload.as_ref());
        assert_eq!(report.path, "local");
        assert!(
            report.recall_at_k >= *floor,
            "{}: recall@{} {} under floor {floor}",
            report.workload,
            report.k,
            report.recall_at_k
        );
        assert!(report.recall_at_k >= report.accuracy, "{}", report.workload);
        assert!(report.queries > 0 && report.throughput_qps > 0.0);
        // Telemetry reaches the scorer: every scenario scans rows.
        assert!(
            report.rows_scanned >= report.queries as u64,
            "{}: rows_scanned {}",
            report.workload,
            report.rows_scanned
        );
        assert_eq!(report.seed, workload.seed());
    }
    // Bit-for-bit determinism of the whole report row per seed.
    let again = run_local(&langid());
    let first = run_local(&langid());
    assert_eq!(first.accuracy, again.accuracy);
    assert_eq!(first.recall_at_k, again.recall_at_k);
    assert_eq!(first.rows_scanned, again.rows_scanned);
}

#[test]
fn auto_pins_the_indexed_walk_on_the_near_duplicate_geometry() {
    let w = neardup();
    let stats = w.index_stats();
    // The regression pin: the build recovers one bucket per cluster,
    // its pilot walk reads well under the crossover, and Auto selects
    // the exact indexed walk — both at the decision-rule level and
    // through the memory the tenant clones.
    assert_eq!(stats.buckets, w.params().clusters, "stats = {stats:?}");
    assert!(
        stats.pilot_work_frac() < AUTO_INDEXED_MAX_WORK,
        "stats = {stats:?}"
    );
    let indexed = ResolvedScan::Indexed { nprobe: None };
    assert_eq!(ScanStrategy::Auto.resolve(w.memory().index()), indexed);
    assert_eq!(w.resolved_strategy(), indexed);
    assert_eq!(
        ScanStrategy::Direct.resolve(w.memory().index()),
        ResolvedScan::Direct,
        "explicit strategies must not be second-guessed"
    );
    // The Auto-selected walk answers bit-identically to the direct
    // scan on the real query stream, nearest row and top-k alike.
    let mut direct = w.memory().clone();
    direct.set_scan_strategy(ScanStrategy::Direct);
    for record in w.queries().iter().take(64) {
        let via_auto = w.memory().search(&record.query).unwrap();
        let via_direct = direct.search(&record.query).unwrap();
        assert_eq!(via_auto.class, via_direct.class);
        assert_eq!(via_auto.distance, via_direct.distance);
        assert_eq!(via_auto, via_direct);
        assert_eq!(
            w.memory().search_top_k(&record.query, w.k()).unwrap(),
            direct.search_top_k(&record.query, w.k()).unwrap()
        );
    }
    // And the served row carries the decision label.
    let state = serve::provision(&w, 7).expect("tenant provisions");
    let report = serve::run_served(&w, &state).expect("tenant serves");
    assert_eq!(report.strategy, "Indexed");
    assert!(
        report.accuracy > 0.98,
        "served accuracy {}",
        report.accuracy
    );
}

/// The decision is a property of the data, not of the datapath: an index
/// built through any enabled backend measures the same pilot work, so
/// `Auto` resolves `Indexed` on the near-duplicate geometry and `Direct`
/// on uniform random rows whichever backend `HAM_KERNEL_BACKEND` picks.
#[test]
fn auto_resolves_indexed_on_near_duplicates_and_direct_on_uniform_rows() {
    let w = neardup();
    let dim = Dimension::new(w.params().dim).unwrap();
    let mut uniform = AssociativeMemory::new(dim);
    for row in 0..w.params().rows as u64 {
        uniform
            .insert(format!("u{row}"), Hypervector::random(dim, 0xD1CE ^ row))
            .unwrap();
    }
    let cases = [
        (
            w.memory().packed_rows(),
            ResolvedScan::Indexed { nprobe: None },
        ),
        (uniform.packed_rows(), ResolvedScan::Direct),
    ];
    for (packed, expected) in cases {
        let reference =
            BucketIndex::build(packed, active_backend(), IndexBuildOptions::default()).unwrap();
        assert_eq!(ScanStrategy::Auto.resolve(Some(&reference)), expected);
        for backend in enabled_backends() {
            let index = BucketIndex::build(packed, backend, IndexBuildOptions::default()).unwrap();
            assert_eq!(index, reference, "{} builds differently", backend.name());
        }
    }
    uniform.build_index(IndexBuildOptions::default());
    assert_eq!(uniform.resolved_strategy(), ResolvedScan::Direct);
}

/// A tenant warm-restarted from a v2 snapshot (rows plus the persisted
/// index, no rebuild) reaches the same `Auto` decision, from the same
/// pilot work, as the freshly built tenant it was flushed from.
#[test]
fn warm_restarted_tenant_resolves_the_strategy_of_a_fresh_build() {
    let dir = std::env::temp_dir().join(format!("ham-workloads-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let w = neardup();
    let fresh = TenantState::provision(
        serve::tenant_spec(&w, 9),
        ResilientOptions::default(),
        Some(&dir),
    )
    .expect("fresh tenant provisions");
    assert_eq!(fresh.boot_source(), &BootSource::Fresh);
    let fresh_memory = fresh.served_memory();
    let snapshot = fresh.flush_snapshot(&dir).expect("snapshot flushes");
    drop(fresh);
    // The snapshot carries the index itself: the restart attaches it
    // through `BucketIndex::from_parts`, which re-walks the pilots.
    let loaded = load_snapshot(&snapshot).expect("snapshot loads").memory;
    assert!(loaded.index().is_some(), "v2 snapshot persists the index");
    assert_eq!(loaded.resolved_strategy(), fresh_memory.resolved_strategy());

    let restarted = TenantState::provision(
        serve::tenant_spec(&w, 9),
        ResilientOptions::default(),
        Some(&dir),
    )
    .expect("tenant warm-restarts");
    assert!(
        matches!(restarted.boot_source(), BootSource::WarmRestart { .. }),
        "{:?}",
        restarted.boot_source()
    );
    let restarted_memory = restarted.served_memory();
    assert_eq!(
        restarted_memory.index().map(|index| index.stats()),
        fresh_memory.index().map(|index| index.stats())
    );
    assert_eq!(
        restarted_memory.resolved_strategy(),
        ResolvedScan::Indexed { nprobe: None }
    );
    assert_eq!(
        restarted_memory.resolved_strategy(),
        fresh_memory.resolved_strategy()
    );
    assert_eq!(
        restarted.versioned().load().resolved_strategy(),
        fresh_memory.resolved_strategy()
    );
    drop(restarted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The approximate-probe operating point for the near-duplicate
/// geometry, pinned by measurement: probing the single nearest
/// centroid's bucket (`Probe{nprobe: 1}`) already recalls the planted
/// truth in the top 5 for ≥ 95% of the stream (measured 100% at this
/// seed), while touching a fraction of the rows the exact scan pays
/// for. The pin is the contract the serving docs quote: anyone tuning
/// `nprobe` down to 1 on this shape keeps recall@5 ≥ 0.95.
#[test]
fn probe_one_meets_the_recall_floor_on_the_near_duplicate_geometry() {
    let w = neardup();
    let nprobe = 1usize;
    let mut probed = w.memory().clone();
    probed.set_scan_strategy(ScanStrategy::Probe { nprobe });
    assert_eq!(
        probed.resolved_strategy(),
        ResolvedScan::Indexed {
            nprobe: Some(nprobe)
        }
    );
    let (mut hits, mut total) = (0usize, 0usize);
    let mut probe_scan = ScanCounters::default();
    for record in w.queries() {
        let (ranked, scan) = probed.search_top_k_counted(&record.query, w.k()).unwrap();
        probe_scan.absorb(scan);
        total += 1;
        if ranked.iter().any(|(class, _)| class.0 == record.truth) {
            hits += 1;
        }
    }
    let recall = hits as f64 / total as f64;
    assert!(
        recall >= 0.95,
        "Probe{{nprobe: {nprobe}}} recall@{} = {recall} under the 0.95 floor",
        w.k()
    );
    // The point of probing: strictly fewer rows than the exact scan
    // (which pays rows × queries) reach the distance kernel.
    let exact_rows = (w.memory().len() * total) as u64;
    assert!(
        probe_scan.rows_scanned < exact_rows / 4,
        "probe scanned {} of {exact_rows} exact rows",
        probe_scan.rows_scanned
    );
}

#[test]
fn workloads_serve_over_the_real_wire() {
    let config = ServeConfig {
        read_timeout: Duration::from_millis(500),
        drain_grace: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let langid = langid();
    let weighted = easy_weighted();
    let neardup = neardup();
    let specs = vec![
        serve::tenant_spec(&langid, 1),
        serve::tenant_spec(&weighted, 2),
        serve::tenant_spec(&neardup, 3),
    ];
    let server = Server::start(config, specs).expect("server starts");
    let mut client =
        HamClient::connect(server.local_addr(), Duration::from_secs(10)).expect("client connects");
    // Every tenant answers its own stream with hits that track the
    // planted truth. The degradation ladder may settle on the sampled
    // primary rung for wide-margin queries, so per-slot parity with the
    // exact engine is only pinned where every rung provably agrees (the
    // near-duplicate tenant below).
    for (tenant, workload, floor) in [
        (1u16, &langid as &dyn Workload, 0.5),
        (2, &weighted, 0.75),
        (3, &neardup, 0.95),
    ] {
        let records: Vec<_> = workload.queries().iter().take(16).collect();
        let queries: Vec<Hypervector> = records.iter().map(|r| r.query.clone()).collect();
        let response = client
            .request(tenant, PRIORITY_NORMAL, None, &queries)
            .expect("request round-trips");
        assert_eq!(response.status, STATUS_OK, "{}", workload.name());
        assert_eq!(response.slots.len(), queries.len());
        let mut correct = 0usize;
        for (slot, record) in response.slots.iter().zip(&records) {
            match slot {
                SlotResult::Hit { class, .. } => {
                    if *class as usize == record.truth {
                        correct += 1;
                    }
                }
                other => panic!("{}: slot not a hit: {other:?}", workload.name()),
            }
        }
        let accuracy = correct as f64 / records.len() as f64;
        assert!(
            accuracy >= floor,
            "{}: wire accuracy {accuracy} under floor {floor}",
            workload.name()
        );
    }
    // The near-duplicate stream's margins sit below the confidence bar
    // at every approximate rung, so the ladder always lands on the
    // exact engine: wire answers are bit-identical to a local search
    // through the same Auto-resolved cascade.
    let queries: Vec<Hypervector> = neardup
        .queries()
        .iter()
        .take(16)
        .map(|record| record.query.clone())
        .collect();
    let response = client
        .request(3, PRIORITY_NORMAL, None, &queries)
        .expect("request round-trips");
    for (slot, query) in response.slots.iter().zip(&queries) {
        let expected = neardup.memory().search(query).unwrap();
        match slot {
            SlotResult::Hit {
                class, distance, ..
            } => {
                assert_eq!(*class as usize, expected.class.0);
                assert_eq!(*distance as usize, expected.distance.as_usize());
            }
            other => panic!("neardup: slot not a hit: {other:?}"),
        }
    }
    let report = server.drain();
    assert_eq!(report.connection_threads_joined as u64, 1);
}
