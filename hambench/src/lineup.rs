//! The traced layer lineup: each request of the workload's stream is
//! sent over TCP inside a root span, then replayed through each layer's
//! public entry point, outermost first, each call in a span of its own.
//!
//! The replays are calls of their own, not nested inside the TCP
//! request, so a span's parent names the stage that encloses it on the
//! served path and self times are derived from medians:
//! `tenant.self = tenant.serve − resilience.serve`,
//! `resilience.self = resilience.serve − degrade.classify`,
//! `shard.self = shard.publish − wal.append`.

use std::io::Cursor;
use std::path::Path;
use std::time::{Duration, Instant};

use ham_core::explore::DesignKind;
use ham_core::resilience::{
    DegradationController, DegradationPolicy, EngineStage, QueryBudget, ResilientOptions,
    ResilientServer, Scrubber, Wal, WalOptions, WalRecord, PRIORITY_NORMAL,
};
use ham_core::OnlineUpdater;
use ham_serve::frame::{
    encode_request, encode_response, read_request_header, read_request_payload, read_response,
    DEADLINE_UNBOUNDED_US, STATUS_OK,
};
use ham_serve::{ServeConfig, SlotResult, TenantState};
use ham_workloads::strategy_label;
use hdc::prelude::*;
use hdc::{IndexBuildOptions, ScanCounters};

use crate::inputs::{PublishPlan, Read};
use crate::load::{closed_loop, wait_until, Schedule};
use crate::report::Outcome;
use crate::served::{self, TENANT};
use crate::trace::Tracer;

/// Publishes replayed through the tenant and standalone WAL appends.
const PUBLISHES: usize = 30;
/// Index builds timed.
const INDEX_BUILDS: usize = 3;

pub struct LineupInput<'a> {
    /// The memory as handed to the system under test.
    pub memory: &'a AssociativeMemory,
    pub reads: &'a [Read],
    pub k: usize,
    pub plan: &'a PublishPlan,
    /// Scratch directory for the lineup server's snapshots and WALs.
    pub dir: &'a Path,
    pub window: Duration,
    /// Send lineup requests at this rate, as the workload's paced phase
    /// does; `None` sends them back to back.
    pub pace: Option<f64>,
    /// Publish once every this many requests, as the workload does beside
    /// its reads; `None` publishes after the reads instead.
    pub publish_every: Option<usize>,
    /// The span that times the workload's own end-to-end path...
    pub root: &'static str,
    /// ...and that path's untraced p50, µs: their difference is the
    /// tracing overhead.
    pub untraced_p50_us: f64,
    /// The untraced served p50 the stage medians are attributed
    /// against; `None` uses the traced `server.request` median.
    pub served_p50_us: Option<f64>,
}

/// The standalone engines of the lineup, built over the tenant's served
/// memory as `TenantState` builds its own, and rebuilt whenever a publish
/// makes the tenant rebuild.
struct Standalone {
    memory: AssociativeMemory,
    resilient: ResilientServer,
    controller: DegradationController,
}

impl Standalone {
    fn build(tenant: &TenantState) -> Result<Self, String> {
        let memory = tenant.served_memory();
        let policy = DegradationPolicy::for_dim(memory.dim().get());
        let resilient = ResilientServer::new(
            DesignKind::Digital,
            memory.clone(),
            Scrubber::from_memory(&memory),
            policy,
        )
        .map_err(|e| format!("resilient server: {e}"))?
        .with_options(ResilientOptions::default().with_budget(QueryBudget::unbounded()));
        let controller =
            DegradationController::for_kind(DesignKind::Digital, memory.clone(), policy)
                .map_err(|e| format!("controller: {e}"))?;
        Ok(Standalone {
            memory,
            resilient,
            controller,
        })
    }
}

/// Publish `j` of the plan through the tenant: the durable ack, then the
/// first serve of the new row (which rebuilds the engine for the new
/// epoch) and a steady one.
fn publish_one(
    t: &mut Tracer,
    tenant: &TenantState,
    updater: &OnlineUpdater,
    plan: &PublishPlan,
    j: usize,
    request: u64,
) -> Result<(), String> {
    let (row, hv) = plan.replacement(j);
    let (acked, _) = t.span("shard.publish", request, None, || {
        updater.rethreshold_row(ClassId(row), hv.clone())
    });
    acked.map_err(|e| format!("publish: {e}"))?;
    let qs = std::slice::from_ref(&hv);
    for name in ["tenant.serve.after_publish", "tenant.serve.steady"] {
        let (report, _) = t.span(name, request, None, || {
            tenant.serve(qs, PRIORITY_NORMAL, QueryBudget::unbounded())
        });
        match report
            .map_err(|e| format!("serve after publish: {e}"))?
            .outcomes
            .first()
        {
            Some(Ok(o)) if o.result.class.0 == row => {}
            other => return Err(format!("publish to row {row} not served: {other:?}")),
        }
    }
    Ok(())
}

/// Rung tallies from `QueryOutcome`.
#[derive(Debug, Default)]
struct Ladder {
    queries: usize,
    escalations: usize,
    rungs: [usize; 4],
}

pub fn run(input: LineupInput, spans_path: &Path, out: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(input.dir).map_err(|e| format!("lineup dir: {e}"))?;
    let server = served::start(served::spec(input.memory), Some(input.dir))?;
    let tenant = served::tenant(&server);
    let mut engines = Standalone::build(&tenant)?;
    out.label(
        "am.strategy",
        strategy_label(engines.memory.resolved_strategy()),
    );

    let max_payload = ServeConfig::default().max_payload;
    let mut t = Tracer::new();
    let mut client = served::connect(&server)?;
    let mut ladder = Ladder::default();
    let mut scan = ScanCounters::default();
    let mut topk_calls = 0u64;
    let updater = tenant.updater();
    let wal_dir = tenant.spec().wal_dir(input.dir);
    let wal_bytes_before = dir_bytes(&wal_dir);
    let mut publishes = 0;
    let started = Instant::now();
    let deadline = started + input.window.mul_f64(0.8);
    let mut r = 0u64;
    while Instant::now() < deadline {
        if let Some(rate) = input.pace {
            wait_until(started + Schedule::per_second(rate).due(r as usize));
        }
        if input
            .publish_every
            .is_some_and(|n| r > 0 && (r as usize).is_multiple_of(n))
        {
            publish_one(&mut t, &tenant, &updater, input.plan, publishes, r)?;
            publishes += 1;
            engines = Standalone::build(&tenant)?;
        }
        let Standalone {
            memory,
            resilient,
            controller,
        } = &mut engines;
        let q = &input.reads[r as usize % input.reads.len()].query;
        let qs = std::slice::from_ref(q);
        let (answer, root) = t.span("server.request", r, None, || {
            served::request(&mut client, q)
        });
        answer.map_err(|e| format!("lineup request: {e}"))?;
        let (frame, _) = t.span("frame.encode_request", r, Some(root), || {
            encode_request(PRIORITY_NORMAL, TENANT, r, DEADLINE_UNBOUNDED_US, qs)
        });
        let (decoded, _) = t.span("frame.decode_request", r, Some(root), || {
            let mut cursor = Cursor::new(&frame);
            let header = read_request_header(&mut cursor, max_payload)?.expect("a whole frame");
            read_request_payload(&mut cursor, &header)
        });
        if decoded.map_err(|e| e.to_string())?.queries != qs {
            return Err("request codec did not round-trip".into());
        }
        let (admitted, _) = t.span("tenant.admit", r, Some(root), || {
            tenant.admit(1, PRIORITY_NORMAL)
        });
        admitted.map_err(|e| format!("admit: {e}"))?;
        let (report, serve) = t.span("tenant.serve", r, Some(root), || {
            tenant.serve(qs, PRIORITY_NORMAL, QueryBudget::unbounded())
        });
        let report = report.map_err(|e| format!("tenant serve: {e}"))?;
        let (_, resilience) = t.span("resilience.serve", r, Some(serve), || {
            resilient.serve(qs, PRIORITY_NORMAL)
        });
        let (outcome, classify) = t.span("degrade.classify", r, Some(resilience), || {
            controller.classify(q, r)
        });
        let outcome = outcome.map_err(|e| format!("classify: {e}"))?;
        ladder.queries += 1;
        ladder.escalations += outcome.escalations;
        ladder.rungs[rung(outcome.final_engine)] += 1;
        let (exact, _) = t.span("am.search", r, Some(classify), || memory.search_counted(q));
        exact.map_err(|e| format!("exact search: {e}"))?;
        let slot = match report.outcomes.first() {
            Some(Ok(o)) => SlotResult::Hit {
                class: o.result.class.0 as u32,
                distance: o.result.measured_distance.as_usize() as u32,
                margin: o.margin as u32,
            },
            _ => SlotResult::Failed,
        };
        let (bytes, _) = t.span("frame.encode_response", r, Some(root), || {
            encode_response(STATUS_OK, TENANT, r, &[slot])
        });
        let (response, _) = t.span("frame.decode_response", r, Some(root), || {
            read_response(&mut Cursor::new(&bytes), max_payload)
        });
        if response.map_err(|e| e.to_string())?.map(|r| r.slots) != Some(vec![slot]) {
            return Err("response codec did not round-trip".into());
        }
        let (ranked, _) = t.span("am.top_k", r, Some(root), || {
            memory.search_top_k_counted(q, input.k)
        });
        scan.absorb(ranked.map_err(|e| format!("top-k: {e}"))?.1);
        topk_calls += 1;
        r += 1;
    }
    drop(client);

    let slice = input.window.mul_f64(0.05);
    let scaling =
        serve_rate(&tenant, input.reads, 2, slice) / serve_rate(&tenant, input.reads, 1, slice);

    if input.publish_every.is_none() {
        for j in 0..PUBLISHES {
            publish_one(&mut t, &tenant, &updater, input.plan, j, r + j as u64)?;
        }
        publishes = PUBLISHES;
    }
    // Every lineup request and publish either succeeded or ended the run.
    out.attempted += r as usize + publishes;
    let wal_bytes = (dir_bytes(&wal_dir) - wal_bytes_before) as f64 / publishes as f64;

    // The same record appended to a standalone log on the same filesystem.
    let standalone = input.dir.join("standalone.wal");
    let memory = &engines.memory;
    let wal = Wal::open(&standalone, memory.dim(), WalOptions::default())
        .map_err(|e| format!("standalone wal: {e}"))?;
    for j in 0..PUBLISHES {
        let (row, hv) = input.plan.replacement(j);
        let record = WalRecord::ReplaceRow {
            row: row as u64,
            words: hv.as_bitvec().as_words().to_vec(),
        };
        let (appended, _) = t.span("wal.append", r + j as u64, None, || wal.append(&[record]));
        appended.map_err(|e| format!("wal append: {e}"))?;
    }
    drop(wal);

    for j in 0..INDEX_BUILDS {
        let mut m = memory.clone();
        m.drop_index();
        t.span("index.build", r + j as u64, None, || {
            m.build_index(IndexBuildOptions::default())
        });
    }
    drop(updater);
    drop(tenant);
    server.drain();

    let m = |name: &str| t.median_us(name);
    let stages = m("frame.encode_request")
        + m("frame.decode_request")
        + m("tenant.admit")
        + m("tenant.serve")
        + m("frame.encode_response")
        + m("frame.decode_response");
    let base = input.served_p50_us.unwrap_or_else(|| m("server.request"));
    let queries = ladder.queries as f64;
    let rows = memory.len() as f64 * topk_calls as f64;

    out.push("frame.encode_request_us", m("frame.encode_request"), "us");
    out.push("frame.decode_request_us", m("frame.decode_request"), "us");
    out.push("frame.encode_response_us", m("frame.encode_response"), "us");
    out.push("frame.decode_response_us", m("frame.decode_response"), "us");
    out.push("tenant.admit_us", m("tenant.admit"), "us");
    out.push("tenant.serve_us", m("tenant.serve"), "us");
    out.push(
        "tenant.self_us",
        m("tenant.serve") - m("resilience.serve"),
        "us",
    );
    out.push("tenant.two_conn_scaling", scaling, "x");
    out.push(
        "tenant.rebuild_us",
        m("tenant.serve.after_publish") - m("tenant.serve.steady"),
        "us",
    );
    out.push("server.unattributed_us", base - stages, "us");
    out.push("server.attributed_share", stages / base, "frac");
    out.push("resilience.serve_us", m("resilience.serve"), "us");
    out.push(
        "resilience.self_us",
        m("resilience.serve") - m("degrade.classify"),
        "us",
    );
    out.push("degrade.classify_us", m("degrade.classify"), "us");
    out.push(
        "degrade.escalations_per_query",
        ladder.escalations as f64 / queries,
        "count",
    );
    for (i, name) in ["primary", "resample", "widened", "exact"]
        .iter()
        .enumerate()
    {
        out.push(
            &format!("degrade.rung_share.{name}"),
            ladder.rungs[i] as f64 / queries,
            "frac",
        );
    }
    out.push("am.search_us", m("am.search"), "us");
    out.push("am.top_k_us", m("am.top_k"), "us");
    out.push(
        "am.rows_scanned_per_query",
        scan.rows_scanned as f64 / topk_calls as f64,
        "count",
    );
    out.push(
        "am.rows_pruned_frac",
        scan.rows_pruned as f64 / rows,
        "frac",
    );
    out.push(
        "am.rows_group_pruned_frac",
        scan.rows_group_pruned as f64 / rows,
        "frac",
    );
    out.push(
        "am.buckets_probed_per_query",
        scan.buckets_probed as f64 / topk_calls as f64,
        "count",
    );
    out.push("index.build_s", m("index.build") / 1e6, "s");
    out.push("shard.publish_us", m("shard.publish"), "us");
    out.push("wal.append_us", m("wal.append"), "us");
    out.push("shard.self_us", m("shard.publish") - m("wal.append"), "us");
    out.push("wal.bytes_per_publish", wal_bytes, "bytes");
    out.push(
        "trace.overhead_us",
        m(input.root) - input.untraced_p50_us,
        "us",
    );
    out.label("trace.spans", t.len().to_string());
    t.write_jsonl(spans_path)
        .map_err(|e| format!("writing spans: {e}"))?;
    out.label("trace.file", spans_path.display().to_string());
    Ok(())
}

fn rung(stage: EngineStage) -> usize {
    match stage {
        EngineStage::Primary => 0,
        EngineStage::Resample => 1,
        EngineStage::Widened => 2,
        EngineStage::Exact => 3,
    }
}

/// Queries per second `threads` callers get through `TenantState::serve`.
fn serve_rate(tenant: &TenantState, reads: &[Read], threads: usize, window: Duration) -> f64 {
    let started = Instant::now();
    let served: usize = closed_loop(threads, window, |w, deadline| {
        let mut n = 0;
        let mut i = w;
        while Instant::now() < deadline {
            let q = std::slice::from_ref(&reads[i % reads.len()].query);
            if tenant
                .serve(q, PRIORITY_NORMAL, QueryBudget::unbounded())
                .is_ok()
            {
                n += 1;
            }
            i += threads;
        }
        n
    })
    .into_iter()
    .sum();
    served as f64 / started.elapsed().as_secs_f64()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
