//! The served workloads (`langid`, `neardup_publish`): a `ham-serve`
//! server on loopback, driven over TCP.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ham_core::explore::DesignKind;
use ham_core::resilience::PRIORITY_NORMAL;
use ham_serve::frame::STATUS_OK;
use ham_serve::{HamClient, QuotaPolicy, ServeConfig, Server, SlotResult, TenantSpec, TenantState};
use hdc::prelude::*;

use crate::inputs::{Inputs, Read};
use crate::lineup::{self, LineupInput};
use crate::load::{run_paced, Schedule};
use crate::publish::{publish_paced, ProbeAnswer};
use crate::report::Outcome;
use crate::stats::slice_rates;
use crate::{E2e, RunArgs, RATE_WINDOW_S, ROUNDS};

/// The wire tenant every benchmark server provisions.
pub const TENANT: u16 = 1;
/// Least served top-1 recall a correct run reaches.
const RECALL_FLOOR: f64 = 0.90;
/// Reads per publish when the lineup replays a workload that publishes
/// beside its reads (100 reads/s beside 20 publishes/s).
const LINEUP_READS_PER_PUBLISH: usize = 5;

/// How one served workload drives its server.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Provision with a snapshot directory, so the tenant has a WAL.
    pub durable: bool,
    /// Open-loop read rate of the paced phase, 1/s.
    pub paced_rate: f64,
    /// Publish rate, 1/s.
    pub publish_rate: f64,
    /// Publish beside the reads (else in a phase of its own after them).
    pub publish_beside_reads: bool,
}

/// The benchmark's one tenant over `memory`. The quota is lifted so the
/// saturated phase measures capacity, not the token bucket.
pub fn spec(memory: &AssociativeMemory) -> TenantSpec {
    TenantSpec::new(TENANT, "bench", DesignKind::Digital, memory.clone())
        .with_quota(QuotaPolicy::unlimited())
}

/// Starts a server with `ServeConfig::default()`, plus a snapshot
/// directory when given.
pub fn start(spec: TenantSpec, snapshot_dir: Option<&Path>) -> Result<Server, String> {
    let config = ServeConfig {
        snapshot_dir: snapshot_dir.map(Path::to_path_buf),
        ..ServeConfig::default()
    };
    Server::start(config, vec![spec]).map_err(|e| format!("server start: {e}"))
}

pub fn connect(server: &Server) -> Result<HamClient, String> {
    HamClient::connect(server.local_addr(), Duration::from_secs(5))
        .map_err(|e| format!("connect: {e}"))
}

pub fn tenant(server: &Server) -> Arc<TenantState> {
    Arc::clone(
        server
            .tenants()
            .get(TENANT)
            .expect("the tenant is provisioned"),
    )
}

/// One single-query request: the winning row and its distance, or why
/// there is none.
pub fn request(client: &mut HamClient, query: &Hypervector) -> ProbeAnswer {
    let response = client
        .request(TENANT, PRIORITY_NORMAL, None, std::slice::from_ref(query))
        .map_err(|e| e.to_string())?;
    if response.status != STATUS_OK {
        return Err(format!("status {}", response.status));
    }
    match response.slots.first() {
        Some(SlotResult::Hit {
            class, distance, ..
        }) => Ok((*class as usize, *distance)),
        other => Err(format!("slot {other:?}")),
    }
}

/// What the read phases measured.
#[derive(Debug, Default)]
struct Reads {
    reads: usize,
    hits: usize,
    failed: usize,
    /// Round trips of the paced rounds, µs.
    service_us: Vec<f64>,
    late_max_us: f64,
    slice_rates: Vec<f64>,
}

impl Reads {
    fn note(&mut self, read: &Read, answer: &ProbeAnswer) {
        self.reads += 1;
        match answer {
            Ok((class, _)) if *class == read.truth => self.hits += 1,
            Ok(_) => {}
            Err(_) => self.failed += 1,
        }
    }
}

/// Runs one served workload and reports its end-to-end metrics, or with
/// `--trace 1` its layer lineup.
pub fn run(args: &RunArgs, inputs: &Inputs, plan: Plan, out: &mut Outcome) -> Result<(), String> {
    let reads = &inputs.reads;
    let dir = |i: usize| plan.durable.then(|| args.work.join(format!("serve-{i}")));
    let repeats = if args.trace { 1 } else { plan.setup_repeats };
    let mut setup_s = Vec::new();
    let mut running = None;
    for i in 0..repeats {
        let spec = spec(&inputs.memory);
        let started = Instant::now();
        let server = start(spec, dir(i).as_deref())?;
        let mut client = connect(&server)?;
        let first = request(&mut client, &reads[0].query);
        setup_s.push(started.elapsed().as_secs_f64());
        first.map_err(|e| format!("first answer after setup: {e}"))?;
        if i + 1 < repeats {
            drop(client);
            server.drain();
        } else {
            running = Some((server, client));
        }
    }
    let (server, client) = running.expect("at least one setup");
    drop(client);

    let tenant = tenant(&server);
    let paced_window = args.phase(if plan.publish_beside_reads { 0.7 } else { 0.4 });
    let saturated_window = args.phase(if plan.publish_beside_reads { 0.3 } else { 0.4 });
    let publish_window = args.phase(if plan.publish_beside_reads { 1.0 } else { 0.2 });
    let publisher = |probe_client: &mut HamClient| {
        publish_paced(
            &tenant.updater(),
            &inputs.plan,
            Schedule::per_second(plan.publish_rate).jittered(args.seed),
            publish_window,
            |hv| {
                let answer = request(probe_client, hv);
                if answer.is_err() {
                    // The server closes a connection left idle past its
                    // read timeout, as when an fsync stalls the publisher:
                    // reconnect as a client would, and count the failure.
                    if let Ok(fresh) = connect(&server) {
                        *probe_client = fresh;
                    }
                }
                answer
            },
        )
    };
    let reader = || -> Result<Reads, String> {
        let schedule = Schedule::per_second(plan.paced_rate);
        let per_round = schedule.count_within(paced_window / ROUNDS);
        let mut client = connect(&server)?;
        let mut r = Reads::default();
        let mut next = 0;
        for _ in 0..ROUNDS {
            let (answers, timing) = run_paced(schedule, per_round, |i| {
                request(&mut client, &reads[(next + i) % reads.len()].query)
            });
            for (i, answer) in answers.iter().enumerate() {
                r.note(&reads[(next + i) % reads.len()], answer);
            }
            next += per_round;
            r.late_max_us = r.late_max_us.max(timing.late_max_us());
            r.service_us.extend(timing.service_us);

            let window = saturated_window / ROUNDS;
            let started = Instant::now();
            let mut answered_at = Vec::new();
            while started.elapsed() < window {
                let read = &reads[next % reads.len()];
                let answer = request(&mut client, &read.query);
                if answer.is_ok() {
                    answered_at.push(started.elapsed().as_secs_f64());
                }
                r.note(read, &answer);
                next += 1;
            }
            r.slice_rates.extend(slice_rates(
                &answered_at,
                window.as_secs_f64(),
                RATE_WINDOW_S,
            ));
        }
        Ok(r)
    };

    let (reads_result, publish) = if plan.publish_beside_reads {
        let mut probe_client = connect(&server)?;
        std::thread::scope(|scope| {
            let publishing = scope.spawn(|| publisher(&mut probe_client));
            let reads_result = reader();
            (reads_result, publishing.join().expect("publisher panicked"))
        })
    } else {
        let reads_result = reader();
        let publish = publisher(&mut connect(&server)?);
        (reads_result, publish)
    };
    let r = reads_result?;
    drop(tenant);
    server.drain();

    let recall = r.hits as f64 / r.reads as f64;
    if recall < RECALL_FLOOR {
        out.fail(format!(
            "served recall {recall:.4} is under the floor {RECALL_FLOOR}"
        ));
    }
    let e2e = E2e {
        setup_s,
        slice_rates: r.slice_rates,
        late_max_us: r.late_max_us.max(publish.late_max_us),
        latency_us: r.service_us,
        reads: r.reads,
        hits: r.hits,
        read_failed: r.failed,
        publish,
    };
    if !args.trace {
        e2e.report(out);
        return Ok(());
    }
    let untraced_p50 = e2e.report_traced(out);
    lineup::run(
        LineupInput {
            memory: &inputs.memory,
            reads,
            k: inputs.k,
            plan: &inputs.plan,
            dir: &args.work.join("lineup"),
            window: args.share(0.7),
            pace: Some(plan.paced_rate),
            publish_every: plan
                .publish_beside_reads
                .then_some(LINEUP_READS_PER_PUBLISH),
            root: "server.request",
            untraced_p50_us: untraced_p50,
            served_p50_us: Some(untraced_p50),
        },
        &args.spans_path(),
        out,
    )
}
