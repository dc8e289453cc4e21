//! The in-process workload (`neardup_topk`): `search_top_k` on an
//! `AssociativeMemory` with the default `Auto` strategy, checked against
//! a `Direct` reference.

use std::sync::Arc;
use std::time::Instant;

use ham_core::resilience::{Wal, WalOptions};
use ham_core::{IndexPolicy, OnlineUpdater, VersionedMemory};
use ham_workloads::strategy_label;
use hdc::prelude::*;
use hdc::IndexBuildOptions;

use crate::inputs::{Inputs, Read};
use crate::lineup::{self, LineupInput};
use crate::load::{closed_loop, Schedule};
use crate::publish::publish_paced;
use crate::report::Outcome;
use crate::stats::{slice_rates, us};
use crate::{E2e, RunArgs, RATE_WINDOW_S, ROUNDS};

/// Distinct queries a run cycles through; each has a `Direct` reference
/// answer computed at setup.
const QUERIES: usize = 512;
/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Publishes per second in the publish phase.
const PUBLISH_RATE: f64 = 50.0;

type Ranking = Vec<(ClassId, Distance)>;

/// Answers checked against the reference.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    reads: usize,
    hits: usize,
    wrong: usize,
}

impl Tally {
    fn note(&mut self, read: &Read, got: &Ranking, reference: &Ranking) {
        self.reads += 1;
        if got != reference {
            self.wrong += 1;
        }
        if got.iter().any(|(class, _)| class.0 == read.truth) {
            self.hits += 1;
        }
    }

    fn add(&mut self, other: Tally) {
        self.reads += other.reads;
        self.hits += other.hits;
        self.wrong += other.wrong;
    }
}

pub fn run(args: &RunArgs, inputs: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let k = inputs.k;
    let reads: Vec<Read> = inputs.reads.iter().take(QUERIES).cloned().collect();
    let direct = inputs
        .memory
        .clone()
        .with_scan_strategy(ScanStrategy::Direct);
    let reference: Vec<Ranking> = reads
        .iter()
        .map(|r| direct.search_top_k(&r.query, k))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reference scan: {e}"))?;
    drop(direct);

    // Set-up: the index build and the first answer.
    let mut setup_s = Vec::new();
    let mut memory = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPEATS } {
        let mut m = inputs.memory.clone();
        m.drop_index();
        let started = Instant::now();
        m.build_index(IndexBuildOptions::default());
        m.set_scan_strategy(ScanStrategy::Auto);
        let first = m.search_top_k(&reads[0].query, k);
        setup_s.push(started.elapsed().as_secs_f64());
        if first.as_ref().ok() != Some(&reference[0]) {
            out.fail("first answer after set-up differs from the Direct reference".into());
        }
        memory = Some(m);
    }
    let memory = memory.expect("at least one setup");
    if !args.trace {
        out.label("am.strategy", strategy_label(memory.resolved_strategy()));
    }

    let search = |i: usize, tally: &mut Tally| {
        let read = &reads[i % reads.len()];
        let got = memory.search_top_k(&read.query, k).unwrap_or_default();
        tally.note(read, &got, &reference[i % reads.len()]);
    };
    let mut latency_us = Vec::new();
    let mut rates = Vec::new();
    let mut tally = Tally::default();
    for _ in 0..ROUNDS {
        // Latency: one thread calling back to back.
        let started = Instant::now();
        while started.elapsed() < args.phase(0.4) / ROUNDS {
            let t = Instant::now();
            search(latency_us.len(), &mut tally);
            latency_us.push(us(t.elapsed()));
        }
        // Saturation: two threads in a closed loop.
        let window = args.phase(0.4) / ROUNDS;
        let started = Instant::now();
        let workers = closed_loop(2, window, |w, deadline| {
            let mut tally = Tally::default();
            let mut answered_at = Vec::new();
            let mut i = w;
            while Instant::now() < deadline {
                search(i, &mut tally);
                answered_at.push(started.elapsed().as_secs_f64());
                i += 2;
            }
            (tally, answered_at)
        });
        let mut answered_at = Vec::new();
        for (t, at) in workers {
            tally.add(t);
            answered_at.extend(at);
        }
        rates.extend(slice_rates(
            &answered_at,
            window.as_secs_f64(),
            RATE_WINDOW_S,
        ));
    }
    check(&tally, out);

    // Durable publishes through the library's online-update path; a
    // publish is visible once a top-k search on the published version
    // returns the new row.
    let wal = Wal::open(&args.work.join("wal"), memory.dim(), WalOptions::default())
        .map_err(|e| format!("wal open: {e}"))?;
    let versioned = Arc::new(VersionedMemory::new(memory.clone()));
    let updater = OnlineUpdater::new(Arc::clone(&versioned))
        .with_index_policy(IndexPolicy::default())
        .with_wal(Arc::new(wal));
    let publish_window = args.phase(0.2);
    let publish = publish_paced(
        &updater,
        &inputs.plan,
        Schedule::per_second(PUBLISH_RATE).jittered(args.seed),
        publish_window,
        |hv| {
            let version = versioned.load();
            match version.memory().search_top_k(hv, 1) {
                Ok(top) => top
                    .first()
                    .map(|(class, d)| (class.0, d.as_usize() as u32))
                    .ok_or_else(|| "empty ranking".to_string()),
                Err(e) => Err(e.to_string()),
            }
        },
    );

    let e2e = E2e {
        setup_s,
        slice_rates: rates,
        latency_us,
        late_max_us: publish.late_max_us,
        reads: tally.reads,
        hits: tally.hits,
        read_failed: 0,
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
            reads: &reads,
            k,
            plan: &inputs.plan,
            dir: &args.work.join("lineup"),
            window: args.share(0.7),
            pace: None,
            publish_every: None,
            root: "am.top_k",
            untraced_p50_us: untraced_p50,
            served_p50_us: None,
        },
        &args.spans_path(),
        out,
    )
}

fn check(tally: &Tally, out: &mut Outcome) {
    if tally.wrong > 0 {
        out.fail(format!(
            "{} of {} top-k answers differ from the Direct reference",
            tally.wrong, tally.reads
        ));
    }
}
