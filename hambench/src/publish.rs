//! The durable-publish path: replace a row through an `OnlineUpdater`,
//! then probe until a served answer returns the new row.

use std::time::{Duration, Instant};

use ham_core::OnlineUpdater;
use hdc::prelude::*;

use crate::inputs::PublishPlan;
use crate::load::{wait_until, Schedule};
use crate::stats::us;

/// How long after its ack a published row may take to become visible
/// before the run is declared incorrect.
const VISIBILITY_TIMEOUT: Duration = Duration::from_secs(2);

/// What a probe saw: the winning row and its distance to the probe.
pub type ProbeAnswer = Result<(usize, u32), String>;

#[derive(Debug, Default)]
pub struct PublishStats {
    /// Publish call to durable ack, µs.
    pub ack_us: Vec<f64>,
    /// Publish call start to the first answer returning the new row, µs.
    pub visible_us: Vec<f64>,
    /// How late the publish schedule ran, µs.
    pub late_max_us: f64,
    /// Publishes and probes sent.
    pub attempted: usize,
    /// Publishes or probes that returned an error.
    pub failed: usize,
    /// Why a publish never became visible, one entry per publish.
    pub invisible: Vec<String>,
}

/// Publishes `plan` on `schedule` for `window`. After each ack, `probe`
/// is called with the new row until it answers with that row at distance
/// 0 — the probe is the new row itself, so nothing else can answer it at
/// distance 0.
pub fn publish_paced(
    updater: &OnlineUpdater,
    plan: &PublishPlan,
    schedule: Schedule,
    window: Duration,
    mut probe: impl FnMut(&Hypervector) -> ProbeAnswer,
) -> PublishStats {
    let mut stats = PublishStats::default();
    let start = Instant::now();
    for j in 0..schedule.count_within(window).max(1) {
        let due = start + schedule.due(j);
        wait_until(due);
        let (row, hv) = plan.replacement(j);
        stats.attempted += 1;
        let called = Instant::now();
        stats.late_max_us = stats.late_max_us.max(us(called - due));
        if let Err(e) = updater.rethreshold_row(ClassId(row), hv.clone()) {
            stats.failed += 1;
            stats
                .invisible
                .push(format!("publish {j} to row {row} failed: {e}"));
            return stats;
        }
        let acked = Instant::now();
        stats.ack_us.push(us(acked - called));
        loop {
            stats.attempted += 1;
            let answer = probe(&hv);
            match &answer {
                Ok((class, 0)) if *class == row => {
                    stats.visible_us.push(us(called.elapsed()));
                    break;
                }
                Ok(_) => {}
                Err(_) => stats.failed += 1,
            }
            if acked.elapsed() > VISIBILITY_TIMEOUT {
                // The run is incorrect already; stop rather than wait out
                // every remaining publish.
                stats.invisible.push(format!(
                    "publish {j} to row {row} never became visible; last probe: {answer:?}"
                ));
                return stats;
            }
        }
    }
    stats
}
