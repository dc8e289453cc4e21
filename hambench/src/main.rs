//! One benchmark for the HAM engine and `ham-serve`.
//!
//! ```text
//! hambench --workload <langid|neardup_topk|neardup_publish> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics of one workload;
//! with `--trace 1` it prints the per-layer lineup instead. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the run exits non-zero on any wrong answer.
//! Scratch files live under `.hambench/` in the working directory.

mod host;
mod inputs;
mod lineup;
mod load;
mod publish;
mod report;
mod served;
mod stats;
mod topk;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use crate::inputs::{LANGID_SCALE, PUBLISH_ROWS, TOPK_ROWS};
use crate::publish::PublishStats;
use crate::report::Outcome;
use crate::stats::{median, percentile, sliced_percentile};

/// The paced and saturated phases alternate in this many rounds, so a
/// host slowdown of a few seconds lands in both instead of wiping out
/// one of them.
pub const ROUNDS: u32 = 5;
/// Width of the windows a saturated phase's answers are counted in, s.
/// Throughput is the median window's rate: a host stall of a few ms
/// moves the windows it falls in, not the whole phase's mean.
pub const RATE_WINDOW_S: f64 = 0.1;

const USAGE: &str = "usage: hambench --workload <langid|neardup_topk|neardup_publish> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line plus the run's scratch directory.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
}

impl RunArgs {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err("--trace takes 0 or 1".into()),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["langid", "neardup_topk", "neardup_publish"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seed = seed.ok_or("--seed is required")?;
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let work = PathBuf::from(".hambench").join(format!("{workload}-{}", std::process::id()));
        Ok(RunArgs {
            workload,
            seed,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            work,
        })
    }

    /// A share of the measured window.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }

    /// A share of the window the end-to-end phases get: all of it, or
    /// with `--trace 1` the 30 % the lineup leaves them.
    pub fn phase(&self, fraction: f64) -> Duration {
        self.share(if self.trace { 0.3 * fraction } else { fraction })
    }

    /// Where the traced run writes its spans (the last traced run of a
    /// workload overwrites the one before).
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(".hambench").join(format!("spans-{}.jsonl", self.workload))
    }
}

/// What an untraced run measured, before it becomes metrics.
#[derive(Debug)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Answered-query rates of the saturated phase's slices, 1/s.
    pub slice_rates: Vec<f64>,
    /// Round trips of the paced (on `neardup_topk`, back-to-back) phase,
    /// each timed from its send, µs. Not from its due time: on one
    /// synchronous connection a host stall of a few ms delays every
    /// request queued behind it, and the due-time p50 swung 0.24–0.55 ms
    /// between runs of the same code, with the round trip holding steady.
    /// How late the generator ran is `loadgen.late_max_us`.
    pub latency_us: Vec<f64>,
    /// How late the paced generators ran, µs.
    pub late_max_us: f64,
    pub reads: usize,
    pub hits: usize,
    pub read_failed: usize,
    pub publish: PublishStats,
}

impl E2e {
    /// Counts requests and failures, and fails the run on any publish
    /// that never became visible.
    fn count(&self, out: &mut Outcome) {
        for why in &self.publish.invisible {
            out.fail(why.clone());
        }
        out.attempted += self.reads + self.publish.attempted;
        out.failed += self.read_failed + self.publish.failed;
    }

    /// The tails. On a shared two-vCPU host they follow host stalls and
    /// fsync spikes more than the code (run-to-run spreads up to 3.4
    /// IQR/median), so they are reported per layer instead of gated.
    fn tails(&self) -> [(&'static str, f64); 3] {
        [
            // Slices of 1,000 reads keep ten samples beyond each p99.
            (
                "tail.query_p99_us",
                sliced_percentile(&self.latency_us, 0.99, 1_000),
            ),
            (
                "tail.publish_p90_us",
                percentile(&mut self.publish.ack_us.clone(), 0.9),
            ),
            (
                "tail.visible_p90_us",
                percentile(&mut self.publish.visible_us.clone(), 0.9),
            ),
        ]
    }

    /// The end-to-end metrics of an untraced run.
    pub fn report(mut self, out: &mut Outcome) {
        self.count(out);
        for (name, value) in self.tails() {
            out.label(name, format!("{value} us"));
        }
        out.label(
            "samples",
            format!(
                "{} timed reads, {} timed publishes",
                self.latency_us.len(),
                self.publish.ack_us.len()
            ),
        );
        let answered = 1.0 - out.failed as f64 / out.attempted as f64;
        out.push("setup_s", median(&mut self.setup_s), "s");
        out.push("throughput_qps", median(&mut self.slice_rates), "1/s");
        out.push("query_p50_us", median(&mut self.latency_us), "us");
        out.push("recall", self.hits as f64 / self.reads as f64, "frac");
        out.push("answered_frac", answered, "frac");
        out.push("peak_rss_mb", host::peak_rss_mb(), "MB");
        out.push("publish_p50_us", median(&mut self.publish.ack_us), "us");
        out.push("visible_p50_us", median(&mut self.publish.visible_us), "us");
    }

    /// What a traced run keeps of its shortened untraced phases: the
    /// request counts, the generator lateness and the tails. Returns the
    /// untraced p50, µs.
    pub fn report_traced(&self, out: &mut Outcome) -> f64 {
        self.count(out);
        out.push("loadgen.late_max_us", self.late_max_us, "us");
        for (name, value) in self.tails() {
            out.push(name, value, "us");
        }
        median(&mut self.latency_us.clone())
    }
}

fn run(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("scratch dir: {e}"))?;
    let inputs = match args.workload.as_str() {
        "langid" => inputs::langid(args.seed, LANGID_SCALE),
        "neardup_topk" => inputs::neardup(args.seed, TOPK_ROWS).0,
        _ => inputs::neardup(args.seed, PUBLISH_ROWS).0,
    };
    let build_s = inputs.build_s;
    match args.workload.as_str() {
        "langid" => served::run(
            args,
            &inputs,
            served::Plan {
                setup_repeats: 31,
                durable: false,
                paced_rate: 1_000.0,
                publish_rate: 50.0,
                publish_beside_reads: false,
            },
            out,
        )?,
        "neardup_topk" => topk::run(args, &inputs, out)?,
        _ => {
            // Handed without its index, so set-up includes the build.
            let mut inputs = inputs;
            inputs.memory.drop_index();
            served::run(
                args,
                &inputs,
                served::Plan {
                    setup_repeats: 7,
                    durable: true,
                    paced_rate: 100.0,
                    publish_rate: 20.0,
                    publish_beside_reads: true,
                },
                out,
            )?
        }
    }
    if args.trace {
        out.push("workload.build_s", build_s, "s");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hambench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let result = run(&args, &mut out);
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = result {
        eprintln!("hambench: {e}");
        return ExitCode::FAILURE;
    }
    out.print(&host::fingerprint_json(&args.workload, args.seed));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
