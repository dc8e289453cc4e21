//! The host fingerprint stamped into every result.

use std::path::Path;

/// Threads, kernel backend, CPU model and source revision, as one JSON
/// object.
pub fn fingerprint_json(workload: &str, seed: u64) -> String {
    format!(
        r#"{{"workload":"{}","seed":{},"threads":{},"backend":"{}","cpu":"{}","git_rev":"{}"}}"#,
        workload,
        seed,
        hdc::available_threads(),
        hdc::active_backend_name(),
        escape(&cpu_model()),
        escape(&git_rev(Path::new(".git"))),
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit the working tree is at, read from the git directory
/// without running git; "unknown" outside a git checkout.
fn git_rev(git_dir: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git_dir.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git_dir.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
