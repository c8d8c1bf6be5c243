//! The host stamp printed with every result, and the process's peak
//! resident memory.

use multival_svc::json::Json;
use std::path::Path;
use std::process::{Command, Stdio};

/// Output of a short command, trimmed; `None` when it cannot run or fails.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new(program);
    cmd.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    // Keep git from walking up out of the checkout into an enclosing repo.
    if let Some(parent) = std::env::current_dir().ok().as_deref().and_then(Path::parent) {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = cmd.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `nproc`, CPU model, `rustc -V`, git sha with a dirty flag, build
/// profile, workload and seed.
pub fn stamp(workload: &str, seed: u64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sha = command_output("git", &["rev-parse", "HEAD"]);
    let dirty = sha
        .as_ref()
        .and_then(|_| command_output("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    Json::Obj(vec![
        ("nproc".to_owned(), Json::num(nproc as f64)),
        ("cpu".to_owned(), Json::str(cpu_model())),
        (
            "rustc".to_owned(),
            Json::str(command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned())),
        ),
        ("git_sha".to_owned(), Json::str(sha.unwrap_or_else(|| "unknown".to_owned()))),
        ("git_dirty".to_owned(), dirty.map_or(Json::Null, Json::Bool)),
        ("profile".to_owned(), Json::str(profile)),
        ("workload".to_owned(), Json::str(workload)),
        ("seed".to_owned(), Json::num(seed as f64)),
        ("trace".to_owned(), Json::Bool(trace)),
    ])
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
