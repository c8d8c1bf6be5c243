//! Prints the tables of every experiment (DESIGN.md §5).
//!
//! ```text
//! cargo run -p multival-bench --bin experiments --release          # all
//! cargo run -p multival-bench --bin experiments --release e5 e7   # some
//! cargo run -p multival-bench --bin experiments --release -- --bench-json
//! ```
//!
//! `--bench-json` writes `BENCH_baseline.json` (E1/E9 state counts,
//! wall-clock times, and the 1-vs-4-thread Monte-Carlo speedup) instead of
//! running the experiment tables.

use multival_bench::{bench_baseline, run, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--bench-json") {
        let path = args
            .iter()
            .position(|a| a == "--bench-json")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "BENCH_baseline.json".to_owned());
        return match bench_baseline().and_then(|json| Ok(std::fs::write(&path, json)?)) {
            Ok(()) => {
                println!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("--bench-json failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let ids: Vec<&str> = if args.is_empty() {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut failed = false;
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(72));
        }
        match run(id) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
