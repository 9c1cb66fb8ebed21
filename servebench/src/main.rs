//! Closed-loop serving benchmark for `gpes_core::serve::Engine`.
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- \
//!     --workload kernel-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client thread drives a 2-worker engine. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer ones from a replay timed
//! from outside. The last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `servebench/README.md`
//! documents every metric and workload.

mod bench;
mod trace;
mod workloads;

use bench::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{CnnPipeline, KernelHot, TenantKernels, Workload, WORKERS};

/// Variables that change what every context executes behind the
/// benchmark's back; a run under either would not measure the pinned mode.
const FORBIDDEN_ENV: [&str; 2] = ["GPES_EXECUTOR", "GPES_TEST_DISPATCH"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checkout's commit, read from `.git` when there is one.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn run_workload<W: Workload>(
    mut w: W,
    args: &Args,
) -> Result<(Report, usize, Option<PathBuf>), gpes_core::ComputeError> {
    let trace_to = args.trace.then(|| {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.to_path_buf()))
            .unwrap_or_default();
        dir.join("servebench-trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
    });
    let report = bench::run(&mut w, args.seconds, trace_to.as_deref())?;
    Ok((report, w.in_flight(), trace_to))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload kernel-hot|cnn-pipeline|tenant-churn|tenant-reuse \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("servebench: refusing to run with {var} set; it overrides the pinned exec mode");
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "kernel-hot" => KernelHot::new(args.seed).and_then(|w| run_workload(w, &args)),
        "cnn-pipeline" => CnnPipeline::new(args.seed).and_then(|w| run_workload(w, &args)),
        "tenant-churn" => run_workload(TenantKernels::churn(args.seed), &args),
        "tenant-reuse" => run_workload(TenantKernels::reuse(args.seed), &args),
        other => {
            eprintln!("servebench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let (report, in_flight, trace_to) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# servebench {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{nproc},\
         \"git_rev\":\"{}\",\"exec_mode\":\"{}\",\"workers\":{WORKERS},\"in_flight\":{in_flight},\
         \"spans\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        git_rev(),
        report.exec_mode,
        trace_to
            .map(|p| p.display().to_string())
            .unwrap_or_default(),
    );
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The correctness gate must bite: one corrupted expected output makes
    /// requests fail, and the same run without it fails none.
    #[test]
    fn corrupted_expected_output_counts_as_failed() {
        let clean =
            bench::run(&mut KernelHot::new(3).expect("kernel-hot"), 0.2, None).expect("clean run");
        assert_eq!(clean.failed, 0);
        let mut corrupted = KernelHot::new(3).expect("kernel-hot");
        corrupted.expected[1][7] += 1.0;
        let report = bench::run(&mut corrupted, 0.2, None).expect("corrupted run");
        assert!(report.attempted > 0);
        assert!(report.failed > 0, "the corrupted output was never caught");
    }
}
