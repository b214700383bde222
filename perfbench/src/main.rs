//! `perfbench` — the repository's benchmark: one workload per run, end to
//! end (`--trace 0`) or split across layers (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-dtdg|train-ctdg|serve-read|serve-mixed> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! holds the run's context (git rev, cores, SIMD mode, seed, sample
//! counts). A failed output check prints the result with
//! `"correct": false` and exits 1. See `perfbench/README.md`.

mod ctdg;
mod dtdg;
mod loadgen;
mod metrics;
mod report;
mod serve;
mod stats;
mod trace;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["train-dtdg", "train-ctdg", "serve-read", "serve-mixed"];

const USAGE: &str = "usage: perfbench --workload <train-dtdg|train-ctdg|serve-read|serve-mixed> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(key) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {key}"))?;
        let bad = |what: &str| format!("invalid {what} '{value}'");
        match key.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unexpected argument '{key}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Knobs that change what the program does under measurement. A run with
/// any of them set would not measure the default configuration.
fn stgraph_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("STGRAPH_"))
        .collect()
}

/// The checked-out commit, read from `.git` when there is one.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where a traced run writes its spans, and where serving runs keep their
/// temporary model files: `.perfbench/` under the working directory.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Prints a per-layer self-time table to stderr. Rows plus the listed
/// unattributed remainder sum to `total`.
pub fn print_table(title: &str, unit: &str, rows: &[(&str, f64)], total: f64) {
    eprintln!("{title} (total {total:.3} {unit})");
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    for (name, v) in rows {
        let share = if total > 0.0 { 100.0 * v / total } else { 0.0 };
        eprintln!("  {name:<44} {v:>12.3} {unit:<3} {share:>6.1}%");
    }
    eprintln!("  {:<44} {sum:>12.3} {unit:<3}", "sum of rows");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = stgraph_env();
    if !env.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures the \
             default configuration",
            env.join(", ")
        );
        return ExitCode::from(2);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut r = Report::default();
    r.context_str("workload", &args.workload);
    r.context_num("seed", args.seed as f64);
    r.context_num("seconds", args.seconds);
    r.context_num("trace", if args.trace { 1.0 } else { 0.0 });
    r.context_str("git_rev", &git_rev());
    r.context_num("nproc", threads as f64);
    r.context_str(
        "simd",
        match (
            stgraph_tensor::simd::enabled(),
            stgraph_tensor::simd::avx2_fma(),
        ) {
            (true, true) => "avx2+fma",
            (true, false) => "portable",
            (false, _) => "off",
        },
    );

    let mut m = Metrics::default();
    let spans = match (args.workload.as_str(), args.trace) {
        ("train-dtdg", false) => {
            dtdg::run(args.seed, args.seconds, &mut r, &mut m);
            None
        }
        ("train-dtdg", true) => Some(dtdg::run_traced(args.seed, args.seconds, &mut r, &mut m)),
        ("train-ctdg", false) => {
            ctdg::run(args.seed, args.seconds, &mut r, &mut m);
            None
        }
        ("train-ctdg", true) => Some(ctdg::run_traced(args.seed, args.seconds, &mut r, &mut m)),
        (w, traced) => {
            let mix = if w == "serve-mixed" {
                serve::Mix::Mixed
            } else {
                serve::Mix::Read
            };
            let res = if traced {
                serve::run_traced(mix, args.seed, args.seconds, threads, &mut r, &mut m).map(Some)
            } else {
                serve::run(mix, args.seed, args.seconds, threads, &mut r, &mut m).map(|()| None)
            };
            match res {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("perfbench: {w}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    };
    if let Some(spans) = spans {
        let path = scratch_dir().join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => r.check(false, || {
                format!("writing spans to {}: {e}", path.display())
            }),
        }
    }

    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => m.set("peak_rss_mb", mb),
            None => r.check(false, || "VmHWM not readable from /proc/self/status".into()),
        }
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let better: Vec<String> = catalogue
        .iter()
        .map(|(n, _, b)| format!("{n}:{b}"))
        .collect();
    r.context_str("better", &better.join(","));
    for &(name, unit, _) in catalogue {
        let value = m.get(name).unwrap_or_else(|| {
            if !args.trace {
                r.check(false, || {
                    format!("end-to-end metric {name} was not measured")
                });
            }
            0.0
        });
        r.metric(name, value, unit);
    }
    println!("{}", r.context_line());
    println!("{}", r.result_line());
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        for f in &r.check_failures {
            eprintln!("perfbench: check failed: {f}");
        }
        ExitCode::from(1)
    }
}
