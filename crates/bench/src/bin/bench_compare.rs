//! Wilcoxon-gated perf regression comparator for `BENCH_<n>.json`
//! reports produced by `perf_baseline`.
//!
//! ```text
//! cargo run -p rein-bench --bin bench_compare -- BASELINE CURRENT \
//!     [--alpha 0.05] [--threshold 1.10] [--report-only]
//! cargo run -p rein-bench --bin bench_compare -- --self-test
//! ```
//!
//! A benchmark regresses when the paired Wilcoxon signed-rank test over
//! its repeat timings rejects at `alpha` *and* the median slowdown
//! exceeds `threshold`. Exit codes: 0 = no regressions (or
//! `--report-only`), 1 = regressions found, 2 = usage or I/O error.
//!
//! `--self-test` proves the gate end to end on synthetic data: identical
//! reports compare clean, and an injected 2× slowdown is flagged at
//! p < 0.05.
#![allow(clippy::print_stdout, clippy::print_stderr)]
// audit:allow-file(telemetry-phases, comparator tool over existing reports, not a benchmark run — no phases or manifest to record)

use std::path::PathBuf;

use rein_bench::perf::CompareConfig;
use rein_bench::perf::{comparator_self_test, compare_reports, render_comparison, BenchReport};

struct Args {
    baseline: PathBuf,
    current: PathBuf,
    cfg: CompareConfig,
    report_only: bool,
}

const USAGE: &str = "usage: bench_compare BASELINE CURRENT \
                     [--alpha A] [--threshold R] [--report-only] | --self-test";

fn parse_args() -> Result<Option<Args>, String> {
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut cfg = CompareConfig::default();
    let mut report_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--self-test" => return Ok(None),
            "--report-only" => report_only = true,
            "--alpha" => {
                let raw = args.next().ok_or("--alpha requires a value")?;
                cfg.alpha = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|a| *a > 0.0 && *a < 1.0)
                    .ok_or(format!("--alpha {raw:?}: want a number in (0, 1)"))?;
            }
            "--threshold" => {
                let raw = args.next().ok_or("--threshold requires a value")?;
                cfg.min_ratio = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|r| *r > 1.0 && r.is_finite())
                    .ok_or(format!("--threshold {raw:?}: want a ratio > 1, e.g. 1.10"))?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}\n{USAGE}"))
            }
            _ => positional.push(PathBuf::from(arg)),
        }
    }
    match positional.len() {
        2 => {
            let mut it = positional.into_iter();
            let baseline = it.next().unwrap();
            let current = it.next().unwrap();
            Ok(Some(Args { baseline, current, cfg, report_only }))
        }
        _ => Err(format!("expected exactly two report paths\n{USAGE}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => match comparator_self_test() {
            Ok(summary) => {
                println!("{summary}");
                return;
            }
            Err(e) => {
                eprintln!("error: comparator self-test failed: {e}");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let load = |path: &PathBuf| match BenchReport::load(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let baseline = load(&args.baseline);
    let current = load(&args.current);
    if baseline.env.scale != current.env.scale {
        eprintln!(
            "warning: comparing different scales (baseline {}, current {}); \
             ratios mix workload size with speed",
            baseline.env.scale, current.env.scale
        );
    }
    if baseline.env.threads != current.env.threads
        || baseline.env.single_core != current.env.single_core
    {
        let describe = |env: &rein_bench::perf::BenchEnv| {
            format!(
                "{} thread(s){}",
                env.threads,
                if env.single_core { ", single-core host" } else { "" }
            )
        };
        eprintln!("==================================================================");
        eprintln!("WARNING: core counts differ between the two reports.");
        eprintln!("  baseline: {}", describe(&baseline.env));
        eprintln!("  current:  {}", describe(&current.env));
        eprintln!("Timing ratios below mix hardware parallelism with code speed;");
        eprintln!("parallel-grid regressions/improvements reported here are NOT");
        eprintln!("attributable to the code change. Re-run both reports on the");
        eprintln!("same machine (or pin RAYON_NUM_THREADS) before trusting them.");
        eprintln!("==================================================================");
    }

    let cmp = compare_reports(&baseline, &current, &args.cfg);
    print!("{}", render_comparison(&cmp));
    if cmp.regressions > 0 && !args.report_only {
        std::process::exit(1);
    }
}
