//! Seeded macro-benchmark suite: the producer of the repo-root
//! `BENCH_<n>.json` perf baselines.
//!
//! Runs the fixed workload suite from `rein_bench::perf` — representative
//! detectors, repairs, one ML fit and one end-to-end S1 scenario — at the
//! `REIN_SCALE`-controlled dataset sizes, `REIN_REPEATS` (default 7)
//! repeats each, and writes the timings, throughput, allocation stats and
//! span-path profile as a deterministic-ordered JSON report. The report
//! also carries the parallel-grid threads axis: the controller grid
//! timed under scoped pools of 1, 2, 4 and `REIN_THREADS` workers, with
//! speedups relative to the serial run.
//!
//! ```text
//! cargo run --release -p rein-bench --bin perf_baseline [-- --out PATH]
//! ```
//!
//! Without `--out` the report lands at the first free `BENCH_<n>.json`
//! at the current directory. Compare two baselines with `bench_compare`.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use rein_bench::perf::{next_bench_path, run_perf_suite};
use rein_telemetry::perf::CountingAllocator;

// The counting allocator makes the report's allocation columns real;
// every other binary runs on the system allocator untouched.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Master seed of the suite; fixed so baselines are comparable.
const SUITE_SEED: u64 = 90;

fn parse_args() -> Result<Option<std::path::PathBuf>, String> {
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                let path = args.next().ok_or("--out requires a path".to_string())?;
                out = Some(std::path::PathBuf::from(path));
            }
            other => return Err(format!("unknown argument {other:?} (expected --out PATH)")),
        }
    }
    Ok(out)
}

fn main() {
    let out = match parse_args() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let setup = rein_bench::phase("setup");
    let scale = rein_bench::scale();
    let repeats = rein_bench::perf_repeats();
    let path = out.unwrap_or_else(|| next_bench_path(std::path::Path::new(".")));
    rein_bench::header("perf baseline");
    println!("scale {scale}, {repeats} repeats, seed {SUITE_SEED}");
    drop(setup);

    let measure = rein_bench::phase("measure");
    // The threads axis is only worth recording when the host can
    // actually run pools wider than one worker: on a single-core host
    // every width measures the same serial grid plus pool overhead, and
    // `bench_compare` would refuse to pair the rows against a multi-core
    // baseline anyway.
    let widths: Vec<u32> = if rein_bench::perf::single_core_host() {
        println!("single-core host: skipping the parallel-grid threads axis");
        Vec::new()
    } else {
        vec![1, 2, 4, rein_bench::worker_threads()]
    };
    let report = run_perf_suite("perf_baseline", scale, repeats, SUITE_SEED, &widths);
    drop(measure);

    let emit = rein_bench::phase("report");
    rein_bench::row(&["benchmark".into(), "median ms".into(), "cells/s".into(), "allocs".into()]);
    for b in &report.benchmarks {
        rein_bench::row(&[
            b.id.clone(),
            rein_bench::f(b.timing.median_ms),
            rein_bench::f(b.cells_per_sec),
            b.alloc.allocs_per_repeat.first().copied().unwrap_or(0).to_string(),
        ]);
    }
    if !report.thread_axis.is_empty() {
        println!("\nparallel grid, by pool width:");
        rein_bench::row(&["threads".into(), "median ms".into(), "speedup".into()]);
        for p in &report.thread_axis {
            rein_bench::row(&[
                p.threads.to_string(),
                rein_bench::f(p.timing.median_ms),
                rein_bench::f(p.speedup),
            ]);
        }
    }
    if let Err(e) = report.write_to(&path) {
        eprintln!("error: write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("perf report: {}", path.display());
    drop(emit);

    rein_bench::conclude("perf_baseline", SUITE_SEED, 0);
}
