//! Parallel-determinism smoke test: runs the full S1–S5 benchmark grid
//! (detection → repair → scenario evaluation) under scoped rayon pools
//! of 1, 4 and N worker threads in one process, and asserts that every
//! serialized grid cell is byte-identical across the three runs.
//!
//! This is the runtime half of the parallel-grid certification: the
//! static half is `rein-audit`'s `par-*` rule family, which proves the
//! sharded code derives seeds per cell, merges through registered
//! combiners, and shares no unsynchronized state. The smoke test closes
//! the loop chaos-style — if any worker-count-dependent behaviour slips
//! past the analyzer, the byte comparison catches it here.
//!
//! The same invariance is asserted for the causal trace layer: each
//! run's span stream is reconstructed into per-cell trace trees, every
//! trace-carrying span must be reachable from a `cell:*` root (no
//! orphans), and the canonical Chrome-trace and flamegraph exports must
//! be byte-identical across pool widths — the trace tree is a function
//! of the grid, not of the scheduler.
//!
//! Exit codes: `0` on success, `4` when any cell or trace export
//! differs between thread counts (or a causal tree is broken), `5` when
//! a run degraded cells (the grid must be fault-free under the default
//! policy), `2` for a bad environment.

// Benchmark bins emit their report tables on stdout and errors on stderr
// by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::collections::BTreeMap;

use rein_bench::{conclude, dataset, dump_cells, header, phase, worker_threads};
use rein_core::{Controller, Scenario};
use rein_datasets::{DatasetId, GeneratedDataset};

const SEED: u64 = 31;
const LABEL_BUDGET: usize = 50;
const REPEATS: usize = 1;

/// The canonical trace exports of one grid run — byte-comparable
/// across pool widths because the exporter erases wall-clock, worker
/// identity and span-id allocation order.
struct TraceCheck {
    chrome: String,
    flame: String,
    traces: usize,
}

/// Reconstructs the run's causal trace trees and renders the canonical
/// exports, enforcing the structural invariants on the way: no orphan
/// spans, and every trace rooted at a `cell:*` span.
fn trace_check(threads: usize) -> TraceCheck {
    let spans = rein_telemetry::snapshot_spans();
    let forest = rein_telemetry::build_traces(&spans);
    if !forest.orphans.is_empty() {
        eprintln!("error: the {threads}-thread run left {} orphan span(s):", forest.orphans.len());
        for o in &forest.orphans {
            eprintln!(
                "  {:?} (id {}) on trace {:016x}, parent {}",
                o.name, o.id, o.trace_id, o.parent_id
            );
        }
        std::process::exit(4);
    }
    for t in &forest.traces {
        if !t.root.name.starts_with("cell:") {
            eprintln!(
                "error: trace {} is rooted at {:?}, not a cell span",
                t.trace_hex(),
                t.root.name
            );
            std::process::exit(4);
        }
    }
    TraceCheck {
        chrome: rein_telemetry::chrome_trace_json(&forest),
        flame: rein_telemetry::flamegraph_svg(&forest),
        traces: forest.traces.len(),
    }
}

/// Runs the S1–S5 grid inside a scoped pool of exactly `threads`
/// workers and returns the serialized cells plus the canonical trace
/// exports. Telemetry is reset first so each run's failure set and span
/// stream stand alone.
fn grid_at(threads: usize, ds: &GeneratedDataset) -> (BTreeMap<String, String>, TraceCheck) {
    rein_telemetry::reset();
    let run = phase(&format!("grid-{threads}"));
    let pool = match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot build a {threads}-thread pool: {e}");
            std::process::exit(2);
        }
    };
    let ctrl = Controller { label_budget: LABEL_BUDGET, seed: SEED, ..Controller::default() };
    let cells = pool.install(|| ctrl.run_grid(ds, &Scenario::ALL, REPEATS));
    drop(run);
    let failures = rein_telemetry::failures_snapshot();
    if !failures.is_empty() {
        eprintln!("error: the {threads}-thread run degraded {} cell(s):", failures.len());
        for f in &failures {
            eprintln!("  {}:{}@{}#{} -> {}", f.phase, f.strategy, f.dataset, f.scope, f.cause);
        }
        std::process::exit(5);
    }
    let traces = trace_check(threads);
    (cells, traces)
}

/// Reports the cells that differ between two runs; returns their count.
fn diff(
    label: &str,
    reference: &BTreeMap<String, String>,
    other: &BTreeMap<String, String>,
) -> usize {
    let mut diverged = 0usize;
    for (key, bytes) in reference {
        match other.get(key) {
            Some(b) if b == bytes => {}
            Some(_) => {
                eprintln!("error: cell {key} diverged at {label}");
                diverged += 1;
            }
            None => {
                eprintln!("error: cell {key} missing at {label}");
                diverged += 1;
            }
        }
    }
    for key in other.keys() {
        if !reference.contains_key(key) {
            eprintln!("error: extra cell {key} at {label}");
            diverged += 1;
        }
    }
    diverged
}

fn main() {
    let setup = phase("setup");
    let dump_path = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let ds = dataset(DatasetId::BreastCancer, SEED);
    drop(setup);

    header("Parallel smoke — S1–S5 grid byte-identity across pool widths");
    println!("dataset: {} ({} rows)", ds.info.name, ds.dirty.n_rows());

    // 1, 4, and the configured width (REIN_THREADS or the machine's
    // core count) — deduplicated, reference first.
    let native = worker_threads() as usize;
    let mut widths = vec![1usize, 4, native];
    widths.sort_unstable();
    widths.dedup();
    println!("pool widths: {widths:?} (native {native})");

    let (reference, ref_traces) = grid_at(widths[0], &ds);
    println!(
        "{} cell(s), {} cell trace(s) at {} thread(s)",
        reference.len(),
        ref_traces.traces,
        widths[0]
    );
    if let Some(path) = &dump_path {
        match dump_cells(path, &reference) {
            Ok(()) => println!("cells dump: {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }

    let compare = phase("compare");
    let mut diverged = 0usize;
    for &w in &widths[1..] {
        let (cells, traces) = grid_at(w, &ds);
        let label = format!("{w} thread(s) vs {}", widths[0]);
        diverged += diff(&label, &reference, &cells);
        if traces.chrome != ref_traces.chrome {
            eprintln!("error: Chrome trace export diverged at {label}");
            diverged += 1;
        }
        if traces.flame != ref_traces.flame {
            eprintln!("error: flamegraph export diverged at {label}");
            diverged += 1;
        }
        if diverged == 0 {
            println!(
                "{} cell(s) and {} canonical trace(s) byte-identical at {label}",
                cells.len(),
                traces.traces
            );
        }
    }
    drop(compare);

    if diverged > 0 {
        eprintln!("error: {diverged} cell(s)/export(s) depend on the worker-thread count");
        std::process::exit(4);
    }
    println!("\ngrid and trace exports are worker-count invariant across {widths:?} threads");
    conclude("parallel_smoke", SEED, LABEL_BUDGET as u64);
}

/// Parses the binary's arguments: only `--dump-cells PATH` is accepted.
fn parse_args() -> Result<Option<std::path::PathBuf>, String> {
    let mut args = std::env::args().skip(1);
    let mut dump = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dump-cells" => {
                let path = args.next().ok_or("--dump-cells needs a PATH argument")?;
                dump = Some(std::path::PathBuf::from(path));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(dump)
}
