//! Chaos smoke test: runs a full S1 detection + repair grid twice — once
//! fault-free, once under seeded fault injection — and asserts that
//!
//! 1. exactly the injected cells degrade (each with a structured
//!    failure of the expected cause),
//! 2. every non-injected cell's output is byte-identical between the
//!    two runs (serialized masks and repaired versions compared as
//!    strings), and
//! 3. every injected failure is causally attributed: its failure record
//!    links a cell trace id, that trace's root is the injected cell,
//!    the tree carries a `guard:fail:*` instant event — and no
//!    *other* cell trace carries one.
//!
//! The injection spec comes from `REIN_CHAOS` when set, otherwise the
//! built-in default targets one detector (panic) and one repair cell
//! (budget stall). Exit codes: `3` (the standard degraded-run exit from
//! [`rein_bench::conclude`]) on success — the chaos run *did* degrade
//! cells, and the manifest records them; `4` when a non-injected cell
//! diverged; `5` when the failure set differs from the injection spec;
//! `2` for a bad environment.
//!
//! `--dump-cells PATH` additionally writes the fault-free grid's
//! serialized cells to `PATH` — CI runs the smoke at `REIN_THREADS=1`
//! and `REIN_THREADS=4` and asserts the two dumps hash identically.

// Benchmark bins emit their report tables on stdout and errors on stderr
// by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use rein_bench::{conclude, dataset, dump_cells, header, install_thread_pool, phase};
use rein_core::{ChaosSpec, Controller, GuardPolicy};
use rein_datasets::DatasetId;

/// One detector panics; one (detector, repairer) cell stalls.
const DEFAULT_SPEC: &str = "detect:raha=panic,repair:impute_mean_mode#max_entropy=stall";

fn main() {
    let setup = phase("setup");
    install_thread_pool();
    let dump_path = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let spec_text = rein_bench::env_var("REIN_CHAOS").unwrap_or_else(|| DEFAULT_SPEC.to_string());
    let chaos = match ChaosSpec::parse(&spec_text) {
        Ok(c) if !c.is_empty() => c,
        Ok(_) => {
            eprintln!("error: chaos smoke needs at least one injection rule");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: REIN_CHAOS={spec_text:?} is invalid: {e}");
            std::process::exit(2);
        }
    };
    let ds = dataset(DatasetId::BreastCancer, 29);
    drop(setup);

    header("Chaos smoke — S1 grid under fault injection");
    println!("dataset: {} ({} rows)", ds.info.name, ds.dirty.n_rows());
    println!("spec:    {spec_text}");

    let baseline_phase = phase("baseline");
    let clean_ctrl = Controller { label_budget: 50, seed: 29, ..Controller::default() };
    let baseline = clean_ctrl.run_grid(&ds, &[], 0);
    drop(baseline_phase);
    let baseline_failures = rein_telemetry::failures_snapshot();
    if !baseline_failures.is_empty() {
        eprintln!("error: fault-free run degraded {} cell(s)", baseline_failures.len());
        std::process::exit(5);
    }
    if let Some(path) = &dump_path {
        match dump_cells(path, &baseline) {
            Ok(()) => println!("cells dump: {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }

    let chaos_phase = phase("chaos");
    let chaos_ctrl = Controller {
        label_budget: 50,
        seed: 29,
        policy: GuardPolicy::with_chaos(chaos.clone()),
        ..Controller::default()
    };
    let injected = chaos_ctrl.run_grid(&ds, &[], 0);
    drop(chaos_phase);

    let verify = phase("verify");
    // Every injected rule must have produced at least one failure, and
    // every failure must trace back to an injected rule.
    let failures = rein_telemetry::failures_snapshot();
    println!("\n{} failure record(s):", failures.len());
    for f in &failures {
        println!(
            "  {}:{}@{}#{} -> {} (attempts {})",
            f.phase, f.strategy, f.dataset, f.scope, f.cause, f.attempts
        );
    }
    if failures.len() != chaos.len() {
        eprintln!(
            "error: {} injection rule(s) but {} failure record(s)",
            chaos.len(),
            failures.len()
        );
        std::process::exit(5);
    }
    for f in &failures {
        let covered =
            chaos.rules().iter().any(|r| r.phase.name() == f.phase && r.strategy == f.strategy);
        if !covered {
            eprintln!(
                "error: failure {}:{} does not match any injection rule",
                f.phase, f.strategy
            );
            std::process::exit(5);
        }
    }

    // Causal attribution: each failure record links the trace of the
    // cell it was injected into, and the failure instant sits on that
    // trace — and only there.
    let spans = rein_telemetry::snapshot_spans();
    let forest = rein_telemetry::build_traces(&spans);
    fn count_fail_instants(node: &rein_telemetry::TraceNode) -> usize {
        usize::from(node.instant && node.name.starts_with("guard:fail:"))
            + node.children.iter().map(count_fail_instants).sum::<usize>()
    }
    for f in &failures {
        if f.trace_id.is_empty() {
            eprintln!("error: failure {}:{} carries no trace link", f.phase, f.strategy);
            std::process::exit(5);
        }
        let Some(trace) = forest.traces.iter().find(|t| t.trace_hex() == f.trace_id) else {
            eprintln!(
                "error: failure {}:{} links trace {} but no such trace exists",
                f.phase, f.strategy, f.trace_id
            );
            std::process::exit(5);
        };
        let expected_root = if f.scope.is_empty() {
            format!("cell:{}:{}", f.phase, f.strategy)
        } else {
            format!("cell:{}:{}#{}", f.phase, f.strategy, f.scope)
        };
        if trace.root.name != expected_root {
            eprintln!(
                "error: failure {}:{} links trace {} rooted at {:?}, expected {:?}",
                f.phase, f.strategy, f.trace_id, trace.root.name, expected_root
            );
            std::process::exit(5);
        }
        if count_fail_instants(&trace.root) == 0 {
            eprintln!(
                "error: trace {} ({}) carries no guard:fail instant",
                f.trace_id, trace.root.name
            );
            std::process::exit(5);
        }
    }
    let failing_traces = forest.traces.iter().filter(|t| count_fail_instants(&t.root) > 0).count();
    if failing_traces != failures.len() {
        eprintln!(
            "error: {failing_traces} trace(s) carry failure instants but {} cell(s) failed",
            failures.len()
        );
        std::process::exit(5);
    }
    println!("{} failure(s) causally attributed to their injected cell traces", failures.len());

    // Non-injected cells must match the fault-free run byte-for-byte.
    let failed_keys: Vec<String> = failures
        .iter()
        .map(|f| {
            if f.scope.is_empty() {
                format!("{}:{}", f.phase, f.strategy)
            } else {
                format!("{}:{}#{}", f.phase, f.strategy, f.scope)
            }
        })
        .collect();
    // A degraded detector also changes every repair cell it feeds.
    let affected = |key: &str| {
        failed_keys.iter().any(|fk| {
            key == fk
                || (fk.starts_with("detect:")
                    && key.starts_with("repair:")
                    && key.ends_with(&format!("#{}", &fk["detect:".len()..])))
        })
    };
    let mut checked = 0usize;
    let mut diverged = 0usize;
    for (key, bytes) in &baseline {
        if affected(key) {
            continue;
        }
        checked += 1;
        match injected.get(key) {
            Some(other) if other == bytes => {}
            Some(_) => {
                eprintln!("error: non-injected cell {key} diverged under chaos");
                diverged += 1;
            }
            None => {
                eprintln!("error: cell {key} missing from the chaos run");
                diverged += 1;
            }
        }
    }
    drop(verify);
    println!(
        "\n{checked} non-injected cell(s) byte-identical; {} degraded as injected",
        failures.len()
    );
    if diverged > 0 {
        std::process::exit(4);
    }
    conclude("chaos_smoke", 29, 50);
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
