//! Crash smoke test: proves the durable cell store's kill-resume
//! contract end to end (DESIGN.md §6j).
//!
//! The parent process re-invokes itself (`--child`) to run one
//! store-backed S1 grid per scenario, because a faithful crash test
//! must actually die: `REIN_CRASH` aborts the child with no unwinding,
//! exactly like `kill -9` at a journal commit point. Scenarios:
//!
//! 1. **reference** — store-less run; its cell dump is the byte-level
//!    ground truth every later dump must equal.
//! 2. **cold** — empty store; every cell misses, computes and commits.
//! 3. **kill-resume** — for each injection point (detect/repair/eval ×
//!    before/after), a fresh store, a child killed mid-commit, then a
//!    resume child that must exit clean with a dump byte-identical to
//!    the reference and nothing quarantined.
//! 4. **corruption** — the last journal byte is flipped; the resume
//!    must quarantine exactly one `checksum-mismatch` stretch (the
//!    report names it), recompute the lost cell, and still match the
//!    reference byte-for-byte.
//! 5. **warm** — a fully-warm store must serve every cell (100% hits,
//!    ≥90% required), with zero recomputed-cell divergence.
//!
//! Exit codes: `0` success; `2` bad environment/setup; `4` a resumed or
//! warm dump diverged from the reference; `6` a crash did not fire, a
//! resume failed, or corruption went unrecovered; `7` the quarantine
//! set differs from the injected corruption.

// Benchmark bins emit their report tables on stdout and errors on stderr
// by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::Path;
use std::process::Command;

use rein_bench::{controller, dataset, dump_cells, header, phase};
use rein_core::Scenario;
use rein_datasets::DatasetId;

const SEED: u64 = 37;
const BUDGET: usize = 50;

/// Injection points covering every commit phase on both sides of the
/// durable append. Coordinates name cells the BreastCancer S1 plan is
/// guaranteed to contain (the same ones `chaos_smoke` injects into).
const CRASH_POINTS: [&str; 4] = [
    "detect:raha=after",
    "repair:impute_mean_mode#max_entropy=before",
    "repair:impute_mean_mode#max_entropy=after",
    "eval:S1:impute_mean_mode#max_entropy=before",
];

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("--child") => {
            let store = args.next().unwrap_or_default();
            let dump = args.next().unwrap_or_default();
            let stats = args.next().unwrap_or_default();
            if store.is_empty() || dump.is_empty() || stats.is_empty() {
                eprintln!("error: --child needs STORE DUMP STATS arguments");
                std::process::exit(2);
            }
            child(&store, Path::new(&dump), Path::new(&stats));
        }
        Some(other) => {
            eprintln!("error: unknown argument {other:?}");
            std::process::exit(2);
        }
        None => parent(),
    }
}

/// One store-backed grid run inside its own process: the unit the
/// parent kills, resumes and compares. Writes the grid's cell dump and
/// a JSON snapshot of the telemetry counters (store hits/misses/
/// replays/divergence/quarantine), then exits 0.
fn child(store: &str, dump: &Path, stats: &Path) -> ! {
    // The store selector arrives as an argument, not ambient state: the
    // parent owns which scenario uses which store root.
    std::env::set_var("REIN_STORE", store);
    let setup = phase("setup");
    let ds = dataset(DatasetId::BreastCancer, SEED);
    let ctrl = controller(BUDGET, SEED);
    drop(setup);
    let grid = phase("grid");
    let cells = ctrl.run_grid(&ds, &[Scenario::S1], 1);
    drop(grid);
    let emit = phase("emit");
    if let Err(e) = dump_cells(dump, &cells) {
        eprintln!("error: cannot write {}: {e}", dump.display());
        std::process::exit(2);
    }
    let counters = rein_telemetry::counters_snapshot();
    let json = serde_json::to_string_pretty(&counters).expect("counters serialize");
    if let Err(e) = rein_telemetry::atomic_write(stats, json.as_bytes()) {
        eprintln!("error: cannot write {}: {e}", stats.display());
        std::process::exit(2);
    }
    drop(emit);
    rein_bench::write_run_manifest("crash_smoke", SEED, BUDGET as u64);
    std::process::exit(0);
}

/// Orchestrates the scenarios and verdicts.
fn parent() -> ! {
    header("Crash smoke — kill-resume recovery of the durable cell store");
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own binary: {e}");
            std::process::exit(2);
        }
    };
    let work = std::env::temp_dir().join(format!("rein-crash-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }

    // 1. Reference: store-less ground truth.
    let reference = work.join("reference.dump");
    run_child(&exe, &work, "off", "reference", &reference);
    let want = read_dump(&reference);

    // 2. Cold store: everything misses, computes, commits.
    let cold_store = work.join("store-cold");
    let cold = work.join("cold.dump");
    let cold_stats = run_child(&exe, &work, &cold_store.display().to_string(), "cold", &cold);
    expect_identical(&want, &cold, "cold store-backed run");
    if counter(&cold_stats, "store_hits") != 0 {
        eprintln!("error: cold store reported hits");
        std::process::exit(6);
    }

    // 3. Kill-resume at every injection point, each from a fresh store.
    for (i, spec) in CRASH_POINTS.iter().enumerate() {
        let store = work.join(format!("store-crash-{i}"));
        let store_arg = store.display().to_string();
        println!("\n-- crash point {spec}");
        let status = child_command(&exe, &work, &store_arg, &format!("crash-{i}"))
            .env("REIN_CRASH", spec)
            .status();
        match status {
            Ok(s) if died_by_crash(&s) => println!("   child killed as injected"),
            Ok(s) => {
                eprintln!("error: REIN_CRASH={spec} child did not crash (status {s})");
                std::process::exit(6);
            }
            Err(e) => {
                eprintln!("error: cannot spawn child: {e}");
                std::process::exit(2);
            }
        }
        let resumed = work.join(format!("resume-{i}.dump"));
        let stats = run_child(&exe, &work, &store_arg, &format!("resume-{i}"), &resumed);
        expect_identical(&want, &resumed, &format!("resume after {spec}"));
        if counter(&stats, "store_quarantined") != 0 {
            eprintln!("error: clean kill at {spec} must not quarantine anything");
            std::process::exit(7);
        }
        println!("   resume byte-identical to reference");
    }

    // 4. Corruption: flip the last journal byte of the cold store — the
    // final record's checksum breaks; recovery must quarantine exactly
    // that stretch and the next run recomputes the lost cell.
    let journal = cold_store.join("journal.wal");
    match std::fs::read(&journal) {
        Ok(mut bytes) if bytes.len() > 8 => {
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            #[expect(
                clippy::disallowed_methods,
                reason = "deliberate corruption injection: the whole point is a torn journal"
            )]
            if let Err(e) = std::fs::write(&journal, &bytes) {
                eprintln!("error: cannot corrupt {}: {e}", journal.display());
                std::process::exit(2);
            }
        }
        Ok(_) | Err(_) => {
            eprintln!("error: cold store journal missing or empty at {}", journal.display());
            std::process::exit(6);
        }
    }
    println!("\n-- corruption: last journal byte flipped");
    let healed = work.join("healed.dump");
    let healed_stats = run_child(&exe, &work, &cold_store.display().to_string(), "healed", &healed);
    expect_identical(&want, &healed, "resume after corruption");
    if counter(&healed_stats, "store_quarantined") != 1 {
        eprintln!(
            "error: corruption must quarantine exactly 1 stretch, got {}",
            counter(&healed_stats, "store_quarantined")
        );
        std::process::exit(7);
    }
    check_quarantine_report(&cold_store);
    println!("   corrupt record quarantined, lost cell recomputed, dump identical");

    // 5. Warm store: every cell must now hit, with zero divergence.
    println!("\n-- warm store");
    let warm = work.join("warm.dump");
    let warm_stats = run_child(&exe, &work, &cold_store.display().to_string(), "warm", &warm);
    expect_identical(&want, &warm, "fully-warm run");
    let hits = counter(&warm_stats, "store_hits");
    let misses = counter(&warm_stats, "store_misses");
    let divergence = counter(&warm_stats, "store_divergence");
    let rate = hits as f64 / (hits + misses).max(1) as f64;
    println!("   hits={hits} misses={misses} divergence={divergence} rate={rate:.3}");
    if rate < 0.9 {
        eprintln!("error: warm hit rate {rate:.3} below 0.9");
        std::process::exit(6);
    }
    if divergence != 0 {
        eprintln!("error: {divergence} recomputed cell(s) diverged from stored payloads");
        std::process::exit(4);
    }

    let _ = std::fs::remove_dir_all(&work);
    println!(
        "\ncrash smoke passed: {} kill-resume point(s), 1 corruption, warm rate {rate:.3}",
        CRASH_POINTS.len()
    );
    std::process::exit(0);
}

/// Builds the child invocation with a scenario-scoped store and no
/// inherited injection state.
fn child_command(exe: &Path, work: &Path, store: &str, name: &str) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg(store)
        .arg(work.join(format!("{name}.dump")))
        .arg(work.join(format!("{name}.stats.json")))
        .env_remove("REIN_CRASH")
        .env_remove("REIN_CHAOS")
        .env_remove("REIN_STORE");
    cmd
}

/// Runs a child to completion, requiring a clean exit; returns its
/// parsed counter stats.
fn run_child(
    exe: &Path,
    work: &Path,
    store: &str,
    name: &str,
    dump: &Path,
) -> std::collections::BTreeMap<String, u64> {
    match child_command(exe, work, store, name).status() {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("error: {name} child failed with {s}");
            std::process::exit(6);
        }
        Err(e) => {
            eprintln!("error: cannot spawn {name} child: {e}");
            std::process::exit(2);
        }
    }
    if !dump.exists() {
        eprintln!("error: {name} child wrote no dump at {}", dump.display());
        std::process::exit(6);
    }
    let stats = work.join(format!("{name}.stats.json"));
    match std::fs::read_to_string(&stats) {
        Ok(text) => serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("error: unreadable stats {}: {e}", stats.display());
            std::process::exit(6);
        }),
        Err(e) => {
            eprintln!("error: missing stats {}: {e}", stats.display());
            std::process::exit(6);
        }
    }
}

/// Reads one counter from a child's stats snapshot (absent = 0).
fn counter(stats: &std::collections::BTreeMap<String, u64>, name: &str) -> u64 {
    stats.get(name).copied().unwrap_or(0)
}

/// Whether the child died at the injected commit point (by signal on
/// Unix — `process::abort` raises SIGABRT — or any abnormal exit
/// elsewhere), as opposed to finishing or rejecting its environment.
fn died_by_crash(status: &std::process::ExitStatus) -> bool {
    #[cfg(unix)]
    {
        status.code().is_none()
    }
    #[cfg(not(unix))]
    {
        !status.success()
    }
}

fn read_dump(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        std::process::exit(2);
    })
}

/// Byte-compares a run's dump against the reference; divergence is the
/// one failure a durable store must never produce.
fn expect_identical(want: &str, dump: &Path, what: &str) {
    let got = read_dump(dump);
    if got != *want {
        eprintln!("error: {what} dump diverged from the store-less reference");
        std::process::exit(4);
    }
    println!("   {} cells byte-identical ({what})", want.matches("== ").count());
}

/// Asserts the structured quarantine report names exactly the injected
/// corruption: one `checksum-mismatch` stretch in the journal tail,
/// with its quarantined blob actually on disk.
fn check_quarantine_report(store: &Path) {
    let path = store.join("quarantine").join("report.json");
    let entries: Vec<rein_store::QuarantineEntry> = match std::fs::read_to_string(&path) {
        Ok(text) => serde_json::from_str(&text).unwrap_or_default(),
        Err(e) => {
            eprintln!("error: missing quarantine report {}: {e}", path.display());
            std::process::exit(7);
        }
    };
    if entries.len() != 1 {
        eprintln!("error: expected exactly 1 quarantine entry, report has {}", entries.len());
        std::process::exit(7);
    }
    let entry = &entries[0];
    if entry.reason != "checksum-mismatch" || entry.file != "journal.wal" {
        eprintln!(
            "error: quarantine entry is {}:{}, want journal.wal:checksum-mismatch",
            entry.file, entry.reason
        );
        std::process::exit(7);
    }
    if entry.quarantined_as.is_empty() || !store.join(&entry.quarantined_as).exists() {
        eprintln!("error: quarantined blob {:?} is not on disk", entry.quarantined_as);
        std::process::exit(7);
    }
}
