//! `rein_trace`: render the causal cell traces of run manifests into
//! Perfetto-openable Chrome trace JSON, a self-contained flamegraph
//! SVG, and the typed per-cell cost table the ledger ingests.
//!
//! ```text
//! rein_trace [--root DIR] [--manifest PATH]...
//! ```
//!
//! * `--root` — repository root (default `.`); exports land under
//!   `<root>/artifacts/trace/`.
//! * `--manifest` — repo-relative manifest path to export (repeatable).
//!   Without it, every manifest under `artifacts/telemetry/` carrying a
//!   full span stream is exported. Summary-mode manifests are skipped
//!   with a note: their sampled streams cannot reconstruct complete
//!   trees.
//!
//! Every export is a pure function of the manifest bytes — virtual
//! lanes, tick time, renumbered span ids — so a double run is
//! byte-identical and CI compares the hashes. After exporting, the
//! ledger index is re-ingested so the new `.cells.json` files register.
//!
//! Exit codes: 0 on success, 1 on IO/parse failure, 2 on usage errors,
//! 4 when any export contains orphan spans (a trace-carrying span whose
//! parent never appeared — the causal tree is incomplete).

// Binaries are the report surface.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rein_ledger::{export_manifest, index_path, ingest_repo, write_exports, LedgerIndex};
use rein_telemetry::RunManifest;

struct Args {
    root: PathBuf,
    manifests: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!("usage: rein_trace [--root DIR] [--manifest PATH]...");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args { root: PathBuf::from("."), manifests: Vec::new() };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        match flag.as_str() {
            "--root" => match raw.next() {
                Some(dir) => args.root = PathBuf::from(dir),
                None => return Err(usage()),
            },
            "--manifest" => match raw.next() {
                Some(path) => args.manifests.push(path),
                None => return Err(usage()),
            },
            _ => {
                eprintln!("error: unknown argument {flag:?}");
                return Err(usage());
            }
        }
    }
    Ok(args)
}

/// Repo-relative manifest paths to export: the explicit `--manifest`
/// list, or a sorted scan of `artifacts/telemetry/*.json`.
fn manifest_sources(args: &Args) -> Result<Vec<String>, String> {
    if !args.manifests.is_empty() {
        return Ok(args.manifests.clone());
    }
    let dir = args.root.join("artifacts").join("telemetry");
    let entries = match std::fs::read_dir(&dir) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("read dir {}: {e}", dir.display())),
        Ok(entries) => entries,
    };
    let mut sources = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "json") {
            sources.push(format!(
                "artifacts/telemetry/{}",
                path.file_name().unwrap_or_default().to_string_lossy()
            ));
        }
    }
    sources.sort();
    Ok(sources)
}

/// Exports one manifest; returns its orphan count, or `None` when the
/// manifest was skipped (summary mode).
fn export_one(root: &Path, source: &str) -> Result<Option<u64>, String> {
    let path = root.join(source);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let manifest =
        RunManifest::from_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    if manifest.mode == "summary" {
        println!("{source}: skipped (summary mode — span stream is sampled)");
        return Ok(None);
    }
    let stem = Path::new(source)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .ok_or_else(|| format!("{source}: no file stem"))?;
    let (forest, export) = export_manifest(&manifest);
    let paths = write_exports(root, &stem, &manifest)?;
    println!(
        "{source}: {} cell trace(s), {} ambient span(s), {} orphan(s) -> {}",
        export.traces,
        export.ambient_spans,
        export.orphans,
        paths[2].display()
    );
    for orphan in &forest.orphans {
        eprintln!(
            "  orphan: span {:?} (id {}) on trace {:016x} has unresolved parent {}",
            orphan.name, orphan.id, orphan.trace_id, orphan.parent_id
        );
    }
    Ok(Some(export.orphans))
}

fn run(args: &Args) -> Result<u64, String> {
    let sources = manifest_sources(args)?;
    if sources.is_empty() {
        println!("no run manifests under {}/artifacts/telemetry", args.root.display());
        return Ok(0);
    }
    let mut orphans = 0u64;
    let mut exported = 0usize;
    for source in &sources {
        if let Some(n) = export_one(&args.root, source)? {
            orphans += n;
            exported += 1;
        }
    }

    // Register the fresh `.cells.json` exports in the ledger index.
    let index_file = index_path(&args.root);
    let candidates = ingest_repo(&args.root)?;
    let mut index = LedgerIndex::load(&index_file)?;
    let changed = index.apply(candidates);
    if changed {
        index.save(&index_file).map_err(|e| format!("write {}: {e}", index_file.display()))?;
    }
    let traced = index.entries.iter().filter(|e| e.kind == "trace_export").count();
    println!(
        "exported {exported} manifest(s); ledger: {} entries ({traced} trace exports), generation {}{}",
        index.entries.len(),
        index.generation,
        if changed { " (updated)" } else { " (unchanged)" }
    );
    Ok(orphans)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(code) => return code,
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(orphans) => {
            eprintln!("error: {orphans} orphan span(s) — causal trees are incomplete");
            ExitCode::from(4)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
