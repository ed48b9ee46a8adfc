//! `rein-audit` CLI: audits the workspace, prints the human report,
//! writes `artifacts/audit/report.json` and exits nonzero on violations.
//!
//! Usage: `cargo run -p rein-audit [-- --root DIR --json-out FILE
//! --sarif FILE --only RULE --deny-stale --quiet]`

// This binary is the audit's report surface; printing is its job.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;

use rein_audit::{audit_workspace, to_sarif, RULES};

struct Args {
    root: PathBuf,
    json_out: Option<PathBuf>,
    sarif_out: Option<PathBuf>,
    only: Vec<String>,
    deny_stale: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    // Default root: the workspace containing this crate
    // (crates/audit/../..), so `cargo run -p rein-audit` works from any
    // cwd inside the repo.
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut args = Args {
        root: default_root,
        json_out: None,
        sarif_out: None,
        only: Vec::new(),
        deny_stale: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory argument")?);
            }
            "--json-out" => {
                args.json_out =
                    Some(PathBuf::from(it.next().ok_or("--json-out needs a file argument")?));
            }
            "--no-json" => args.json_out = Some(PathBuf::new()),
            "--sarif" => {
                args.sarif_out =
                    Some(PathBuf::from(it.next().ok_or("--sarif needs a file argument")?));
            }
            "--only" => {
                let rule = it.next().ok_or("--only needs a rule id argument")?;
                if !RULES.iter().any(|r| r.id == rule) {
                    return Err(format!(
                        "unknown rule `{rule}` for --only; known rules: {}",
                        RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
                    ));
                }
                args.only.push(rule);
            }
            "--deny-stale" => args.deny_stale = true,
            "--quiet" | "-q" => args.quiet = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

#[expect(
    clippy::disallowed_methods,
    reason = "rein-audit depends only on serde, so it cannot reach rein_telemetry::atomic_write; \
              its reports are regenerated by every run"
)]
fn write_out(path: &PathBuf, content: &str, quiet: bool, what: &str) -> Result<(), ExitCode> {
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("rein-audit: cannot create {}: {e}", dir.display());
            return Err(ExitCode::from(2));
        }
    }
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("rein-audit: cannot write {}: {e}", path.display());
        return Err(ExitCode::from(2));
    }
    if !quiet {
        println!("{what} written to {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rein-audit: {e}");
            return ExitCode::from(2);
        }
    };
    // Canonicalize so report paths are workspace-relative and
    // byte-identical no matter which directory the audit runs from.
    let root = std::fs::canonicalize(&args.root).unwrap_or_else(|_| args.root.clone());
    let mut report = match audit_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rein-audit: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    report.retain_rules(&args.only);
    if args.deny_stale {
        report.deny_stale();
    }
    if !args.quiet || !report.clean() {
        print!("{}", report.render_text());
    }
    let json_out = args.json_out.unwrap_or_else(|| root.join("artifacts/audit/report.json"));
    if !json_out.as_os_str().is_empty() {
        let mut json = report.to_json();
        json.push('\n');
        if let Err(code) = write_out(&json_out, &json, args.quiet, "report") {
            return code;
        }
    }
    if let Some(sarif_out) = &args.sarif_out {
        let sarif = to_sarif(&report);
        if let Err(code) = write_out(sarif_out, &sarif, args.quiet, "SARIF") {
            return code;
        }
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
