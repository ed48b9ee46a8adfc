//! # rein-audit
//!
//! A workspace-wide determinism & benchmark-integrity lint pass.
//!
//! REIN's results are only meaningful when two runs with the same seed
//! are byte-identical: the paper's Wilcoxon A/B comparisons and the
//! detector/repair rankings all assume exact reproducibility. This crate
//! machine-checks the invariants that guarantee it, instead of trusting
//! conventions:
//!
//! * **determinism** — every RNG seed traces to a parameter, parallel
//!   regions share no unsynchronized state and merge deterministically,
//!   and no ambient read reaches a cell computation outside its cache key;
//! * **panic-hygiene** — every `unwrap()`/`expect()`/`panic!` in library
//!   code either becomes `Result` propagation or carries a justified
//!   `audit:allow(panic, reason)` annotation;
//! * **telemetry coverage** — benchmark binaries mark their phases and
//!   write run manifests; detector/repair modules open spans.
//!
//! The path bans — wall clock, `HashMap`/`HashSet`, environment reads,
//! raw file writes and bare prints in library code — are not audit
//! rules: they live in the workspace `clippy.toml` and
//! `[workspace.lints.clippy]`, and a sanctioned site carries
//! `#[expect(clippy::<lint>, reason = "…")]`.
//!
//! Run it with `cargo run -p rein-audit`; it prints a human report,
//! writes machine-readable JSON to `artifacts/audit/report.json` and
//! exits nonzero on violations (CI treats that as a failing step).

pub mod callgraph;
pub mod concurrency;
pub mod dataflow;
pub mod lexer;
pub mod parser;
pub mod purity;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod semantic;

pub use purity::{cache_key_fields, certify, EntryCertificate};
pub use report::{audit_workspace, collect_sources, Report, RuleSummary};
pub use rules::{
    audit_source, classify, AllowEntry, AllowTable, FileAudit, FileClass, Violation, RULES,
};
pub use sarif::to_sarif;
pub use semantic::{analyze, SemanticOutcome, WorkspaceModel};
