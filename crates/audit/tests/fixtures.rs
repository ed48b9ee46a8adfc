//! Fixture-based rule tests: every rule has a negative fixture it must
//! flag and a positive fixture it must pass.
//!
//! Each fixture under `tests/fixtures/` is a real `.rs` file (excluded
//! from workspace scans by the source walker) audited under a *declared*
//! virtual path, since rule scoping is path-driven — the same `unwrap()`
//! is a violation in library code and legitimate under `tests/`.

use std::path::Path;

use rein_audit::{audit_source, FileAudit};

fn audit_fixture(fixture: &str, virtual_path: &str) -> FileAudit {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    audit_source(virtual_path, &source)
}

fn rules_of(audit: &FileAudit) -> Vec<&str> {
    audit.violations.iter().map(|v| v.rule.as_str()).collect()
}

#[track_caller]
fn assert_fires(fixture: &str, virtual_path: &str, rule: &str) {
    let audit = audit_fixture(fixture, virtual_path);
    assert!(
        rules_of(&audit).contains(&rule),
        "{fixture} @ {virtual_path}: expected `{rule}` to fire, got {:?}",
        audit.violations
    );
}

#[track_caller]
fn assert_clean(fixture: &str, virtual_path: &str) {
    let audit = audit_fixture(fixture, virtual_path);
    assert!(
        audit.violations.is_empty(),
        "{fixture} @ {virtual_path}: expected no violations, got {:?}",
        audit.violations
    );
}

#[test]
fn panic_rule() {
    assert_fires("panic_bad.rs", "crates/data/src/fixture.rs", "panic");
    // A public API that reaches an unannotated panic through its callees
    // is blocked at the panic site itself: `panic` implies reachability.
    let reach = audit_fixture("panic_reach_bad.rs", "crates/data/src/fixture.rs");
    let lines: Vec<(usize, &str)> =
        reach.violations.iter().map(|v| (v.line, v.rule.as_str())).collect();
    assert_eq!(lines, [(5, "panic")], "got {:?}", reach.violations);
    let ok = audit_fixture("panic_ok.rs", "crates/data/src/fixture.rs");
    assert!(ok.violations.is_empty(), "annotated panic must pass: {:?}", ok.violations);
    assert_eq!(ok.suppressed, 1, "the annotation must be counted as a suppression");
}

#[test]
fn annotation_rule() {
    // A reason-less allow is itself a violation *and* fails to suppress,
    // so the underlying panic fires too.
    let audit = audit_fixture("annotation_bad.rs", "crates/data/src/fixture.rs");
    let rules = rules_of(&audit);
    assert!(rules.contains(&"annotation"), "got {:?}", audit.violations);
    assert!(rules.contains(&"panic"), "got {:?}", audit.violations);
}

#[test]
fn telemetry_phases_rule() {
    assert_fires("phases_bad.rs", "crates/bench/src/bin/fixture.rs", "telemetry-phases");
    assert_clean("phases_ok.rs", "crates/bench/src/bin/fixture.rs");
}

#[test]
fn telemetry_span_rule() {
    assert_fires("span_bad.rs", "crates/detect/src/fixture.rs", "telemetry-span");
    assert_clean("span_ok.rs", "crates/detect/src/fixture.rs");
    // The rule covers repair modules identically.
    assert_fires("span_bad.rs", "crates/repair/src/fixture.rs", "telemetry-span");
}

#[test]
fn guard_coverage_rule() {
    assert_fires("guard_coverage_bad.rs", "crates/core/src/fixture.rs", "guard-coverage");
    assert_fires("guard_coverage_bad.rs", "crates/bench/src/fixture.rs", "guard-coverage");
    // A file that calls rein_guard::run is the sanctioned dispatcher.
    assert_clean("guard_coverage_ok.rs", "crates/core/src/fixture.rs");
    // Outside rein-core and rein-bench the rule does not apply (the
    // detect/repair crates invoke their own kernels freely), and test
    // support paths are exempt everywhere.
    let out = audit_fixture("guard_coverage_bad.rs", "crates/detect/src/fixture.rs");
    assert!(!rules_of(&out).contains(&"guard-coverage"), "got {:?}", out.violations);
    let out = audit_fixture("guard_coverage_bad.rs", "crates/core/tests/fixture.rs");
    assert!(!rules_of(&out).contains(&"guard-coverage"), "got {:?}", out.violations);
}

#[test]
fn ledger_registration_rule() {
    assert_fires("ledger_reg_bad.rs", "crates/bench/src/fixture.rs", "ledger-registration");
    assert_clean("ledger_reg_ok.rs", "crates/bench/src/fixture.rs");
    // Only the bench crate is scoped: tools and tests may collect
    // manifests for inspection without registering them.
    let out = audit_fixture("ledger_reg_bad.rs", "crates/ledger/src/fixture.rs");
    assert!(!rules_of(&out).contains(&"ledger-registration"), "got {:?}", out.violations);
    let out = audit_fixture("ledger_reg_bad.rs", "crates/bench/tests/fixture.rs");
    assert!(!rules_of(&out).contains(&"ledger-registration"), "got {:?}", out.violations);
}

#[test]
fn comments_and_strings_do_not_fire() {
    assert_clean("lexer_ok.rs", "crates/core/src/fixture.rs");
}

#[test]
fn test_support_paths_are_exempt_from_panic() {
    assert_clean("panic_bad.rs", "crates/data/tests/fixture.rs");
    assert_clean("panic_bad.rs", "tests/fixture.rs");
}
