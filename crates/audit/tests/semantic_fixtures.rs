//! Fixture-based tests for the semantic (call-graph) rules: each rule
//! has a negative fixture it must flag and a positive fixture it must
//! pass.
//!
//! Unlike the token rules, semantic rules see the *whole workspace* at
//! once, so a fixture here is an assembly of `(virtual path, file)`
//! pairs — e.g. toolbox parity needs a registry lib.rs, modules, a
//! bench binary and a test in one model.

use std::path::Path;

use rein_audit::{analyze, Violation, WorkspaceModel};

/// Parses the named fixtures under their virtual workspace paths and
/// runs the semantic pass.
fn analyze_assembly(files: &[(&str, &str)]) -> Vec<Violation> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(fixture, vpath)| {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
            let source = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            (vpath.to_string(), source)
        })
        .collect();
    let model = WorkspaceModel::build(&sources);
    let errors = model.parse_errors();
    assert!(errors.is_empty(), "fixtures must parse cleanly: {errors:?}");
    analyze(&model).violations
}

fn of_rule<'a>(violations: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.rule == rule).collect()
}

#[test]
fn seed_provenance_flags_literals_and_interprocedural_sinks() {
    let violations = analyze_assembly(&[("seed_provenance_bad.rs", "crates/ml/src/fixture.rs")]);
    let hits = of_rule(&violations, "seed-provenance");
    // One direct literal construction plus one literal into a seed-sink
    // parameter of `make_rng`.
    assert_eq!(hits.len(), 2, "got {violations:?}");
    assert!(hits.iter().any(|v| v.message.contains("seed_from_u64")), "got {hits:?}");
    assert!(hits.iter().any(|v| v.message.contains("make_rng")), "got {hits:?}");
}

#[test]
fn seed_provenance_accepts_parameter_threading() {
    let violations = analyze_assembly(&[("seed_provenance_ok.rs", "crates/ml/src/fixture.rs")]);
    assert!(of_rule(&violations, "seed-provenance").is_empty(), "got {violations:?}");
}

#[test]
fn seed_provenance_is_scoped_to_library_code() {
    // The same source is fine in a test-support path: tests pin seeds.
    let violations = analyze_assembly(&[("seed_provenance_bad.rs", "crates/ml/tests/fixture.rs")]);
    assert!(of_rule(&violations, "seed-provenance").is_empty(), "got {violations:?}");
}

#[test]
fn split_leakage_flags_test_partition_into_fit() {
    let violations = analyze_assembly(&[("split_leakage_bad.rs", "crates/ml/src/fixture.rs")]);
    let hits = of_rule(&violations, "split-leakage");
    // Direct `x_test` into fit, plus the `holdout` rebinding of `xte`.
    assert_eq!(hits.len(), 2, "got {violations:?}");
    assert!(hits.iter().any(|v| v.message.contains("x_test")), "got {hits:?}");
}

#[test]
fn split_leakage_accepts_train_fit_test_predict() {
    let violations = analyze_assembly(&[("split_leakage_ok.rs", "crates/ml/src/fixture.rs")]);
    assert!(of_rule(&violations, "split-leakage").is_empty(), "got {violations:?}");
}

/// The shared part of the toolbox assemblies: a registered module, the
/// core toolbox, a bench binary and a test that exercise it.
const TOOLBOX_COMMON: [(&str, &str); 4] = [
    ("toolbox_mod_good.rs", "crates/detect/src/good.rs"),
    ("toolbox_core_toolbox.rs", "crates/core/src/toolbox.rs"),
    ("toolbox_bench_bin.rs", "crates/bench/src/bin/fixture_grid.rs"),
    ("toolbox_test.rs", "crates/detect/tests/fixture.rs"),
];

#[test]
fn toolbox_parity_flags_unregistered_unreached_module() {
    let mut files = vec![
        ("toolbox_lib_bad.rs", "crates/detect/src/lib.rs"),
        ("toolbox_mod_orphan.rs", "crates/detect/src/orphan.rs"),
    ];
    files.extend(TOOLBOX_COMMON);
    let violations = analyze_assembly(&files);
    let hits = of_rule(&violations, "toolbox-parity");
    // `orphan` misses registration, bench reachability and test
    // reachability — three findings, all anchored on its declaration.
    assert_eq!(hits.len(), 3, "got {violations:?}");
    assert!(hits.iter().all(|v| v.message.contains("`orphan`")), "got {hits:?}");
    assert!(hits.iter().all(|v| v.path == "crates/detect/src/lib.rs"), "got {hits:?}");
}

#[test]
fn toolbox_parity_accepts_fully_wired_module() {
    let mut files = vec![("toolbox_lib_ok.rs", "crates/detect/src/lib.rs")];
    files.extend(TOOLBOX_COMMON);
    let violations = analyze_assembly(&files);
    assert!(of_rule(&violations, "toolbox-parity").is_empty(), "got {violations:?}");
}

#[test]
fn toolbox_parity_requires_toolbox_registry_imports() {
    // Without crates/core/src/toolbox.rs the grid cannot be enumerated.
    let violations = analyze_assembly(&[
        ("toolbox_lib_ok.rs", "crates/detect/src/lib.rs"),
        ("toolbox_mod_good.rs", "crates/detect/src/good.rs"),
        ("toolbox_bench_bin.rs", "crates/bench/src/bin/fixture_grid.rs"),
        ("toolbox_test.rs", "crates/detect/tests/fixture.rs"),
    ]);
    let hits = of_rule(&violations, "toolbox-parity");
    assert!(hits.iter().any(|v| v.message.contains("toolbox.rs is missing")), "got {violations:?}");
}

#[test]
fn result_discard_flags_let_underscore_on_first_party_result() {
    let violations = analyze_assembly(&[("result_discard_bad.rs", "crates/core/src/fixture.rs")]);
    let hits = of_rule(&violations, "result-discard");
    assert_eq!(hits.len(), 1, "got {violations:?}");
    assert!(hits[0].message.contains("persist"), "got {hits:?}");
}

#[test]
fn result_discard_accepts_handled_results_and_plain_discards() {
    let violations = analyze_assembly(&[("result_discard_ok.rs", "crates/core/src/fixture.rs")]);
    assert!(of_rule(&violations, "result-discard").is_empty(), "got {violations:?}");
}

#[test]
fn result_discard_is_exempt_in_tests() {
    let violations = analyze_assembly(&[("result_discard_bad.rs", "crates/core/tests/fixture.rs")]);
    assert!(of_rule(&violations, "result-discard").is_empty(), "got {violations:?}");
}
