//! Semantic rules over the parsed workspace: seed provenance, split
//! leakage, toolbox parity and Result discards.
//!
//! Each rule works on the [`CallGraph`] built from every first-party
//! file, and reuses the `audit:allow(rule, reason)` suppression
//! convention via [`AllowTable`] — a semantic finding is suppressed
//! exactly like a token finding: an annotation on (or directly above)
//! the reported line, with a mandatory reason.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, FnNode};
use crate::parser::{parse_file, Call, Callee, Function, ParsedFile};
use crate::rules::{classify, AllowTable, FileClass, Violation};

/// One file prepared for semantic analysis.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    pub class: FileClass,
    pub parsed: ParsedFile,
    pub allows: AllowTable,
    /// Raw source, kept for token-level passes (concurrency rules).
    pub source: String,
}

/// Every first-party file, parsed.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    pub files: Vec<FileModel>,
}

impl WorkspaceModel {
    /// Builds the model from `(workspace-relative path, source)` pairs.
    pub fn build(files: &[(String, String)]) -> WorkspaceModel {
        let mut model = WorkspaceModel::default();
        for (path, source) in files {
            model.files.push(FileModel {
                path: path.clone(),
                class: classify(path),
                parsed: parse_file(source),
                allows: AllowTable::build(source),
                source: source.clone(),
            });
        }
        model
    }

    /// Total parse errors across the workspace (the smoke test wants 0).
    pub fn parse_errors(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for f in &self.files {
            for e in &f.parsed.errors {
                out.push((f.path.clone(), e.clone()));
            }
        }
        out
    }
}

/// Result of the semantic pass.
#[derive(Debug, Default)]
pub struct SemanticOutcome {
    pub violations: Vec<Violation>,
    /// Non-blocking findings (ranked reports like `hot-loop-alloc`).
    pub advisories: Vec<Violation>,
    pub suppressed: usize,
    /// Per file: `audit:allow` entries that suppressed at least one
    /// finding, keyed as [`AllowTable::match_keys`] keys. The report
    /// layer diffs this against every annotation to find stale allows.
    pub consumed: BTreeMap<String, BTreeSet<(usize, String, bool)>>,
}

/// Collects findings, applying suppressions per file/line.
pub(crate) struct Sink<'a> {
    allows: BTreeMap<&'a str, &'a AllowTable>,
    seen: BTreeSet<(String, usize, String, String)>,
    out: SemanticOutcome,
}

impl<'a> Sink<'a> {
    fn new(model: &'a WorkspaceModel) -> Sink<'a> {
        Sink {
            allows: model.files.iter().map(|f| (f.path.as_str(), &f.allows)).collect(),
            seen: BTreeSet::new(),
            out: SemanticOutcome::default(),
        }
    }

    /// Suppression check shared by blocking and advisory findings:
    /// `true` when the finding was silenced (and its annotation marked
    /// consumed).
    fn suppress(&mut self, path: &str, line: usize, rule: &str) -> bool {
        let Some(t) = self.allows.get(path) else { return false };
        if !t.allows(line, rule) {
            return false;
        }
        self.out.suppressed += 1;
        self.out.consumed.entry(path.to_string()).or_default().extend(t.match_keys(line, rule));
        true
    }

    pub(crate) fn emit(&mut self, path: &str, line: usize, rule: &str, message: String) {
        if !self.seen.insert((path.to_string(), line, rule.to_string(), message.clone())) {
            return;
        }
        if self.suppress(path, line, rule) {
            return;
        }
        self.out.violations.push(Violation {
            path: path.to_string(),
            line,
            rule: rule.to_string(),
            message,
        });
    }

    /// Like [`Sink::emit`] but lands in the non-blocking advisory list.
    pub(crate) fn emit_advisory(&mut self, path: &str, line: usize, rule: &str, message: String) {
        if !self.seen.insert((path.to_string(), line, rule.to_string(), message.clone())) {
            return;
        }
        if self.suppress(path, line, rule) {
            return;
        }
        self.out.advisories.push(Violation {
            path: path.to_string(),
            line,
            rule: rule.to_string(),
            message,
        });
    }
}

/// Runs every semantic rule over the workspace model.
pub fn analyze(model: &WorkspaceModel) -> SemanticOutcome {
    let parsed: Vec<(String, &ParsedFile)> =
        model.files.iter().map(|f| (f.path.clone(), &f.parsed)).collect();
    let graph = CallGraph::build(&parsed);
    let mut sink = Sink::new(model);
    seed_provenance(model, &graph, &mut sink);
    split_leakage(&graph, &mut sink);
    toolbox_parity(model, &graph, &mut sink);
    result_discard(&graph, &mut sink);
    crate::concurrency::analyze_concurrency(model, &graph, &mut sink);
    crate::purity::analyze_purity(model, &graph, &mut sink);
    let mut out = sink.out;
    out.violations.sort();
    out.advisories.sort();
    out
}

// ---------------------------------------------------------------- taint

/// Forward taint: idents derived from the function's parameters (and
/// `self`), propagated through `let` bindings.
pub(crate) fn param_taint(f: &Function) -> BTreeSet<String> {
    let mut t: BTreeSet<String> = f.params.iter().flat_map(|p| p.names.iter().cloned()).collect();
    if f.has_self {
        t.insert("self".to_string());
    }
    for _ in 0..2 {
        for l in &f.lets {
            if l.init_idents.iter().any(|i| t.contains(i)) {
                t.extend(l.names.iter().cloned());
            }
        }
    }
    t
}

/// Backward slice: starting from `seeds`, adds every ident whose `let`
/// binding flows into the set.
pub(crate) fn backward_slice(f: &Function, seeds: BTreeSet<String>) -> BTreeSet<String> {
    let mut s = seeds;
    for _ in 0..2 {
        for l in f.lets.iter().rev() {
            if l.names.iter().any(|n| s.contains(n)) {
                s.extend(l.init_idents.iter().cloned());
            }
        }
    }
    s
}

// ------------------------------------------------------ seed-provenance

/// An RNG construction whose first argument is the seed material.
pub(crate) fn is_rng_construction(call: &Call) -> bool {
    match call.callee.name() {
        "seed_from_u64" | "from_seed" => true,
        "new" => {
            call.callee.qualifier().is_some_and(|q| q.ends_with("Rng") || q.ends_with("Rng64"))
        }
        _ => false,
    }
}

/// Scope where concrete seeds are forbidden: library code outside the
/// bench crate (tests, benches and binaries legitimately pin seeds).
fn seed_scope(n: &FnNode) -> bool {
    n.lib_scope() && n.crate_name != "bench"
}

fn seed_provenance(model: &WorkspaceModel, g: &CallGraph, sink: &mut Sink) {
    let _ = model;
    // 1. Direct rule: every RNG construction in scope must consume a
    //    param-derived ident, and those params become seed sinks.
    let mut sinks: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (ix, n) in g.nodes.iter().enumerate() {
        let taint = param_taint(&n.func);
        for call in &n.func.calls {
            if !is_rng_construction(call) {
                continue;
            }
            let arg_idents: BTreeSet<String> =
                call.args.iter().flat_map(|a| a.idents.iter().cloned()).collect();
            let slice = backward_slice(&n.func, arg_idents.clone());
            for (pi, p) in n.func.params.iter().enumerate() {
                if p.names.iter().any(|nm| slice.contains(nm)) {
                    sinks.insert((ix, pi));
                }
            }
            if seed_scope(n) && !arg_idents.iter().any(|i| taint.contains(i)) {
                sink.emit(
                    &n.file,
                    call.line,
                    "seed-provenance",
                    format!(
                        "RNG construction `{}` does not trace its seed to a \
                         function parameter — derive it from a seed argument \
                         instead of a literal or local constant",
                        call.callee.name()
                    ),
                );
            }
        }
    }
    // 2. Interprocedural fixpoint: a param feeding a seed-sink position
    //    of a callee is itself a seed sink.
    for _ in 0..10 {
        let before = sinks.len();
        for caller in 0..g.nodes.len() {
            let n = &g.nodes[caller];
            for call in &n.func.calls {
                for target in g.resolve(caller, call) {
                    let target_sinks: Vec<usize> =
                        sinks.iter().filter(|(t, _)| *t == target).map(|(_, pi)| *pi).collect();
                    for pi in target_sinks {
                        // UFCS path calls to methods shift args by the
                        // explicit receiver.
                        let shift = usize::from(
                            matches!(call.callee, Callee::Path(_)) && g.nodes[target].func.has_self,
                        );
                        let Some(arg) = call.args.get(pi + shift) else { continue };
                        let idents: BTreeSet<String> = arg.idents.iter().cloned().collect();
                        let slice = backward_slice(&n.func, idents);
                        for (qi, p) in n.func.params.iter().enumerate() {
                            if p.names.iter().any(|nm| slice.contains(nm)) {
                                sinks.insert((caller, qi));
                            }
                        }
                    }
                }
            }
        }
        if sinks.len() == before {
            break;
        }
    }
    // 3. Literal-into-sink: in-scope callers must not pass a constant
    //    into a seed-sink position.
    for caller in 0..g.nodes.len() {
        let n = &g.nodes[caller];
        if !seed_scope(n) {
            continue;
        }
        let taint = param_taint(&n.func);
        for call in &n.func.calls {
            for target in g.resolve(caller, call) {
                let target_sinks: Vec<usize> =
                    sinks.iter().filter(|(t, _)| *t == target).map(|(_, pi)| *pi).collect();
                for pi in target_sinks {
                    let shift = usize::from(
                        matches!(call.callee, Callee::Path(_)) && g.nodes[target].func.has_self,
                    );
                    let Some(arg) = call.args.get(pi + shift) else { continue };
                    if !arg.idents.iter().any(|i| taint.contains(i)) {
                        sink.emit(
                            &n.file,
                            call.line,
                            "seed-provenance",
                            format!(
                                "seed parameter of `{}` receives a \
                                 literal/constant here — thread a seed \
                                 argument through instead",
                                call.callee.name()
                            ),
                        );
                    }
                }
            }
        }
    }
}

// -------------------------------------------------------- split-leakage

const TEST_COMPONENTS: [&str; 5] = ["test", "te", "xte", "yte", "tst"];

/// `x_test`, `xte`, `te_idx`… — idents naming the test partition.
fn is_test_tagged(name: &str) -> bool {
    name.split('_').any(|c| TEST_COMPONENTS.contains(&c))
}

/// `fit`, `fit_*`, `train`, `train_*` — callees that learn parameters
/// (excluding names that legitimately mention the test split, like
/// `train_test_split`).
fn is_fit_like(name: &str) -> bool {
    (name == "fit" || name.starts_with("fit_") || name == "train" || name.starts_with("train_"))
        && !name.contains("test")
}

fn split_leakage(g: &CallGraph, sink: &mut Sink) {
    for n in &g.nodes {
        if !n.lib_scope() || !matches!(n.crate_name.as_str(), "detect" | "repair" | "ml") {
            continue;
        }
        // Test-partition idents: tagged params, plus bindings derived
        // from tagged idents (covers `split.test` field access, whose
        // `test` component surfaces as an ident occurrence).
        let mut tagged: BTreeSet<String> = n
            .func
            .params
            .iter()
            .flat_map(|p| p.names.iter())
            .filter(|nm| is_test_tagged(nm))
            .cloned()
            .collect();
        for _ in 0..2 {
            for l in &n.func.lets {
                if l.init_idents.iter().any(|i| tagged.contains(i) || is_test_tagged(i)) {
                    tagged.extend(l.names.iter().cloned());
                }
            }
        }
        for call in &n.func.calls {
            if !is_fit_like(call.callee.name()) {
                continue;
            }
            let leak = call
                .args
                .iter()
                .flat_map(|a| a.idents.iter())
                .find(|i| tagged.contains(*i) || is_test_tagged(i));
            if let Some(ident) = leak {
                sink.emit(
                    &n.file,
                    call.line,
                    "split-leakage",
                    format!(
                        "test partition `{ident}` flows into fit-like callee \
                         `{}` — models must never learn from the held-out \
                         split",
                        call.callee.name()
                    ),
                );
            }
        }
    }
}

// ------------------------------------------------------- toolbox-parity

/// Module names referenced by a file: `use` idents plus first segments
/// of every path (calls and plain paths) in its functions.
fn file_refs(f: &FileModel) -> BTreeSet<String> {
    let mut refs: BTreeSet<String> = f.parsed.use_idents.iter().cloned().collect();
    for func in &f.parsed.functions {
        refs.extend(func.path_refs.iter().cloned());
    }
    refs
}

fn toolbox_parity(model: &WorkspaceModel, g: &CallGraph, sink: &mut Sink) {
    let toolbox = model.files.iter().find(|f| f.path == "crates/core/src/toolbox.rs");
    let has_grid_crates = model
        .files
        .iter()
        .any(|f| f.path.starts_with("crates/detect/") || f.path.starts_with("crates/repair/"));
    if has_grid_crates {
        match toolbox {
            None => {
                // Anchor the finding on a grid crate's lib.rs so the
                // path exists in the workspace being analyzed.
                if let Some(lib) = model
                    .files
                    .iter()
                    .find(|f| f.path.ends_with("/src/lib.rs") && f.path.starts_with("crates/"))
                {
                    sink.emit(
                        &lib.path,
                        1,
                        "toolbox-parity",
                        "crates/core/src/toolbox.rs is missing — the \
                         detector/repair registries are not wired into the \
                         toolbox"
                            .to_string(),
                    );
                }
            }
            Some(t) => {
                for kind in ["DetectorKind", "RepairKind"] {
                    if !t.parsed.use_idents.contains(kind) {
                        sink.emit(
                            &t.path,
                            1,
                            "toolbox-parity",
                            format!(
                                "rein-core::toolbox does not import `{kind}` — \
                                 the toolbox cannot enumerate that registry"
                            ),
                        );
                    }
                }
            }
        }
    }

    // Reachability roots.
    let bench_roots: Vec<usize> = (0..g.nodes.len())
        .filter(|&i| g.nodes[i].file.starts_with("crates/bench/src/bin/"))
        .collect();
    let test_roots: Vec<usize> = (0..g.nodes.len())
        .filter(|&i| g.nodes[i].func.in_test || g.nodes[i].class.is_test_support)
        .collect();
    let from_bench = g.reachable_from(&bench_roots);
    let from_test = g.reachable_from(&test_roots);

    for krate in ["detect", "repair"] {
        let lib_path = format!("crates/{krate}/src/lib.rs");
        let Some(lib) = model.files.iter().find(|f| f.path == lib_path) else {
            continue;
        };
        let declared: BTreeMap<String, usize> =
            lib.parsed.mod_decls.iter().map(|m| (m.name.clone(), m.line)).collect();
        if declared.is_empty() {
            continue;
        }
        // Registration closure: referenced from lib.rs, or from the
        // file of an already-registered module.
        let module_file = |m: &str| {
            model.files.iter().find(|f| {
                f.path == format!("crates/{krate}/src/{m}.rs")
                    || f.path.starts_with(&format!("crates/{krate}/src/{m}/"))
            })
        };
        let mut registered: BTreeSet<String> = BTreeSet::new();
        let mut frontier: Vec<BTreeSet<String>> = vec![file_refs(lib)];
        while let Some(refs) = frontier.pop() {
            for m in declared.keys() {
                if refs.contains(m) && registered.insert(m.clone()) {
                    if let Some(f) = module_file(m) {
                        frontier.push(file_refs(f));
                    }
                }
            }
        }
        // Module reachability: a module counts as exercised when a
        // reachable node lives in it, or a reachable node references it
        // by path (covers `katara::Katara::default()`, which resolves
        // to no parsed fn because the impl is derived).
        let reached = |reach: &[bool]| -> BTreeSet<String> {
            let mut out = BTreeSet::new();
            for (i, n) in g.nodes.iter().enumerate() {
                if !reach[i] {
                    continue;
                }
                if n.crate_name == krate && declared.contains_key(&n.module) {
                    out.insert(n.module.clone());
                }
                // Attribute path references to this crate only when the
                // caller is in it, or outside both grid crates (the
                // same module name can exist in detect *and* repair).
                let attributable =
                    n.crate_name == krate || !matches!(n.crate_name.as_str(), "detect" | "repair");
                if attributable {
                    for seg in &n.func.path_refs {
                        if declared.contains_key(seg) {
                            out.insert(seg.clone());
                        }
                    }
                }
            }
            out
        };
        let bench_reached = reached(&from_bench);
        let test_reached = reached(&from_test);
        for (m, line) in &declared {
            if !registered.contains(m) {
                sink.emit(
                    &lib.path,
                    *line,
                    "toolbox-parity",
                    format!(
                        "module `{m}` is declared but never referenced from \
                         {krate}'s registry (lib.rs) or another registered \
                         module"
                    ),
                );
            }
            if !bench_reached.contains(m) {
                sink.emit(
                    &lib.path,
                    *line,
                    "toolbox-parity",
                    format!("module `{m}` is not reachable from any bench binary"),
                );
            }
            if !test_reached.contains(m) {
                sink.emit(
                    &lib.path,
                    *line,
                    "toolbox-parity",
                    format!("module `{m}` is not reachable from any test"),
                );
            }
        }
    }
}

// ------------------------------------------------------- result-discard

fn result_discard(g: &CallGraph, sink: &mut Sink) {
    for (i, n) in g.nodes.iter().enumerate() {
        if n.class.is_test_support || n.func.in_test {
            continue;
        }
        for l in &n.func.lets {
            if !l.underscore {
                continue;
            }
            let Some(&last) = l.init_top_calls.last() else { continue };
            let Some(call) = n.func.calls.get(last) else { continue };
            let discards_result =
                g.resolve(i, call).into_iter().any(|t| g.nodes[t].func.returns_result);
            if discards_result {
                sink.emit(
                    &n.file,
                    l.line,
                    "result-discard",
                    format!(
                        "`let _ =` discards the Result returned by \
                         first-party `{}` — handle the error or match \
                         explicitly",
                        call.callee.name()
                    ),
                );
            }
        }
    }
}
