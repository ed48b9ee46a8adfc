//! The benchmark controller (§2): connects the repository, toolbox and
//! evaluation module, and exploits design-time knowledge (error types, ML
//! task, available signals) to sidestep unnecessary experiments.

use std::collections::BTreeMap;
use std::sync::Arc;

use rayon::prelude::*;
use rein_data::rng::derive_seed;
use rein_data::{CellMask, MlTask};
use rein_datasets::GeneratedDataset;
use rein_detect::DetectorKind;
use rein_guard::{CrashWhen, GuardPolicy, StrategyFailure};
use rein_ml::model::{ClassifierKind, ClustererKind, RegressorKind};
use rein_repair::{RepairCategory, RepairKind};
use rein_store::{CrashPoint, Store, StoreWriter, StoredCell};
use rein_telemetry::SpanCtx;

use crate::evaluate::{
    eval_classifier_guarded, eval_clusterer, eval_regressor_guarded, repair_quality_categorical,
    repair_quality_numerical, replay_detector_run, run_repair_guarded, table_identity,
    DetectorHarness, DetectorRun, RepairRun, VersionTable,
};
use crate::experiment::{DetectionRecord, RepairRecord};
use crate::scenario::Scenario;
use crate::toolbox::{applicable_detectors, applicable_repairers, AvailableSignals};

/// A cleaning strategy: one detector feeding one repairer (the paper's
/// figure labels, e.g. "R3" = RAHA + mean-mode imputation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleaningStrategy {
    /// Detector.
    pub detector: DetectorKind,
    /// Repairer.
    pub repairer: RepairKind,
}

impl CleaningStrategy {
    /// Paper-style label: detector index letter + repairer index, e.g.
    /// `"X3"` for Max-Entropy + mean-mode.
    pub fn label(&self) -> String {
        format!("{}{}", self.detector.index_letter(), self.repairer.index())
    }
}

/// The benchmark controller.
#[derive(Debug, Clone)]
pub struct Controller {
    /// Labelling budget for ML-supported detectors.
    pub label_budget: usize,
    /// Master seed.
    pub seed: u64,
    /// Supervision policy for every toolbox dispatch (chaos injection,
    /// retries, budget override).
    pub policy: GuardPolicy,
    /// Dataset scale factor the grid runs at — a [`CellKey`]
    /// component, so it participates in every cell's trace id.
    ///
    /// [`CellKey`]: crate::cache_key::CellKey
    pub scale: f64,
    /// Opt-in live progress heartbeat (`REIN_PROGRESS`, plumbed by
    /// rein-bench): when true, the grid's sequential merge points print
    /// deterministic-content progress lines (cell counts, never timing
    /// or worker identity) to stderr.
    pub progress: bool,
    /// Durable cell-result store (`REIN_STORE`, plumbed by rein-bench):
    /// when set, [`Controller::run_grid`] looks each cell up before
    /// dispatching it, replays hits without executing the strategy, and
    /// commits every computed cell through the store's write-ahead
    /// journal at each phase's sequential merge point (DESIGN.md §6j).
    /// `None` runs the same phases with every lookup a miss and nothing
    /// committed, so the cell map is byte-identical either way.
    pub store: Option<Arc<Store>>,
}

impl Default for Controller {
    fn default() -> Self {
        Self {
            label_budget: crate::evaluate::DEFAULT_LABEL_BUDGET,
            seed: 0,
            policy: GuardPolicy::default(),
            scale: 1.0,
            progress: false,
            store: None,
        }
    }
}

/// The pruned experiment plan for one dataset.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Detectors worth running.
    pub detectors: Vec<DetectorKind>,
    /// Generic repairers worth running (per detector).
    pub generic_repairers: Vec<RepairKind>,
    /// ML-oriented repairers worth running.
    pub ml_repairers: Vec<RepairKind>,
}

impl Controller {
    /// Signals the benchmark can supply for a generated dataset (the
    /// ground truth exists, so KB and oracle are always available; the
    /// rest depends on the dataset).
    pub fn signals_for(ds: &GeneratedDataset) -> AvailableSignals {
        AvailableSignals {
            fds: !ds.fds.is_empty(),
            knowledge_base: true,
            key_columns: !ds.key_columns.is_empty(),
            oracle: true,
            label_column: ds.clean.schema().label_index().is_some(),
        }
    }

    /// Builds the pruned plan for a dataset.
    pub fn plan(&self, ds: &GeneratedDataset) -> Plan {
        let _span = rein_telemetry::span("controller:plan");
        let signals = Self::signals_for(ds);
        let detectors = applicable_detectors(&ds.info.errors, &signals);
        let repairers = applicable_repairers(&ds.info.errors, ds.info.task, &signals);
        let (ml, generic): (Vec<RepairKind>, Vec<RepairKind>) =
            repairers.into_iter().partition(|r| r.category() == RepairCategory::MlOriented);
        Plan { detectors, generic_repairers: generic, ml_repairers: ml }
    }

    /// Runs the detection phase store-less: every planned detector, in
    /// parallel ([`Controller::detect_phase`] with no store).
    pub fn run_detection(&self, ds: &GeneratedDataset) -> Vec<DetectorRun> {
        let pass = self.pass(ds, None);
        self.detect_phase(&pass).into_iter().map(|(run, _)| run).collect()
    }

    /// Runs the repair phase store-less for one detector's detections:
    /// every planned generic repairer plus the ML-oriented ones
    /// ([`Controller::repair_phase`] with no store).
    pub fn run_repairs(&self, ds: &GeneratedDataset, detection: &DetectorRun) -> Vec<RepairRun> {
        let pass = self.pass(ds, None);
        // Without a store every slot holds its live run.
        self.repair_phase(&pass, detection).into_iter().filter_map(|slot| slot.run).collect()
    }

    /// Runs the full benchmark grid — detection, repair, and (when
    /// `scenarios` is non-empty) model evaluation — and serializes every
    /// cell's output, keyed by cell coordinates:
    ///
    /// - `detect:<detector>` — the detected cell mask,
    /// - `repair:<repairer>#<detector>` — the repaired table, modified
    ///   cells and row map (or a pipeline marker for ML-oriented
    ///   repairers),
    /// - `eval:<scenario>:<repairer>#<detector>` — the scenario scores
    ///   for each table-producing repair.
    ///
    /// The map is the grid's deterministic fingerprint: every seed is
    /// derived per cell from the controller seed and the cell's
    /// coordinates, never from worker identity or arrival order, so the
    /// serialized bytes are identical at any rayon pool width. The
    /// `parallel_smoke` binary asserts exactly that (1 ≡ 4 ≡ N threads),
    /// and `chaos_smoke` compares fault-free and fault-injected runs of
    /// the same map.
    ///
    /// With and without [`Controller::store`] the grid runs the same
    /// three phases, each in five steps: plan its cells (1), look them
    /// up (2), compute the misses in parallel (3), commit what they
    /// staged (4) and merge in plan order (5). The store only decides
    /// where a cell's payload comes from (DESIGN.md §6j).
    pub fn run_grid(
        &self,
        ds: &GeneratedDataset,
        scenarios: &[Scenario],
        repeats: usize,
    ) -> BTreeMap<String, String> {
        let _span = rein_telemetry::span("controller:grid");
        let pass = self.pass(ds, self.store.as_deref());
        let mut cells = BTreeMap::new();
        for (det_ix, (det, payload)) in self.detect_phase(&pass).into_iter().enumerate() {
            cells.insert(format!("detect:{}", det.kind.name()), payload);
            // audit:allow(seed-provenance, det names the guard scope and the coordinates; repair seeds derive from self.seed and the repair kind)
            let mut repairs = self.repair_phase(&pass, &det);
            for slot in &repairs {
                cells.insert(slot.cell.coordinate.clone(), slot.payload.clone());
            }
            // audit:allow(seed-provenance, det_ix is the detector's plan position; eval seeds derive from self.seed and the cell coordinates)
            cells.extend(self.eval_phase(&pass, &det, det_ix, &mut repairs, scenarios, repeats));
        }
        self.emit_progress(&format!(
            "dataset={} grid complete cells={}",
            ds.info.name,
            cells.len()
        ));
        cells
    }

    /// The shared context of one grid pass.
    fn pass<'a>(&self, ds: &'a GeneratedDataset, store: Option<&'a Store>) -> Pass<'a> {
        Pass { ds, plan: self.plan(ds), dirty_id: table_identity(&ds.dirty), store }
    }

    /// Step 1 of every phase: one cell's coordinate-derived seed, store
    /// key and trace-root id, from its [`CellKey`].
    ///
    /// [`CellKey`]: crate::cache_key::CellKey
    fn planned(&self, pass: &Pass, version: &str, coordinate: String, seed: u64) -> Planned {
        let key = self.cell_key(pass.ds, version, &coordinate, self.scale, seed);
        Planned { digest: key.content_key(), trace: key.hash(), coordinate, seed }
    }

    /// The detection phase: every planned detector as `(run, payload)`,
    /// in plan order. A hit deserializes the stored mask and replays it
    /// ([`replay_detector_run`]); a payload that does not parse back
    /// into a mask is a miss, never trusted. Each miss runs under a cell
    /// trace root named for its coordinate and keyed by its
    /// [`CellKey`] digest, so every span the detector produces
    /// reconstructs into that cell's tree (DESIGN.md §6i).
    ///
    /// [`CellKey`]: crate::cache_key::CellKey
    fn detect_phase(&self, pass: &Pass) -> Vec<(DetectorRun, String)> {
        let ds = pass.ds;
        let span = rein_telemetry::span("controller:detect");
        // Cell roots open on rayon workers; hand them the phase span
        // explicitly so nesting survives the fan-out.
        let parent = Some(span.ctx());
        let kinds = &pass.plan.detectors;
        let cells: Vec<Planned> = kinds
            .iter()
            .map(|kind| {
                let seed = derive_seed(self.seed, kind.index_letter() as u64);
                self.planned(pass, &pass.dirty_id, format!("detect:{}", kind.name()), seed)
            })
            .collect();
        let store = PhaseStore::new(pass.store);
        let lookup = store.lookup(&cells, |i, hit| {
            let mask: CellMask = serde_json::from_str(&hit.payload).ok()?;
            Some((replay_detector_run(ds, kinds[i], mask), hit.payload))
        });
        let computed = lookup
            .misses()
            .par_iter()
            .map(|&i| {
                let cell = &cells[i];
                let _worker = cell.trace_root(parent);
                let harness = DetectorHarness::new(ds, self.label_budget, cell.seed)
                    .with_policy(self.policy.clone());
                let run = harness.run(ds, kinds[i]);
                let payload = detect_payload(&run.mask);
                store.stage(cell, &payload, None);
                (i, (run, payload))
            })
            .collect();
        store.commit(&self.policy);
        let (runs, hits) = lookup.merge(computed);
        let failed = runs.iter().filter(|(run, _)| run.failure.is_some()).count();
        self.emit_progress(&format!(
            "dataset={} phase=detect done={} failed={failed} total={} hits={hits}",
            ds.info.name,
            runs.len(),
            runs.len()
        ));
        runs
    }

    /// The repair phase for one detector's detections: every planned
    /// generic repairer plus the ML-oriented ones, in plan order. A hit
    /// keeps the stored payload and the produced version's identity
    /// (the record's aux field) without rehydrating the table; a miss
    /// runs the repairer live.
    fn repair_phase(&self, pass: &Pass, det: &DetectorRun) -> Vec<RepairSlot> {
        let ds = pass.ds;
        let span = rein_telemetry::span("controller:repair");
        let parent = Some(span.ctx());
        let kinds: Vec<RepairKind> =
            pass.plan.generic_repairers.iter().chain(&pass.plan.ml_repairers).copied().collect();
        // Repair cells consume the dirty table (plus the detector's
        // mask, named in the coordinate): its identity is the cells'
        // `dataset_version` key component.
        let cells: Vec<Planned> = kinds
            .iter()
            .map(|kind| {
                let coordinate = format!("repair:{}#{}", kind.name(), det.kind.name());
                let seed = derive_seed(self.seed, kind.index() as u64);
                self.planned(pass, &pass.dirty_id, coordinate, seed)
            })
            .collect();
        let store = PhaseStore::new(pass.store);
        let lookup = store.lookup(&cells, |_, hit| Some((hit.payload, hit.aux, None)));
        let computed = lookup
            .misses()
            .par_iter()
            .map(|&i| {
                let cell = &cells[i];
                let _worker = cell.trace_root(parent);
                let run = self.run_repair(pass, det, kinds[i], cell.seed);
                let payload = repair_payload(&run);
                let version_id = run.version.as_ref().map(|v| v.content_identity());
                store.stage(cell, &payload, version_id.as_deref());
                (i, (payload, version_id, Some(run)))
            })
            .collect();
        store.commit(&self.policy);
        let (outcomes, hits) = lookup.merge(computed);
        let slots: Vec<RepairSlot> = kinds
            .into_iter()
            .zip(cells)
            .zip(outcomes)
            .map(|((kind, cell), (payload, version_id, run))| RepairSlot {
                kind,
                cell,
                payload,
                version_id,
                run,
            })
            .collect();
        let failed =
            slots.iter().filter(|s| s.run.as_ref().is_some_and(|r| r.failure.is_some())).count();
        self.emit_progress(&format!(
            "dataset={} phase=repair detector={} done={} failed={failed} total={} hits={hits}",
            ds.info.name,
            det.kind.name(),
            slots.len(),
            slots.len()
        ));
        slots
    }

    /// The evaluation phase for one detector: every (scenario ×
    /// table-producing repair) cell, each under its own
    /// coordinate-derived seed and keyed on the exact table version it
    /// consumes. An eval miss whose repair was a store hit first
    /// rehydrates that repair live, once, under the same seed (the
    /// audit's purity certificate makes the recompute byte-identical;
    /// any payload mismatch is counted as `store_divergence`, never
    /// silently accepted). Without a store every repair slot already
    /// holds its live run, so nothing rehydrates.
    fn eval_phase(
        &self,
        pass: &Pass,
        det: &DetectorRun,
        det_ix: usize,
        repairs: &mut [RepairSlot],
        scenarios: &[Scenario],
        repeats: usize,
    ) -> Vec<(String, String)> {
        if scenarios.is_empty() || repeats == 0 {
            return Vec::new();
        }
        let ds = pass.ds;
        let span = rein_telemetry::span("controller:evaluate");
        let parent = Some(span.ctx());
        let mut work: Vec<(usize, usize)> = Vec::new();
        let mut cells: Vec<Planned> = Vec::new();
        for (si, scenario) in scenarios.iter().enumerate() {
            for (ri, rep) in repairs.iter().enumerate() {
                let Some(version_id) = rep.version_id.as_deref() else { continue };
                let coordinate =
                    format!("eval:{}:{}#{}", scenario.name(), rep.kind.name(), det.kind.name());
                let seed = derive_seed(
                    self.seed,
                    40_000 + (det_ix as u64) * 1_000 + (si as u64) * 100 + ri as u64,
                );
                work.push((si, ri));
                cells.push(self.planned(pass, version_id, coordinate, seed));
            }
        }
        let store = PhaseStore::new(pass.store);
        let lookup = store.lookup(&cells, |_, hit| Some(hit.payload));
        let misses = lookup.misses();
        // Each stored repair an eval miss needs rehydrates exactly once.
        let need: Vec<usize> = (0..repairs.len())
            .filter(|&ri| repairs[ri].run.is_none() && misses.iter().any(|&i| work[i].1 == ri))
            .collect();
        let rehydrated: Vec<(usize, RepairRun)> = need
            .par_iter()
            .map(|&ri| {
                let slot = &repairs[ri];
                let _worker = slot.cell.trace_root(parent);
                (ri, self.run_repair(pass, det, slot.kind, slot.cell.seed))
            })
            .collect();
        store.count("store_rehydrated", rehydrated.len());
        for (ri, run) in rehydrated {
            if repair_payload(&run) != repairs[ri].payload {
                rein_telemetry::counter("store_divergence").incr();
            }
            repairs[ri].run = Some(run);
        }
        let computed = misses
            .par_iter()
            .map(|&i| {
                let (si, ri) = work[i];
                let cell = &cells[i];
                let version = repairs[ri].run.as_ref().and_then(|run| run.version.as_ref());
                // audit:allow(panic, a versioned slot holds its live or rehydrated run, and a purity-certified recompute yields the same version)
                let version = version.expect("versioned repair");
                let _worker = cell.trace_root(parent);
                let payload = self.eval_cell(ds, scenarios[si], version, repeats, cell.seed);
                store.stage(cell, &payload, None);
                (i, payload)
            })
            .collect();
        store.commit(&self.policy);
        let (payloads, hits) = lookup.merge(computed);
        let evals: Vec<(String, String)> =
            cells.into_iter().map(|cell| cell.coordinate).zip(payloads).collect();
        let failed = evals.iter().filter(|(_, v)| v.contains(" failure:")).count();
        self.emit_progress(&format!(
            "dataset={} phase=eval detector={} done={} failed={failed} total={} hits={hits}",
            ds.info.name,
            det.kind.name(),
            evals.len(),
            evals.len()
        ));
        evals
    }

    /// Runs one repair cell live under its coordinate-derived seed: the
    /// one call both a miss and a rehydration make, so they cannot drift.
    fn run_repair(&self, pass: &Pass, det: &DetectorRun, kind: RepairKind, seed: u64) -> RepairRun {
        run_repair_guarded(pass.ds, &det.mask, kind, seed, det.kind.name(), &self.policy)
    }

    /// Prints one deterministic-content progress line when the opt-in
    /// `REIN_PROGRESS` heartbeat is on. Only called from the grid's
    /// sequential merge points, so line order is scheduling-invariant;
    /// content is counts and coordinates, never timing or worker ids.
    fn emit_progress(&self, line: &str) {
        if self.progress {
            // audit:allow(print, opt-in REIN_PROGRESS heartbeat; deterministic content, emitted only at sequential merge points)
            eprintln!("[progress] {line}");
        }
    }

    /// The canonical cache key of one grid cell: the key the grid's
    /// store lookups and commits use, and its cell trace ids.
    /// `strategy` is the cell's `run_grid` coordinate string
    /// (`detect:…`, `repair:…#…` or `eval:…:…#…`), `dataset_version`
    /// the consumed version's [`VersionTable::content_identity`] (the
    /// dirty table's identity for detection cells), `cell_seed` the
    /// fully-derived per-cell seed, and `scale` the dataset generation
    /// factor. rein-audit's `cache-key-completeness` rule certifies the
    /// cell-compute entry points pure against exactly these components
    /// (DESIGN.md §6h), so a key hit is provably a byte-identical
    /// recompute.
    pub fn cell_key(
        &self,
        ds: &GeneratedDataset,
        dataset_version: &str,
        strategy: &str,
        scale: f64,
        cell_seed: u64,
    ) -> crate::cache_key::CellKey {
        crate::cache_key::CellKey {
            dataset: ds.info.name.clone(),
            dataset_version: dataset_version.to_string(),
            strategy: strategy.to_string(),
            seed: cell_seed,
            scale,
            guard_policy: self.policy.cache_identity(),
        }
    }

    /// Serializes one evaluation cell: the task-appropriate model's
    /// scores (plus the failure cause when the guarded fit degraded).
    fn eval_cell(
        &self,
        ds: &GeneratedDataset,
        scenario: Scenario,
        version: &VersionTable,
        repeats: usize,
        seed: u64,
    ) -> String {
        match ds.info.task {
            MlTask::Classification => {
                let (scores, failure) = eval_classifier_guarded(
                    scenario,
                    ds,
                    version,
                    ClassifierKind::DecisionTree,
                    repeats,
                    seed,
                    &self.policy,
                );
                render_scores(&scores, failure.as_ref())
            }
            MlTask::Regression => {
                let (scores, failure) = eval_regressor_guarded(
                    scenario,
                    ds,
                    version,
                    RegressorKind::LinearRegression,
                    repeats,
                    seed,
                    &self.policy,
                );
                render_scores(&scores, failure.as_ref())
            }
            MlTask::Clustering => {
                let score = eval_clusterer(&version.table, ClustererKind::KMeans, 6, seed);
                format!("silhouette:{score:?}")
            }
            MlTask::None => "task:none".to_string(),
        }
    }

    /// Detection records for result tables.
    pub fn detection_records(
        &self,
        ds: &GeneratedDataset,
        runs: &[DetectorRun],
    ) -> Vec<DetectionRecord> {
        runs.iter()
            .map(|run| DetectionRecord {
                dataset: ds.info.name.clone(),
                detector: run.kind.name().to_string(),
                detected: run.quality.detected(),
                true_positives: run.quality.true_positives,
                actual_errors: run.quality.actual_errors(),
                precision: run.quality.precision,
                recall: run.quality.recall,
                f1: run.quality.f1,
                runtime_ms: run.runtime.as_secs_f64() * 1e3,
                failure: run.failure.as_ref().map(|f| f.cause.to_string()),
            })
            .collect()
    }

    /// Repair records for result tables.
    pub fn repair_records(
        &self,
        ds: &GeneratedDataset,
        detector: DetectorKind,
        runs: &[RepairRun],
    ) -> Vec<RepairRecord> {
        runs.iter()
            .map(|run| {
                let cat = repair_quality_categorical(ds, run);
                let num = repair_quality_numerical(ds, run);
                RepairRecord {
                    dataset: ds.info.name.clone(),
                    detector: detector.name().to_string(),
                    repairer: run.kind.name().to_string(),
                    cat_precision: cat.map(|q| q.precision),
                    cat_recall: cat.map(|q| q.recall),
                    cat_f1: cat.map(|q| q.f1),
                    rmse: num.map(|(r, _)| r.rmse).filter(|v| v.is_finite()),
                    dirty_rmse: num.map(|(_, d)| d.rmse).filter(|v| v.is_finite()),
                    runtime_ms: run.runtime.as_secs_f64() * 1e3,
                    failure: run.failure.as_ref().map(|f| f.cause.to_string()),
                }
            })
            .collect()
    }
}

/// What every phase of one grid pass shares: the dataset, its pruned
/// plan, the dirty table's identity, and the store, if any.
struct Pass<'a> {
    ds: &'a GeneratedDataset,
    plan: Plan,
    dirty_id: String,
    store: Option<&'a Store>,
}

/// One planned grid cell: its coordinate, coordinate-derived seed,
/// store key ([`CellKey::content_key`]) and trace id
/// ([`CellKey::hash`]).
///
/// [`CellKey::content_key`]: crate::cache_key::CellKey::content_key
/// [`CellKey::hash`]: crate::cache_key::CellKey::hash
struct Planned {
    coordinate: String,
    seed: u64,
    digest: String,
    trace: u64,
}

impl Planned {
    /// Opens this cell's trace root on a worker, under the phase span.
    fn trace_root(&self, parent: Option<SpanCtx>) -> rein_telemetry::Span {
        rein_telemetry::span_traced(format!("cell:{}", self.coordinate), parent, self.trace)
    }
}

/// The store's part in one phase: lookup before the fan-out, staging
/// inside it, and one journal commit at the phase's sequential merge
/// point. Without a store every lookup misses, nothing stages, nothing
/// commits and no `store_*` counter is emitted.
struct PhaseStore<'a> {
    store: Option<&'a Store>,
    writer: StoreWriter,
}

impl<'a> PhaseStore<'a> {
    fn new(store: Option<&'a Store>) -> Self {
        Self { store, writer: StoreWriter::with_shards(rayon::current_num_threads().max(1)) }
    }

    /// Step 2: looks every cell up, in plan order. `hit` turns a stored
    /// cell into the phase's value, or rejects it as a miss.
    fn lookup<T>(
        &self,
        cells: &[Planned],
        hit: impl Fn(usize, StoredCell) -> Option<T>,
    ) -> Lookup<T> {
        let found: Vec<Option<T>> =
            cells.iter().enumerate().map(|(i, c)| hit(i, self.store?.lookup(&c.digest)?)).collect();
        let hits = found.iter().filter(|f| f.is_some()).count();
        self.count("store_hits", hits);
        self.count("store_misses", cells.len() - hits);
        Lookup { found, hits }
    }

    /// Stages one computed cell for this phase's commit. Callable from
    /// the phase's parallel workers.
    fn stage(&self, cell: &Planned, payload: &str, aux: Option<&str>) {
        if self.store.is_some() {
            self.writer.stage(&cell.digest, &cell.coordinate, payload, aux);
        }
    }

    /// Adds `n` to a store counter.
    fn count(&self, counter: &str, n: usize) {
        if self.store.is_some() {
            rein_telemetry::counter(counter).add(n as u64);
        }
    }

    /// Step 4: commits everything staged through the store's
    /// write-ahead journal, translating the policy's `REIN_CRASH` rules
    /// into the store's commit-point injection. A commit I/O failure
    /// degrades to recompute-next-run: it is counted, never fatal to
    /// the in-flight grid (the in-memory cell map is already correct).
    fn commit(&self, policy: &GuardPolicy) {
        let Some(store) = self.store else { return };
        let crash = |coordinate: &str| {
            policy.crash.when_for(coordinate).map(|when| match when {
                CrashWhen::Before => CrashPoint::Before,
                CrashWhen::After => CrashPoint::After,
            })
        };
        if store.commit_staged(&self.writer, &crash).is_err() {
            rein_telemetry::counter("store_commit_errors").incr();
        }
    }
}

/// One phase's lookup result: each cell's stored value in plan order
/// (`None` is a miss) and the number of hits.
struct Lookup<T> {
    found: Vec<Option<T>>,
    hits: usize,
}

impl<T> Lookup<T> {
    /// The plan positions of the misses, ascending.
    fn misses(&self) -> Vec<usize> {
        (0..self.found.len()).filter(|&i| self.found[i].is_none()).collect()
    }

    /// Step 5: fills every miss with its computed value and returns the
    /// phase's values in plan order, with the hit count.
    fn merge(self, computed: Vec<(usize, T)>) -> (Vec<T>, usize) {
        let mut found = self.found;
        for (i, value) in computed {
            found[i] = Some(value);
        }
        (found.into_iter().flatten().collect(), self.hits)
    }
}

/// One repair cell after its phase: the stored or freshly computed
/// payload, the produced version's content identity (the downstream
/// eval cells' `dataset_version` key component), and — for live or
/// rehydrated repairs — the run itself.
struct RepairSlot {
    kind: RepairKind,
    cell: Planned,
    payload: String,
    version_id: Option<String>,
    run: Option<RepairRun>,
}

/// The canonical `detect:…` cell payload: the mask as JSON.
fn detect_payload(mask: &CellMask) -> String {
    // audit:allow(panic, CellMask serialization to JSON strings is infallible)
    serde_json::to_string(mask).expect("mask serializes")
}

/// The canonical `repair:…#…` cell payload: repaired CSV + modified
/// cells + row map for version-producing repairs, a pipeline marker
/// otherwise. The store commits exactly these bytes, and a rehydrated
/// repair is checked against them.
fn repair_payload(rep: &RepairRun) -> String {
    match (&rep.version, &rep.repaired_cells) {
        (Some(v), Some(m)) => format!(
            "{}\n{}\n{:?}",
            rein_data::csv::write_str(&v.table),
            // audit:allow(panic, CellMask serialization to JSON strings is infallible)
            serde_json::to_string(m).expect("mask serializes"),
            v.row_map
        ),
        _ => format!("pipeline:{}", rep.pipeline.is_some()),
    }
}

/// The `scores:…` cell text shared by the supervised tasks.
fn render_scores(scores: &[f64], failure: Option<&StrategyFailure>) -> String {
    match failure {
        Some(f) => format!("scores:{scores:?} failure:{}", f.cause),
        None => format!("scores:{scores:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rein_datasets::{DatasetId, Params};

    #[test]
    fn citation_plan_prunes_outlier_detectors() {
        let ds = DatasetId::Citation.generate(&Params::scaled(0.05, 1));
        let plan = Controller::default().plan(&ds);
        assert!(plan.detectors.contains(&DetectorKind::KeyCollision));
        assert!(plan.detectors.contains(&DetectorKind::CleanLab));
        assert!(!plan.detectors.contains(&DetectorKind::Sd));
        assert!(!plan.detectors.contains(&DetectorKind::Nadeef));
        // Classification dataset with oracle: ML-oriented repairs planned.
        assert!(plan.ml_repairers.contains(&RepairKind::ActiveClean));
    }

    #[test]
    fn nasa_plan_keeps_outlier_and_mv_detectors_only() {
        let ds = DatasetId::Nasa.generate(&Params::scaled(0.1, 2));
        let plan = Controller::default().plan(&ds);
        assert!(plan.detectors.contains(&DetectorKind::Sd));
        assert!(plan.detectors.contains(&DetectorKind::MvDetector));
        assert!(!plan.detectors.contains(&DetectorKind::KeyCollision));
        // Regression: no ML-oriented repairers.
        assert!(plan.ml_repairers.is_empty());
    }

    #[test]
    fn detection_phase_produces_records() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.4, 3));
        let ctrl = Controller { label_budget: 40, seed: 1, ..Controller::default() };
        let runs = ctrl.run_detection(&ds);
        assert!(!runs.is_empty());
        let records = ctrl.detection_records(&ds, &runs);
        assert_eq!(records.len(), runs.len());
        // At least one detector achieves decent recall on this dataset.
        assert!(records.iter().any(|r| r.recall > 0.5), "no detector found errors");
    }

    #[test]
    fn repair_phase_covers_generic_and_ml_methods() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.3, 4));
        let ctrl = Controller { label_budget: 30, seed: 2, ..Controller::default() };
        let harness = DetectorHarness::new(&ds, 30, 1);
        let det = harness.run(&ds, DetectorKind::MaxEntropy);
        let runs = ctrl.run_repairs(&ds, &det);
        assert!(runs.iter().any(|r| r.version.is_some()), "generic repairs ran");
        assert!(runs.iter().any(|r| r.pipeline.is_some()), "ML-oriented repairs ran");
        let records = ctrl.repair_records(&ds, det.kind, &runs);
        // Numeric dataset: RMSE defined for same-shape repairs.
        assert!(records.iter().any(|r| r.rmse.is_some()));
    }

    #[test]
    fn grid_covers_detect_repair_and_eval_cells() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        let ctrl = Controller { label_budget: 30, seed: 7, ..Controller::default() };
        let cells = ctrl.run_grid(&ds, &[Scenario::S1], 1);
        assert!(cells.keys().any(|k| k.starts_with("detect:")), "got {:?}", cells.keys());
        assert!(cells.keys().any(|k| k.starts_with("repair:")), "got {:?}", cells.keys());
        let evals: Vec<&String> = cells.keys().filter(|k| k.starts_with("eval:S1:")).collect();
        assert!(!evals.is_empty(), "got {:?}", cells.keys());
        // Eval cells carry rendered scores, not placeholders.
        for key in evals {
            assert!(cells[key].starts_with("scores:"), "{key} -> {}", cells[key]);
        }
        // Byte-identity across pool widths is parallel_smoke's job; here
        // we only pin the cell taxonomy.
    }

    #[test]
    fn cell_keys_are_content_addressed_per_coordinate() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        let ctrl = Controller { label_budget: 30, seed: 7, ..Controller::default() };
        let version = VersionTable::identity(ds.dirty.clone());
        let seed_a = derive_seed(ctrl.seed, 40_000);
        let seed_b = derive_seed(ctrl.seed, 40_001);
        let vid = version.content_identity();
        let a = ctrl.cell_key(&ds, &vid, "eval:S1:ImputeMeanMode#Raha", 0.2, seed_a);
        let b = ctrl.cell_key(&ds, &vid, "eval:S1:ImputeMeanMode#MaxEntropy", 0.2, seed_b);
        assert_ne!(a.content_key(), b.content_key());
        // Rebuilding the key from the same coordinates is byte-stable.
        let again = ctrl.cell_key(&ds, &vid, "eval:S1:ImputeMeanMode#Raha", 0.2, seed_a);
        assert_eq!(a, again);
        assert_eq!(a.content_key(), again.content_key());
        // The version component really is content-addressed: the same
        // table rebuilt from scratch hashes to the same identity.
        assert_eq!(vid, VersionTable::identity(ds.dirty.clone()).content_identity());
        assert!(vid.starts_with("v:") && vid.len() == 18, "got {vid}");
    }

    #[test]
    fn grid_cells_open_trace_roots_keyed_by_cell_key_digest() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        // A seed no other test's grid uses: the span sink is process-
        // global, so this run's roots are isolated by their trace ids.
        let ctrl =
            Controller { label_budget: 30, seed: 0xC311, scale: 0.2, ..Controller::default() };
        let _ = ctrl.run_grid(&ds, &[Scenario::S1], 1);
        let spans = rein_telemetry::snapshot_spans();
        let roots: Vec<_> =
            spans.iter().filter(|s| s.name.starts_with("cell:") && !s.instant).collect();
        assert!(!roots.is_empty(), "grid must open cell trace roots");
        assert!(roots.iter().all(|s| s.trace_id != 0), "cell roots are never ambient");
        // Every planned detection cell's trace id is recomputable from
        // its CellKey — and the recorded roots carry exactly those ids.
        // (The snapshot is process-global, so selection is by trace id,
        // which this test's unique seed scopes to this run.)
        let dirty_id = table_identity(&ds.dirty);
        let this_run: Vec<(String, u64)> = ctrl
            .plan(&ds)
            .detectors
            .iter()
            .map(|k| {
                let strat = format!("detect:{}", k.name());
                let seed = derive_seed(ctrl.seed, k.index_letter() as u64);
                let id = ctrl.cell_key(&ds, &dirty_id, &strat, ctrl.scale, seed).hash();
                (strat, id)
            })
            .collect();
        let mut unique: Vec<u64> = this_run.iter().map(|(_, id)| *id).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), this_run.len(), "detection cell trace ids are distinct");
        for (strategy, id) in &this_run {
            let root = roots
                .iter()
                .find(|s| s.trace_id == *id)
                .unwrap_or_else(|| panic!("no trace root recorded for {strategy}"));
            assert_eq!(root.name, format!("cell:{strategy}"), "root named for its coordinate");
            // Guard spans opened inside the cell inherit the root's trace.
            let inherited = spans
                .iter()
                .any(|s| s.trace_id == *id && s.id != root.id && s.name.starts_with("detect:"));
            assert!(inherited, "guard span under {strategy} must inherit its trace id");
        }
    }

    #[test]
    fn stored_grid_matches_direct_grid_cold_and_warm() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        let root = std::env::temp_dir().join(format!("rein-ctrl-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let direct = Controller { label_budget: 30, seed: 7, ..Controller::default() };
        let want = direct.run_grid(&ds, &[Scenario::S1], 1);

        // Cold store: every cell misses, computes, and commits — and the
        // resulting map is byte-identical to the store-less grid.
        let store = Arc::new(Store::open(&root).unwrap());
        let ctrl = Controller { store: Some(store.clone()), ..direct.clone() };
        let cold = ctrl.run_grid(&ds, &[Scenario::S1], 1);
        assert_eq!(want, cold, "cold store-backed grid diverges from direct grid");
        assert_eq!(store.cell_count(), want.len(), "every grid cell committed");
        drop(ctrl);
        drop(store);

        // Reopen from disk: the journal replays every committed cell and
        // a fully-warm grid replays byte-identical payloads.
        let reopened = Arc::new(Store::open(&root).unwrap());
        assert_eq!(reopened.cell_count(), want.len(), "journal replay is lossless");
        assert!(reopened.recovery().quarantined.is_empty());
        let warm_ctrl = Controller { store: Some(reopened), ..direct.clone() };
        let warm = warm_ctrl.run_grid(&ds, &[Scenario::S1], 1);
        assert_eq!(want, warm, "warm store-backed grid diverges from direct grid");
        let _ = std::fs::remove_dir_all(&root);

        // Rehydrate path: a store holding only detect and repair cells
        // serves every repair as a hit, so each eval miss re-runs its
        // stored repair live before evaluating — still byte-identical.
        let root = std::env::temp_dir().join(format!("rein-ctrl-rehydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(Store::open(&root).unwrap());
        let ctrl = Controller { store: Some(store.clone()), ..direct };
        let partial = ctrl.run_grid(&ds, &[], 0);
        assert!(partial.keys().all(|k| !k.starts_with("eval:")), "no eval cells without scenarios");
        assert_eq!(store.cell_count(), partial.len(), "detect and repair cells committed");
        let rehydrated = ctrl.run_grid(&ds, &[Scenario::S1], 1);
        assert_eq!(want, rehydrated, "rehydrated store-backed grid diverges from direct grid");
        assert_eq!(store.cell_count(), want.len(), "every eval cell committed after rehydrating");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cell_keys_ignore_crash_injection_but_not_chaos() {
        let ds = DatasetId::BreastCancer.generate(&Params::scaled(0.2, 6));
        let base = Controller { label_budget: 30, seed: 7, ..Controller::default() };
        let mut crashy = base.clone();
        crashy.policy.crash = rein_guard::CrashSpec::parse("detect:raha=before").unwrap();
        let vid = table_identity(&ds.dirty);
        let seed = derive_seed(base.seed, 40_000);
        // A crashed run and its resume (without REIN_CRASH) must address
        // the same cells: the crash spec is not a cache-key component.
        assert_eq!(
            base.cell_key(&ds, &vid, "detect:raha", 0.2, seed).content_key(),
            crashy.cell_key(&ds, &vid, "detect:raha", 0.2, seed).content_key(),
        );
        // Chaos degrades what a cell computes, so it still keys.
        let mut chaotic = base.clone();
        chaotic.policy.chaos = rein_guard::ChaosSpec::parse("detect:raha=panic").unwrap();
        assert_ne!(
            base.cell_key(&ds, &vid, "detect:raha", 0.2, seed).content_key(),
            chaotic.cell_key(&ds, &vid, "detect:raha", 0.2, seed).content_key(),
        );
    }

    #[test]
    fn strategy_labels_follow_paper_convention() {
        let s = CleaningStrategy {
            detector: DetectorKind::MaxEntropy,
            repairer: RepairKind::ImputeMeanMode,
        };
        assert_eq!(s.label(), "X3");
        let s =
            CleaningStrategy { detector: DetectorKind::Raha, repairer: RepairKind::GroundTruth };
        assert_eq!(s.label(), "R1");
    }
}
