//! The traced pass: rebuilds one grid from the layers' public entry
//! points, in the order `Controller::run_grid` visits them, and times
//! each call from outside. Nothing inside the program is instrumented:
//! the layer boundaries are the calls below.
//!
//! The rebuild mirrors both grid executors. Without a store it is the
//! direct grid; with one it is the store-backed grid: every cell is
//! looked up first, hits replay the stored payload, misses compute and
//! are staged, and each stage commits once at its merge point (one
//! detect stage, then a repair stage and an eval stage per detector).
//! Per-cell seeds come from `derive_seed` exactly as the controller
//! derives them, so the rebuilt cell map must equal the grid's.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use rein_core::evaluate::table_identity;
use rein_core::{
    eval_classifier_guarded, eval_regressor_guarded, run_repair_guarded, Controller,
    DetectorHarness, DetectorRun, RepairRun, Scenario,
};
use rein_data::rng::derive_seed;
use rein_data::{CellMask, MlTask};
use rein_datasets::{DatasetId, GeneratedDataset, Params};
use rein_ml::model::{ClassifierKind, RegressorKind};
use rein_store::{Store, StoreWriter};

use crate::Cells;

/// Seconds spent in each layer's calls during one traced pass.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    /// `DatasetId::generate`.
    pub generate: f64,
    /// `DetectorHarness::new` + `run` (or the mask replay on a hit).
    pub detect: f64,
    /// `run_repair_guarded`, rehydrations included.
    pub repair: f64,
    /// `eval_classifier_guarded` / `eval_regressor_guarded`.
    pub evaluate: f64,
    /// Cell payload serialization (`csv::write_str`, mask JSON), the
    /// stored mask's parse on a hit, and entering payloads in the map.
    pub payload: f64,
    /// `table_identity`, `VersionTable::content_identity`, and each
    /// cell's coordinate, seed and `CellKey` digests.
    pub identity: f64,
    /// `Store::open`.
    pub store_open: f64,
    /// `Store::commit_staged`.
    pub store_commit: f64,
    /// `Store::lookup` and `StoreWriter::stage`.
    pub store_io: f64,
}

impl LayerTimes {
    /// Every layer's time: what the pass spent inside public calls.
    pub fn total(&self) -> f64 {
        self.generate
            + self.detect
            + self.repair
            + self.evaluate
            + self.payload
            + self.identity
            + self.store_open
            + self.store_commit
            + self.store_io
    }
}

/// What one traced pass measured.
#[derive(Debug, Default)]
pub struct Traced {
    /// The rebuilt cell map, checked against the grid's reference.
    pub cells: Cells,
    /// Wall time of the whole pass, generation included.
    pub wall_s: f64,
    /// Per-layer busy time.
    pub layers: LayerTimes,
    /// Sum of every cell's compute time (detect, repair, evaluate).
    pub work_s: f64,
    /// Longest-cell sum under the grid's stage barriers.
    pub critical_path_s: f64,
    /// Repair time per repairer name.
    pub repair_by_strategy: BTreeMap<&'static str, f64>,
    /// The slowest single repair cell.
    pub repair_max_cell_s: f64,
    /// Serialized bytes of every cell payload in the map.
    pub payload_bytes: u64,
    /// Store lookups that hit.
    pub hits: u64,
    /// Store lookups that missed.
    pub misses: u64,
    /// Stored repairs recomputed because an eval cell missed.
    pub rehydrated: u64,
    /// Rehydrated repairs whose payload differs from the stored one.
    pub divergence: u64,
    /// Cells the store holds after the pass.
    pub stored_cells: u64,
}

/// Adds the time `f` takes to `acc` and returns its result.
fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Runs `f`, returning its result and its time in seconds.
fn clocked<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The `detect:` cell payload, byte for byte as the controller writes it.
fn detect_payload(mask: &CellMask) -> String {
    serde_json::to_string(mask).expect("a cell mask always serializes")
}

/// The `repair:` cell payload, byte for byte as the controller writes it.
fn repair_payload(run: &RepairRun) -> String {
    match (&run.version, &run.repaired_cells) {
        (Some(v), Some(m)) => format!(
            "{}\n{}\n{:?}",
            rein_data::csv::write_str(&v.table),
            serde_json::to_string(m).expect("a cell mask always serializes"),
            v.row_map
        ),
        _ => format!("pipeline:{}", run.pipeline.is_some()),
    }
}

/// One repair coordinate as the eval stage sees it.
struct RepairSlot {
    run: Option<RepairRun>,
    kind: rein_repair::RepairKind,
    seed: u64,
    payload: String,
    version_id: Option<String>,
}

/// One eval coordinate: the scenario and repair it evaluates, its key
/// material, and the stored payload when the lookup hit.
struct EvalCell {
    si: usize,
    ri: usize,
    coordinate: String,
    seed: u64,
    digest: Option<String>,
    hit: Option<String>,
}

/// Rebuilds the grid of `dataset` at `params` through the public layer
/// calls. Run it inside a 1-worker pool so nested parallel stages stay
/// serial and each call's time is its own. `store_root` selects the
/// store-backed executor over the store at that path.
pub fn traced_pass(
    dataset: DatasetId,
    params: &Params,
    ctrl: &Controller,
    scenarios: &[Scenario],
    repeats: usize,
    store_root: Option<&Path>,
) -> Result<Traced, String> {
    let wall = Instant::now();
    let mut out = Traced::default();
    let t = &mut out.layers;
    let ds = timed(&mut t.generate, || dataset.generate(params));
    let store = match store_root {
        Some(root) => Some(
            timed(&mut t.store_open, || Store::open(root))
                .map_err(|e| format!("cannot open store {}: {e}", root.display()))?,
        ),
        None => None,
    };
    let store = store.as_ref();
    let plan = ctrl.plan(&ds);
    let dirty_id = timed(&mut t.identity, || table_identity(&ds.dirty));
    let commit = |t: &mut LayerTimes, writer: &StoreWriter| -> Result<(), String> {
        if let Some(store) = store {
            timed(&mut t.store_commit, || store.commit_staged(writer, &|_| None))
                .map_err(|e| format!("store commit failed: {e}"))?;
        }
        Ok(())
    };
    // The cell's trace id and, for the store-backed grid, its content
    // key (the store's lookup key).
    let digest = |version: &str, coordinate: &str, seed: u64| {
        let key = ctrl.cell_key(&ds, version, coordinate, ctrl.scale, seed);
        std::hint::black_box(key.hash());
        store.map(|_| key.content_key())
    };

    // Detect stage.
    let writer = StoreWriter::with_shards(1);
    let mut detections: Vec<DetectorRun> = Vec::new();
    let mut detect_max = 0.0f64;
    for &kind in &plan.detectors {
        let (coordinate, seed, digest) = timed(&mut t.identity, || {
            let coordinate = format!("detect:{}", kind.name());
            let seed = derive_seed(ctrl.seed, kind.index_letter() as u64);
            let digest = digest(&dirty_id, &coordinate, seed);
            (coordinate, seed, digest)
        });
        let hit = match (store, &digest) {
            (Some(s), Some(d)) => timed(&mut t.store_io, || s.lookup(d)),
            _ => None,
        };
        let replayed = hit.and_then(|cell| {
            let mask: CellMask =
                timed(&mut t.payload, || serde_json::from_str(&cell.payload).ok())?;
            Some((mask, cell.payload))
        });
        let (run, payload, cell_s) = match replayed {
            Some((mask, payload)) => {
                out.hits += 1;
                let (run, s) =
                    clocked(|| rein_core::evaluate::replay_detector_run(&ds, kind, mask));
                (run, payload, s)
            }
            None => {
                if store.is_some() {
                    out.misses += 1;
                }
                let (run, s) = clocked(|| {
                    DetectorHarness::new(&ds, ctrl.label_budget, seed)
                        .with_policy(ctrl.policy.clone())
                        .run(&ds, kind)
                });
                let payload = timed(&mut t.payload, || detect_payload(&run.mask));
                if let Some(d) = &digest {
                    timed(&mut t.store_io, || writer.stage(d, &coordinate, &payload, None));
                }
                (run, payload, s)
            }
        };
        t.detect += cell_s;
        out.work_s += cell_s;
        detect_max = detect_max.max(cell_s);
        timed(&mut t.payload, || out.cells.insert(coordinate, payload));
        detections.push(run);
    }
    commit(t, &writer)?;
    out.critical_path_s += detect_max;

    let kinds: Vec<_> =
        plan.generic_repairers.iter().chain(plan.ml_repairers.iter()).copied().collect();
    for (det_ix, det) in detections.iter().enumerate() {
        // Repair stage for this detector.
        let writer = StoreWriter::with_shards(1);
        let mut slots: Vec<RepairSlot> = Vec::new();
        let mut repair_max = 0.0f64;
        for &kind in &kinds {
            let (coordinate, seed, digest) = timed(&mut t.identity, || {
                let coordinate = format!("repair:{}#{}", kind.name(), det.kind.name());
                let seed = derive_seed(ctrl.seed, kind.index() as u64);
                let digest = digest(&dirty_id, &coordinate, seed);
                (coordinate, seed, digest)
            });
            let hit = match (store, &digest) {
                (Some(s), Some(d)) => timed(&mut t.store_io, || s.lookup(d)),
                _ => None,
            };
            let slot = match hit {
                Some(cell) => {
                    out.hits += 1;
                    RepairSlot {
                        run: None,
                        kind,
                        seed,
                        payload: cell.payload,
                        version_id: cell.aux,
                    }
                }
                None => {
                    if store.is_some() {
                        out.misses += 1;
                    }
                    let (run, s) = clocked(|| {
                        run_repair_guarded(
                            &ds,
                            &det.mask,
                            kind,
                            seed,
                            det.kind.name(),
                            &ctrl.policy,
                        )
                    });
                    t.repair += s;
                    out.work_s += s;
                    repair_max = repair_max.max(s);
                    *out.repair_by_strategy.entry(kind.name()).or_default() += s;
                    out.repair_max_cell_s = out.repair_max_cell_s.max(s);
                    let payload = timed(&mut t.payload, || repair_payload(&run));
                    let version_id = timed(&mut t.identity, || {
                        run.version.as_ref().map(|v| v.content_identity())
                    });
                    if let Some(d) = &digest {
                        timed(&mut t.store_io, || {
                            writer.stage(d, &coordinate, &payload, version_id.as_deref())
                        });
                    }
                    RepairSlot { run: Some(run), kind, seed, payload, version_id }
                }
            };
            timed(&mut t.payload, || out.cells.insert(coordinate, slot.payload.clone()));
            slots.push(slot);
        }
        commit(t, &writer)?;
        out.critical_path_s += repair_max;
        if scenarios.is_empty() || repeats == 0 {
            continue;
        }

        // Eval stage for this detector: every scenario × versioned repair.
        let mut metas: Vec<EvalCell> = Vec::new();
        for (si, scenario) in scenarios.iter().enumerate() {
            for (ri, slot) in slots.iter().enumerate() {
                let Some(version_id) = &slot.version_id else { continue };
                let (coordinate, seed, digest) = timed(&mut t.identity, || {
                    let coordinate = format!(
                        "eval:{}:{}#{}",
                        scenario.name(),
                        slot.kind.name(),
                        det.kind.name()
                    );
                    let seed = derive_seed(
                        ctrl.seed,
                        40_000 + (det_ix as u64) * 1_000 + (si as u64) * 100 + ri as u64,
                    );
                    let digest = digest(version_id, &coordinate, seed);
                    (coordinate, seed, digest)
                });
                let hit = match (store, &digest) {
                    (Some(s), Some(d)) => timed(&mut t.store_io, || s.lookup(d)),
                    _ => None,
                };
                metas.push(EvalCell {
                    si,
                    ri,
                    coordinate,
                    seed,
                    digest,
                    hit: hit.map(|c| c.payload),
                });
            }
        }
        // A missed eval cell whose repair was a hit needs that repair
        // recomputed (once) before it can evaluate.
        let mut rehydrate_max = 0.0f64;
        for (ri, slot) in slots.iter_mut().enumerate() {
            if slot.run.is_some() || !metas.iter().any(|m| m.ri == ri && m.hit.is_none()) {
                continue;
            }
            let (run, s) = clocked(|| {
                run_repair_guarded(
                    &ds,
                    &det.mask,
                    slot.kind,
                    slot.seed,
                    det.kind.name(),
                    &ctrl.policy,
                )
            });
            t.repair += s;
            out.work_s += s;
            rehydrate_max = rehydrate_max.max(s);
            out.rehydrated += 1;
            if timed(&mut t.payload, || repair_payload(&run)) != slot.payload {
                out.divergence += 1;
            }
            slot.run = Some(run);
        }
        out.critical_path_s += rehydrate_max;
        let writer = StoreWriter::with_shards(1);
        let mut eval_max = 0.0f64;
        for EvalCell { si, ri, coordinate, seed, digest, hit } in metas {
            let payload = match hit {
                Some(payload) => {
                    out.hits += 1;
                    payload
                }
                None => {
                    if store.is_some() {
                        out.misses += 1;
                    }
                    let version = slots[ri]
                        .run
                        .as_ref()
                        .and_then(|r| r.version.as_ref())
                        .ok_or_else(|| format!("{coordinate}: repair produced no version"))?;
                    let (payload, s) =
                        clocked(|| eval_cell(&ds, ctrl, scenarios[si], version, repeats, seed));
                    let payload = payload?;
                    t.evaluate += s;
                    out.work_s += s;
                    eval_max = eval_max.max(s);
                    if let Some(d) = &digest {
                        timed(&mut t.store_io, || writer.stage(d, &coordinate, &payload, None));
                    }
                    payload
                }
            };
            timed(&mut t.payload, || out.cells.insert(coordinate, payload));
        }
        commit(t, &writer)?;
        out.critical_path_s += eval_max;
    }
    out.payload_bytes = out.cells.values().map(|v| v.len() as u64).sum();
    out.stored_cells = store.map_or(0, |s| s.cell_count() as u64);
    out.wall_s = wall.elapsed().as_secs_f64();
    Ok(out)
}

/// One eval cell's payload, byte for byte as the controller renders it.
fn eval_cell(
    ds: &GeneratedDataset,
    ctrl: &Controller,
    scenario: Scenario,
    version: &rein_core::VersionTable,
    repeats: usize,
    seed: u64,
) -> Result<String, String> {
    let (scores, failure) = match ds.info.task {
        MlTask::Classification => eval_classifier_guarded(
            scenario,
            ds,
            version,
            ClassifierKind::DecisionTree,
            repeats,
            seed,
            &ctrl.policy,
        ),
        MlTask::Regression => eval_regressor_guarded(
            scenario,
            ds,
            version,
            RegressorKind::LinearRegression,
            repeats,
            seed,
            &ctrl.policy,
        ),
        task => return Err(format!("the traced pass does not rebuild {task:?} grids")),
    };
    Ok(match failure {
        Some(f) => format!("scores:{scores:?} failure:{}", f.cause),
        None => format!("scores:{scores:?}"),
    })
}
