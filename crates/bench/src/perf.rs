//! The performance-observability harness behind the repo-root
//! `BENCH_<n>.json` trajectory.
//!
//! Three pieces:
//!
//! * **Macro-benchmark suite** — [`run_perf_suite`] executes a fixed,
//!   seeded set of representative workloads (detectors, repairs, an ML
//!   fit, one end-to-end S1 scenario) `repeats` times each and folds the
//!   measurements into a [`BenchReport`]: per-repeat wall times,
//!   throughput in cells/second, allocation deltas from
//!   [`rein_telemetry::perf`]'s counting allocator, and a span-path
//!   profile of everything that ran inside the benchmark.
//! * **Deterministic report shape** — benchmarks are sorted by id, span
//!   profiles by path, and [`BenchReport::normalized`] blanks the
//!   explicitly-volatile measurement fields so two same-seed runs can be
//!   compared byte-for-byte on structure.
//! * **Regression comparator** — [`compare_reports`] pairs two reports
//!   by benchmark id and runs the paired Wilcoxon signed-rank test from
//!   `rein-stats` over the repeat timings: a benchmark regresses when
//!   the test rejects at `alpha` *and* the median slowdown exceeds the
//!   configured ratio. [`comparator_self_test`] proves the gate works by
//!   injecting an artificial 2× slowdown.

use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use rein_core::{
    eval_classifier, run_repair, scenario_split, DetectorHarness, Scenario, VersionTable,
};
use rein_datasets::{DatasetId, GeneratedDataset, Params};
use rein_detect::DetectorKind;
use rein_ml::encode::{Encoder, LabelMap, ParsedTables};
use rein_ml::model::{Classifier, ClassifierKind};
use rein_ml::tree::{DecisionTreeClassifier, TreeParams};
use rein_repair::RepairKind;
use rein_stats::wilcoxon::{wilcoxon_signed_rank, WilcoxonError};
use rein_telemetry::perf::{self, SpanPathStat};

/// Schema version stamped into every report.
pub const REPORT_SCHEMA: u32 = 1;

/// Environment echo: enough to tell whether two reports are comparable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEnv {
    /// Dataset scale factor the suite ran at.
    pub scale: f64,
    /// Repeats per benchmark.
    pub repeats: u32,
    /// Master seed of the suite.
    pub seed: u64,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Worker threads rayon fan-outs may use.
    pub threads: u32,
    /// `true` when the host reported a single hardware thread
    /// (`available_parallelism() == 1`): parallel speedup numbers from
    /// such a run are meaningless and the comparator warns loudly when
    /// one side of a comparison was single-core. Defaults to `false`
    /// for reports written before the field existed.
    #[serde(default)]
    pub single_core: bool,
    /// Whether the counting global allocator was installed (allocation
    /// numbers are all-zero when it was not).
    pub alloc_tracking: bool,
}

/// Allocation measurements of one benchmark.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocReport {
    /// Allocation calls per repeat.
    pub allocs_per_repeat: Vec<u64>,
    /// Bytes requested per repeat.
    pub bytes_per_repeat: Vec<u64>,
    /// Peak outstanding bytes observed across the whole benchmark
    /// (after a warm-up reset).
    pub peak_bytes: u64,
}

/// Derived timing statistics over the repeats, in milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingStats {
    /// Median repeat time.
    pub median_ms: f64,
    /// Mean repeat time.
    pub mean_ms: f64,
    /// Fastest repeat.
    pub min_ms: f64,
    /// Slowest repeat.
    pub max_ms: f64,
}

/// One macro-benchmark's measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkResult {
    /// Stable benchmark id, `area/workload/dataset`.
    pub id: String,
    /// Cells (rows × columns) the workload processes per repeat.
    pub cells: u64,
    /// Wall-clock time of every repeat, in order.
    pub repeat_ms: Vec<f64>,
    /// Derived timing statistics.
    pub timing: TimingStats,
    /// Throughput at the median repeat: `cells / median seconds`.
    pub cells_per_sec: f64,
    /// Allocation activity.
    pub alloc: AllocReport,
    /// Span-path profile of everything that ran inside the repeats.
    pub span_profile: Vec<SpanPathStat>,
}

/// One point of the parallel-grid speedup curve: the detect+repair grid
/// timed under a scoped rayon pool of exactly `threads` workers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadAxisPoint {
    /// Scoped pool width the grid ran under.
    pub threads: u32,
    /// Wall-clock time of every repeat, in order, milliseconds.
    pub repeat_ms: Vec<f64>,
    /// Derived timing statistics.
    pub timing: TimingStats,
    /// `median(1 thread) / median(this width)`; >1 means the wider pool
    /// beat the serial grid.
    pub speedup: f64,
}

/// A full perf baseline: the durable JSON artefact at the repo root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// [`REPORT_SCHEMA`].
    pub schema: u32,
    /// Binary that produced the report.
    pub created_by: String,
    /// Environment echo.
    pub env: BenchEnv,
    /// Measurements, sorted by benchmark id.
    pub benchmarks: Vec<BenchmarkResult>,
    /// Parallel-grid speedup curve over pool widths (empty in reports
    /// predating the threads axis, hence the serde default).
    #[serde(default)]
    pub thread_axis: Vec<ThreadAxisPoint>,
}

fn timing_stats(xs: &[f64]) -> TimingStats {
    if xs.is_empty() {
        return TimingStats { median_ms: 0.0, mean_ms: 0.0, min_ms: 0.0, max_ms: 0.0 };
    }
    TimingStats {
        median_ms: rein_stats::median(xs),
        mean_ms: xs.iter().sum::<f64>() / xs.len() as f64,
        min_ms: xs.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        max_ms: xs.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b)),
    }
}

impl BenchmarkResult {
    /// Recomputes the derived fields from `repeat_ms` and `cells`.
    pub fn refinalize(&mut self) {
        self.timing = timing_stats(&self.repeat_ms);
        self.cells_per_sec = if self.timing.median_ms > 0.0 {
            self.cells as f64 / (self.timing.median_ms / 1e3)
        } else {
            0.0
        };
    }
}

impl BenchReport {
    /// Serializes to pretty JSON (the on-disk format).
    pub fn to_json(&self) -> String {
        // audit:allow(panic, serializing plain owned data cannot fail)
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parses a report back from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Atomically writes the report to `path`, creating parent
    /// directories.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        rein_telemetry::atomic_write(path, (self.to_json() + "\n").as_bytes())
    }

    /// Loads a report from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }

    /// A copy with every volatile measurement blanked: repeat times,
    /// derived timing statistics, throughput, allocation numbers, and
    /// span-profile durations. What survives — benchmark ids, cell
    /// counts, repeat-vector lengths, span paths and counts, the
    /// environment echo — must be byte-identical across same-seed runs.
    pub fn normalized(&self) -> BenchReport {
        let mut out = self.clone();
        for b in &mut out.benchmarks {
            b.repeat_ms = vec![0.0; b.repeat_ms.len()];
            b.timing = TimingStats { median_ms: 0.0, mean_ms: 0.0, min_ms: 0.0, max_ms: 0.0 };
            b.cells_per_sec = 0.0;
            b.alloc.allocs_per_repeat = vec![0; b.alloc.allocs_per_repeat.len()];
            b.alloc.bytes_per_repeat = vec![0; b.alloc.bytes_per_repeat.len()];
            b.alloc.peak_bytes = 0;
            for s in &mut b.span_profile {
                s.total_ms = 0.0;
                s.self_ms = 0.0;
                s.max_ms = 0.0;
            }
        }
        for p in &mut out.thread_axis {
            p.repeat_ms = vec![0.0; p.repeat_ms.len()];
            p.timing = TimingStats { median_ms: 0.0, mean_ms: 0.0, min_ms: 0.0, max_ms: 0.0 };
            p.speedup = 0.0;
        }
        out
    }
}

/// The first free `BENCH_<n>.json` slot under `dir` — the next point of
/// the repo-root perf trajectory.
pub fn next_bench_path(dir: &Path) -> PathBuf {
    for n in 0..10_000u32 {
        let candidate = dir.join(format!("BENCH_{n}.json"));
        if !candidate.exists() {
            return candidate;
        }
    }
    dir.join("BENCH_overflow.json")
}

/// A benchmark's timed body.
type BenchFn = Box<dyn Fn(&GeneratedDataset, u64)>;

/// One macro-benchmark: a seeded workload over a pre-generated dataset.
/// Dataset generation happens once, outside the timed region; the
/// closure re-runs the workload itself on every repeat.
struct MacroBench {
    id: &'static str,
    ds: GeneratedDataset,
    seed: u64,
    /// The timed body; inputs it needs beyond `ds` are prepared when the
    /// suite is built, outside the timed region.
    run: BenchFn,
}

fn bench_detector(kind: DetectorKind) -> fn(&GeneratedDataset, u64) {
    // Monomorphised per detector through a small dispatch table so the
    // suite stays a list of plain fn pointers.
    match kind {
        DetectorKind::MvDetector => |ds, seed| {
            DetectorHarness::new(ds, 100, seed).run(ds, DetectorKind::MvDetector);
        },
        DetectorKind::Sd => |ds, seed| {
            DetectorHarness::new(ds, 100, seed).run(ds, DetectorKind::Sd);
        },
        DetectorKind::Katara => |ds, seed| {
            DetectorHarness::new(ds, 100, seed).run(ds, DetectorKind::Katara);
        },
        _ => |ds, seed| {
            DetectorHarness::new(ds, 100, seed).run(ds, DetectorKind::Raha);
        },
    }
}

fn bench_repair_mean_mode(ds: &GeneratedDataset, seed: u64) {
    run_repair(ds, &ds.mask, RepairKind::ImputeMeanMode, seed);
}

fn bench_repair_miss_forest(ds: &GeneratedDataset, seed: u64) {
    run_repair(ds, &ds.mask, RepairKind::MissMix, seed);
}

fn bench_ml_fit(ds: &GeneratedDataset, seed: u64) {
    let version = VersionTable::identity(ds.dirty.clone());
    eval_classifier(Scenario::S1, ds, &version, ClassifierKind::DecisionTree, 1, seed);
}

/// One decision-tree fit on the S1 training matrix of a Beers eval
/// repeat: the model-fit kernel the grid's evaluation layer runs
/// thousands of times per pass. The matrix is encoded here, once.
fn bench_tree_fit(ds: &GeneratedDataset, seed: u64) -> BenchFn {
    // audit:allow(panic, Beers is a classification dataset with a label column)
    let label = ds.clean.schema().label_index().expect("classification dataset");
    let features = ds.clean.schema().feature_indices();
    let version = VersionTable::identity(ds.dirty.clone());
    let split = scenario_split(Scenario::S1, ds, &version, 0.25, seed);
    let labels = LabelMap::fit([&ds.clean, &version.table], label);
    let parsed = ParsedTables::new(&[&version.table], &features);
    let encoder = Encoder::fit_rows(&parsed, 0, &split.train.rows);
    let (rows, y): (Vec<usize>, Vec<usize>) = split
        .train
        .rows
        .iter()
        .filter_map(|&r| labels.id_of(version.table.cell(r, label)).map(|id| (r, id)))
        .unzip();
    let x = encoder.transform_rows(&parsed, 0, &rows);
    let n_classes = labels.n_classes();
    Box::new(move |_, _| {
        DecisionTreeClassifier::new(TreeParams::default()).fit(&x, &y, n_classes);
    })
}

/// One 10-repeat `eval_classifier` call (decision tree, S1) on Beers —
/// one evaluation cell of the paper's protocol.
fn bench_eval_classifier(ds: &GeneratedDataset) -> BenchFn {
    let version = VersionTable::identity(ds.dirty.clone());
    Box::new(move |ds, seed| {
        eval_classifier(Scenario::S1, ds, &version, ClassifierKind::DecisionTree, 10, seed);
    })
}

fn bench_e2e_s1(ds: &GeneratedDataset, seed: u64) {
    // The full pipeline of the paper's S1 evaluation: detect with an
    // ensemble detector, repair the flagged cells, fit and score a model
    // on the repaired version.
    let harness = DetectorHarness::new(ds, 100, seed);
    let detection = harness.run(ds, DetectorKind::MaxEntropy);
    let repair = run_repair(ds, &detection.mask, RepairKind::ImputeMeanMode, seed);
    if let Some(version) = repair.version {
        eval_classifier(Scenario::S1, ds, &version, ClassifierKind::DecisionTree, 1, seed);
    }
}

/// The fixed suite: representative detectors, repairs, the tree-fit and
/// evaluation kernels, one ML fit and one end-to-end S1 scenario. Ids are
/// stable across PRs — the comparator matches on them.
fn suite(scale: f64, seed: u64) -> Vec<MacroBench> {
    let ds_of = |id: DatasetId, stream: u64| {
        id.generate(&Params::scaled(scale, rein_data::rng::derive_seed(seed, stream)))
    };
    let tree_ds = ds_of(DatasetId::Beers, 10);
    let tree_fit = bench_tree_fit(&tree_ds, seed);
    let eval_ds = ds_of(DatasetId::Beers, 11);
    let eval = bench_eval_classifier(&eval_ds);
    vec![
        MacroBench { id: "ml/tree_fit_beers", ds: tree_ds, seed, run: tree_fit },
        MacroBench { id: "eval/classifier_beers", ds: eval_ds, seed, run: eval },
        MacroBench {
            id: "detect/mv_detector/beers",
            ds: ds_of(DatasetId::Beers, 1),
            seed,
            run: Box::new(bench_detector(DetectorKind::MvDetector)),
        },
        MacroBench {
            id: "detect/sd/nasa",
            ds: ds_of(DatasetId::Nasa, 2),
            seed,
            run: Box::new(bench_detector(DetectorKind::Sd)),
        },
        MacroBench {
            id: "detect/katara/beers",
            ds: ds_of(DatasetId::Beers, 3),
            seed,
            run: Box::new(bench_detector(DetectorKind::Katara)),
        },
        MacroBench {
            id: "detect/raha/beers",
            ds: ds_of(DatasetId::Beers, 4),
            seed,
            run: Box::new(bench_detector(DetectorKind::Raha)),
        },
        MacroBench {
            id: "repair/mean_mode/beers",
            ds: ds_of(DatasetId::Beers, 5),
            seed,
            run: Box::new(bench_repair_mean_mode),
        },
        MacroBench {
            id: "repair/miss_forest/beers",
            ds: ds_of(DatasetId::Beers, 6),
            seed,
            run: Box::new(bench_repair_miss_forest),
        },
        MacroBench {
            id: "ml/decision_tree_s1/breast_cancer",
            ds: ds_of(DatasetId::BreastCancer, 7),
            seed,
            run: Box::new(bench_ml_fit),
        },
        MacroBench {
            id: "e2e/s1/beers",
            ds: ds_of(DatasetId::Beers, 8),
            seed,
            run: Box::new(bench_e2e_s1),
        },
    ]
}

fn measure(bench: &MacroBench, repeats: usize) -> BenchmarkResult {
    // Warm-up pass: populates lazy statics and caches, and its spans are
    // discarded so the profile covers exactly the timed repeats.
    (bench.run)(&bench.ds, bench.seed);
    drop(rein_telemetry::drain_spans());
    perf::reset_alloc_peak();

    let mut repeat_ms = Vec::with_capacity(repeats);
    let mut allocs_per_repeat = Vec::with_capacity(repeats);
    let mut bytes_per_repeat = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        // A root span per repeat keeps the profile paths identical no
        // matter what spans the caller has open.
        let root = rein_telemetry::span_under(format!("bench:{}", bench.id), None);
        let before = perf::alloc_snapshot();
        let sw = perf::Stopwatch::start();
        (bench.run)(&bench.ds, bench.seed);
        repeat_ms.push(sw.elapsed_ms());
        let delta = perf::alloc_snapshot().since(&before);
        drop(root);
        allocs_per_repeat.push(delta.allocs);
        bytes_per_repeat.push(delta.bytes_allocated);
    }
    let span_profile = perf::span_profile(&rein_telemetry::drain_spans());
    let peak_bytes = perf::alloc_snapshot().peak_bytes;

    let cells = (bench.ds.dirty.n_rows() * bench.ds.dirty.n_cols()) as u64;
    let mut result = BenchmarkResult {
        id: bench.id.to_string(),
        cells,
        repeat_ms,
        timing: timing_stats(&[]),
        cells_per_sec: 0.0,
        alloc: AllocReport { allocs_per_repeat, bytes_per_repeat, peak_bytes },
        span_profile,
    };
    result.refinalize();
    result
}

/// Measures the parallel-grid speedup curve: the controller's
/// detect+repair grid on a classification dataset, timed `repeats`
/// times under a scoped pool of each requested width. A `1` anchor is
/// always measured (speedups are relative to the serial grid); widths
/// are deduplicated and sorted so the curve reads monotonically.
pub fn run_thread_axis(
    scale: f64,
    repeats: usize,
    seed: u64,
    widths: &[u32],
) -> Vec<ThreadAxisPoint> {
    let ds = DatasetId::BreastCancer
        .generate(&Params::scaled(scale, rein_data::rng::derive_seed(seed, 9)));
    let ctrl = rein_core::Controller { label_budget: 50, seed, ..Default::default() };
    let mut widths: Vec<u32> = widths.iter().copied().filter(|&w| w > 0).collect();
    widths.push(1);
    widths.sort_unstable();
    widths.dedup();
    let mut points: Vec<ThreadAxisPoint> = Vec::new();
    for &w in &widths {
        // audit:allow(panic, the vendored pool builder is infallible for positive widths)
        let pool = rayon::ThreadPoolBuilder::new().num_threads(w as usize).build().expect("pool");
        // Warm-up pass outside the timed region, like `measure`.
        pool.install(|| ctrl.run_grid(&ds, &[], 0));
        let mut repeat_ms = Vec::with_capacity(repeats);
        for _ in 0..repeats {
            let sw = perf::Stopwatch::start();
            pool.install(|| ctrl.run_grid(&ds, &[], 0));
            repeat_ms.push(sw.elapsed_ms());
        }
        let timing = timing_stats(&repeat_ms);
        points.push(ThreadAxisPoint { threads: w, repeat_ms, timing, speedup: 0.0 });
    }
    let serial = points.iter().find(|p| p.threads == 1).map(|p| p.timing.median_ms).unwrap_or(0.0);
    for p in &mut points {
        p.speedup = if p.timing.median_ms > 0.0 { serial / p.timing.median_ms } else { 0.0 };
    }
    points
}

/// Runs the whole macro suite (plus, when `thread_widths` is non-empty,
/// the parallel-grid threads axis) and assembles the report.
/// Whether the host reports exactly one hardware thread. Stamped into
/// the report's env echo so `bench_compare` can warn when a comparison
/// mixes a single-core run (no real parallelism, thread-axis points all
/// equal) with a multi-core one.
pub fn single_core_host() -> bool {
    std::thread::available_parallelism().map(|n| n.get() == 1).unwrap_or(false)
}

/// Deterministic given `(scale, repeats, seed)` up to the volatile
/// measurement fields — see [`BenchReport::normalized`].
pub fn run_perf_suite(
    created_by: &str,
    scale: f64,
    repeats: usize,
    seed: u64,
    thread_widths: &[u32],
) -> BenchReport {
    let mut benchmarks: Vec<BenchmarkResult> =
        suite(scale, seed).iter().map(|b| measure(b, repeats)).collect();
    benchmarks.sort_by(|a, b| a.id.cmp(&b.id));
    let thread_axis = if thread_widths.is_empty() {
        Vec::new()
    } else {
        run_thread_axis(scale, repeats, seed, thread_widths)
    };
    BenchReport {
        schema: REPORT_SCHEMA,
        created_by: created_by.to_string(),
        env: BenchEnv {
            scale,
            repeats: repeats as u32,
            seed,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads: crate::worker_threads(),
            single_core: single_core_host(),
            alloc_tracking: perf::alloc_tracking_active(),
        },
        benchmarks,
        thread_axis,
    }
}

// ---------------------------------------------------------------------
// Regression comparator
// ---------------------------------------------------------------------

/// Gate configuration: both conditions must hold for a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Wilcoxon significance level.
    pub alpha: f64,
    /// Median slowdown ratio above which a significant shift counts as
    /// a regression (1.10 = 10% slower); the reciprocal bounds
    /// improvements.
    pub min_ratio: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig { alpha: 0.05, min_ratio: 1.10 }
    }
}

/// Outcome of one benchmark's baseline-vs-current comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Significantly slower by more than the threshold ratio.
    Regression,
    /// Significantly faster by more than the reciprocal threshold.
    Improvement,
    /// All paired differences were zero.
    Unchanged,
    /// No significant shift, or a significant one inside the ratio band.
    Similar,
    /// Benchmark exists only in the baseline report.
    OnlyInBaseline,
    /// Benchmark exists only in the current report.
    OnlyInCurrent,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchComparison {
    /// Benchmark id.
    pub id: String,
    /// Baseline median, milliseconds (0 when missing).
    pub baseline_median_ms: f64,
    /// Current median, milliseconds (0 when missing).
    pub current_median_ms: f64,
    /// `current / baseline` medians; >1 is slower.
    pub ratio: f64,
    /// Two-tailed Wilcoxon p-value over the paired repeat timings
    /// (`None` when the test is undefined: missing side, no pairs, or
    /// all-zero differences).
    pub p_value: Option<f64>,
    /// Paired repeats that entered the test.
    pub n_pairs: usize,
    /// The gate's verdict.
    pub verdict: Verdict,
}

/// The full comparison of two reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareReport {
    /// Significance level used.
    pub alpha: f64,
    /// Slowdown ratio used.
    pub threshold_ratio: f64,
    /// Per-benchmark rows, sorted by id.
    pub comparisons: Vec<BenchComparison>,
    /// Number of [`Verdict::Regression`] rows.
    pub regressions: usize,
}

fn compare_one(
    id: &str,
    baseline: Option<&BenchmarkResult>,
    current: Option<&BenchmarkResult>,
    cfg: &CompareConfig,
) -> BenchComparison {
    let (base, cur) = match (baseline, current) {
        (Some(b), None) => {
            return BenchComparison {
                id: id.to_string(),
                baseline_median_ms: b.timing.median_ms,
                current_median_ms: 0.0,
                ratio: 0.0,
                p_value: None,
                n_pairs: 0,
                verdict: Verdict::OnlyInBaseline,
            }
        }
        (None, Some(c)) => {
            return BenchComparison {
                id: id.to_string(),
                baseline_median_ms: 0.0,
                current_median_ms: c.timing.median_ms,
                ratio: 0.0,
                p_value: None,
                n_pairs: 0,
                verdict: Verdict::OnlyInCurrent,
            }
        }
        (Some(b), Some(c)) => (b, c),
        // audit:allow(panic, every compared id comes from the union of the two reports)
        (None, None) => unreachable!("comparison id from neither report"),
    };
    let n = base.repeat_ms.len().min(cur.repeat_ms.len());
    let ratio = if base.timing.median_ms > 0.0 {
        cur.timing.median_ms / base.timing.median_ms
    } else {
        f64::INFINITY
    };
    let (p_value, verdict) = match wilcoxon_signed_rank(&base.repeat_ms[..n], &cur.repeat_ms[..n]) {
        Err(WilcoxonError::AllZeroDifferences) => (None, Verdict::Unchanged),
        Err(WilcoxonError::LengthMismatch) => (None, Verdict::Similar),
        Ok(r) => {
            let verdict = if r.p_value < cfg.alpha && ratio > cfg.min_ratio {
                Verdict::Regression
            } else if r.p_value < cfg.alpha && ratio < 1.0 / cfg.min_ratio {
                Verdict::Improvement
            } else {
                Verdict::Similar
            };
            (Some(r.p_value), verdict)
        }
    };
    BenchComparison {
        id: id.to_string(),
        baseline_median_ms: base.timing.median_ms,
        current_median_ms: cur.timing.median_ms,
        ratio,
        p_value,
        n_pairs: n,
        verdict,
    }
}

/// Whether two reports' thread-axis rows are comparable at all: the
/// grids must have run under the same worker-pool ceiling on the same
/// core class. Across differing core counts a `threads=4` point means
/// different hardware parallelism on each side, so a ratio between them
/// measures the machines, not the code.
pub fn thread_axes_comparable(a: &BenchEnv, b: &BenchEnv) -> bool {
    a.threads == b.threads && a.single_core == b.single_core
}

/// A thread-axis point rendered as a pseudo-benchmark so the Wilcoxon
/// gate can pair it (`parallel-grid/threads/<w>`).
fn thread_axis_benchmark(p: &ThreadAxisPoint) -> BenchmarkResult {
    BenchmarkResult {
        id: format!("parallel-grid/threads/{}", p.threads),
        cells: 0,
        repeat_ms: p.repeat_ms.clone(),
        timing: p.timing.clone(),
        cells_per_sec: 0.0,
        alloc: AllocReport {
            allocs_per_repeat: Vec::new(),
            bytes_per_repeat: Vec::new(),
            peak_bytes: 0,
        },
        span_profile: Vec::new(),
    }
}

/// Pairs two reports by benchmark id and applies the Wilcoxon gate.
/// Thread-axis points join the comparison as `parallel-grid/threads/<w>`
/// rows — but only when [`thread_axes_comparable`] holds; across
/// differing core counts they are omitted entirely rather than reported
/// as hardware-flavoured regressions.
pub fn compare_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    cfg: &CompareConfig,
) -> CompareReport {
    let (base_axis, cur_axis): (Vec<BenchmarkResult>, Vec<BenchmarkResult>) =
        if thread_axes_comparable(&baseline.env, &current.env) {
            (
                baseline.thread_axis.iter().map(thread_axis_benchmark).collect(),
                current.thread_axis.iter().map(thread_axis_benchmark).collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
    let base_all: Vec<&BenchmarkResult> = baseline.benchmarks.iter().chain(&base_axis).collect();
    let cur_all: Vec<&BenchmarkResult> = current.benchmarks.iter().chain(&cur_axis).collect();
    let mut ids: Vec<&str> = base_all.iter().chain(cur_all.iter()).map(|b| b.id.as_str()).collect();
    ids.sort_unstable();
    ids.dedup();
    let find =
        |rs: &[&BenchmarkResult], id: &str| -> Option<usize> { rs.iter().position(|b| b.id == id) };
    let comparisons: Vec<BenchComparison> = ids
        .iter()
        .map(|id| {
            compare_one(
                id,
                find(&base_all, id).map(|i| base_all[i]),
                find(&cur_all, id).map(|i| cur_all[i]),
                cfg,
            )
        })
        .collect();
    let regressions = comparisons.iter().filter(|c| c.verdict == Verdict::Regression).count();
    CompareReport { alpha: cfg.alpha, threshold_ratio: cfg.min_ratio, comparisons, regressions }
}

/// Renders the comparison as the fixed-width table the `bench-compare`
/// binary prints.
pub fn render_comparison(report: &CompareReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:>12} {:>12} {:>8} {:>10} {:>14}\n",
        "benchmark", "base ms", "curr ms", "ratio", "p", "verdict"
    ));
    for c in &report.comparisons {
        let p = c.p_value.map_or("-".to_string(), |p| format!("{p:.4}"));
        out.push_str(&format!(
            "{:<36} {:>12.3} {:>12.3} {:>8.3} {:>10} {:>14}\n",
            c.id,
            c.baseline_median_ms,
            c.current_median_ms,
            c.ratio,
            p,
            format!("{:?}", c.verdict)
        ));
    }
    out.push_str(&format!(
        "\n{} regression(s) at alpha={}, slowdown threshold {:.0}%\n",
        report.regressions,
        report.alpha,
        (report.threshold_ratio - 1.0) * 100.0
    ));
    out
}

/// A small synthetic report for the comparator self-test: three
/// benchmarks, `repeats` untied repeat timings each (distinct jitters so
/// the exact Wilcoxon path applies).
fn synthetic_report(repeats: usize) -> BenchReport {
    const JITTER: [f64; 8] = [0.0, 1.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0];
    let bench = |id: &str, base_ms: f64| {
        let repeat_ms: Vec<f64> =
            (0..repeats).map(|i| base_ms * (1.0 + 0.002 * JITTER[i % JITTER.len()])).collect();
        let mut b = BenchmarkResult {
            id: id.to_string(),
            cells: 10_000,
            repeat_ms,
            timing: timing_stats(&[]),
            cells_per_sec: 0.0,
            alloc: AllocReport {
                allocs_per_repeat: vec![0; repeats],
                bytes_per_repeat: vec![0; repeats],
                peak_bytes: 0,
            },
            span_profile: Vec::new(),
        };
        b.refinalize();
        b
    };
    BenchReport {
        schema: REPORT_SCHEMA,
        created_by: "self-test".to_string(),
        env: BenchEnv {
            scale: 0.0,
            repeats: repeats as u32,
            seed: 0,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads: crate::worker_threads(),
            single_core: false,
            alloc_tracking: false,
        },
        benchmarks: vec![
            bench("selftest/alpha", 40.0),
            bench("selftest/bravo", 100.0),
            bench("selftest/charlie", 250.0),
        ],
        thread_axis: Vec::new(),
    }
}

/// Proves the regression gate works end to end:
///
/// 1. a report compared against itself yields zero regressions
///    (all-zero differences → `Unchanged`), and
/// 2. injecting an artificial 2× slowdown into exactly one benchmark is
///    flagged as a significant regression (Wilcoxon p < 0.05) while the
///    untouched benchmarks stay clean.
///
/// Returns a human-readable summary on success.
pub fn comparator_self_test() -> Result<String, String> {
    let cfg = CompareConfig::default();
    let base = synthetic_report(8);

    let identical = compare_reports(&base, &base, &cfg);
    if identical.regressions != 0 {
        return Err("self-compare reported regressions on identical reports".to_string());
    }
    if !identical.comparisons.iter().all(|c| c.verdict == Verdict::Unchanged) {
        return Err(format!(
            "self-compare verdicts must all be Unchanged, got {:?}",
            identical.comparisons.iter().map(|c| c.verdict).collect::<Vec<_>>()
        ));
    }

    let target = "selftest/bravo";
    let mut slowed = base.clone();
    for b in &mut slowed.benchmarks {
        if b.id == target {
            for v in &mut b.repeat_ms {
                *v *= 2.0;
            }
            b.refinalize();
        }
    }
    let cmp = compare_reports(&base, &slowed, &cfg);
    let flagged: Vec<&BenchComparison> =
        cmp.comparisons.iter().filter(|c| c.verdict == Verdict::Regression).collect();
    if flagged.len() != 1 || flagged[0].id != target {
        return Err(format!(
            "expected exactly one regression on {target}, got {:?}",
            flagged.iter().map(|c| c.id.as_str()).collect::<Vec<_>>()
        ));
    }
    let p = flagged[0].p_value.unwrap_or(1.0);
    if p >= 0.05 {
        return Err(format!("injected 2x slowdown not significant: p = {p}"));
    }
    if (flagged[0].ratio - 2.0).abs() > 0.01 {
        return Err(format!("injected 2x slowdown measured ratio {}", flagged[0].ratio));
    }
    Ok(format!(
        "self-test passed: identical reports -> 0 regressions; \
         injected 2x slowdown on {target} flagged with p = {p:.4}, ratio = {:.2}",
        flagged[0].ratio
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_stats_basic() {
        let t = timing_stats(&[3.0, 1.0, 2.0]);
        assert_eq!(t.median_ms, 2.0);
        assert_eq!(t.min_ms, 1.0);
        assert_eq!(t.max_ms, 3.0);
        assert!((t.mean_ms - 2.0).abs() < 1e-12);
    }

    #[test]
    fn comparator_gate_requires_both_conditions() {
        let cfg = CompareConfig::default();
        let base = synthetic_report(8);
        // A 5% shift is significant (consistent sign) but inside the
        // ratio band: Similar, not Regression.
        let mut slightly = base.clone();
        for b in &mut slightly.benchmarks {
            for v in &mut b.repeat_ms {
                *v *= 1.05;
            }
            b.refinalize();
        }
        let cmp = compare_reports(&base, &slightly, &cfg);
        assert_eq!(cmp.regressions, 0);
        assert!(cmp.comparisons.iter().all(|c| c.verdict == Verdict::Similar));
        // A 2x speedup is an Improvement, never a regression.
        let mut faster = base.clone();
        for b in &mut faster.benchmarks {
            for v in &mut b.repeat_ms {
                *v *= 0.5;
            }
            b.refinalize();
        }
        let cmp = compare_reports(&base, &faster, &cfg);
        assert_eq!(cmp.regressions, 0);
        assert!(cmp.comparisons.iter().all(|c| c.verdict == Verdict::Improvement));
    }

    #[test]
    fn comparator_handles_disjoint_benchmark_sets() {
        let cfg = CompareConfig::default();
        let base = synthetic_report(8);
        let mut renamed = base.clone();
        renamed.benchmarks[0].id = "selftest/delta".to_string();
        let cmp = compare_reports(&base, &renamed, &cfg);
        let verdict_of = |id: &str| cmp.comparisons.iter().find(|c| c.id == id).unwrap().verdict;
        assert_eq!(verdict_of("selftest/alpha"), Verdict::OnlyInBaseline);
        assert_eq!(verdict_of("selftest/delta"), Verdict::OnlyInCurrent);
        assert_eq!(cmp.regressions, 0);
    }

    #[test]
    fn thread_axis_rows_compare_only_on_matching_core_counts() {
        let cfg = CompareConfig::default();
        let point = |ms: f64| {
            const JITTER: [f64; 8] = [0.0, 1.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0];
            let repeat_ms: Vec<f64> = JITTER.iter().map(|j| ms * (1.0 + 0.002 * j)).collect();
            let timing = timing_stats(&repeat_ms);
            ThreadAxisPoint { threads: 4, repeat_ms, timing, speedup: 1.0 }
        };
        let mut base = synthetic_report(8);
        base.thread_axis = vec![point(10.0)];
        let mut cur = base.clone();
        cur.thread_axis = vec![point(25.0)];

        // Same env: the axis row joins the comparison and the 2.5x
        // slowdown is flagged.
        let cmp = compare_reports(&base, &cur, &cfg);
        let axis = cmp
            .comparisons
            .iter()
            .find(|c| c.id == "parallel-grid/threads/4")
            .expect("axis row compared");
        assert_eq!(axis.verdict, Verdict::Regression);

        // Differing core counts: the axis rows vanish from the
        // comparison instead of reporting a hardware-flavoured verdict.
        let mut other_host = cur.clone();
        other_host.env.threads = 16;
        let cmp = compare_reports(&base, &other_host, &cfg);
        assert!(
            cmp.comparisons.iter().all(|c| !c.id.starts_with("parallel-grid/threads/")),
            "thread-axis rows must be omitted across core counts: {:?}",
            cmp.comparisons.iter().map(|c| c.id.as_str()).collect::<Vec<_>>()
        );
        // A single-core host on one side is the same incomparability.
        let mut single = cur.clone();
        single.env.single_core = true;
        assert!(!thread_axes_comparable(&base.env, &single.env));
    }

    #[test]
    fn report_roundtrips_and_normalizes() {
        let base = synthetic_report(4);
        let back = BenchReport::from_json(&base.to_json()).unwrap();
        assert_eq!(back, base);
        let norm = base.normalized();
        assert_eq!(norm.benchmarks.len(), base.benchmarks.len());
        for b in &norm.benchmarks {
            assert!(b.repeat_ms.iter().all(|&v| v == 0.0));
            assert_eq!(b.timing.median_ms, 0.0);
        }
        // Normalization is idempotent and id-preserving.
        assert_eq!(norm.normalized(), norm);
    }

    #[test]
    fn self_test_passes() {
        let summary = comparator_self_test().expect("comparator self-test");
        assert!(summary.contains("2x slowdown"));
    }

    #[test]
    fn next_bench_path_skips_existing() {
        let dir = std::env::temp_dir().join("rein_bench_path_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p0 = next_bench_path(&dir);
        assert!(p0.ends_with("BENCH_0.json"));
        std::fs::write(&p0, "{}").unwrap();
        assert!(next_bench_path(&dir).ends_with("BENCH_1.json"));
        std::fs::remove_file(&p0).unwrap();
    }
}
