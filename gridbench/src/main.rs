//! Grid-pass benchmark: times full S1–S5 `Controller::run_grid` passes
//! over Beers, checks every pass's cell map against a reference, and in
//! its traced mode breaks one grid down layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path gridbench/Cargo.toml -- \
//!     --workload paper-beers-stored --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Each run is one workload in its own process (`BENCHMARK.json` says
//! why each was chosen). Set-up generates the dataset and runs the
//! reference: a store-less pass on a 1-worker pool. Timed passes then
//! alternate between an `nproc`-worker pool and a 1-worker pool for
//! `--seconds`, and every pass must return the reference's cell map
//! byte for byte with no degraded cell. With `--trace 1` each round
//! also runs the traced rebuild (`traced.rs`), and the per-layer
//! metrics replace the end-to-end ones.
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines above it print each metric as
//! `name value unit`, the pass counts and the `cells_digest`. The exit
//! code is 1 when any output check fails and 2 for bad arguments.

mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use rein_store::Store;

use stats::{cells_digest, fastest, median, peak_rss_mb, reset_peak_rss, tail_percentile};
use traced::Traced;
use workload::{
    check_cells, listing, remove_store, store_bytes, Grid, Pools, Tally, WorkDir, Workload, REPEATS,
};

/// A grid's serialized cells, keyed by coordinate.
pub type Cells = BTreeMap<String, String>;

/// The end-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("grid_s", "s"),
    ("cells_per_s", "1/s"),
    ("grid_1w_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("journal_mb", "MB"),
];

/// The per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("datasets.generate_s", "s"),
    ("detect.calls", "count"),
    ("detect.busy_s", "s"),
    ("detect.share", "share"),
    ("repair.calls", "count"),
    ("repair.busy_s", "s"),
    ("repair.share", "share"),
    ("repair.top_strategy_share", "share"),
    ("repair.max_cell_s", "s"),
    ("evaluate.model_fits", "count"),
    ("evaluate.busy_s", "s"),
    ("evaluate.share", "share"),
    ("core.payload_bytes", "bytes"),
    ("core.payload_s", "s"),
    ("core.identity_s", "s"),
    ("store.open_s", "s"),
    ("store.records_replayed", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.hit_ratio", "share"),
    ("store.commits", "count"),
    ("store.commit_s", "s"),
    ("store.bytes_per_cell", "bytes"),
    ("store.rehydrated", "count"),
    ("store.divergence", "count"),
    ("guard.retries", "count"),
    ("guard.failures", "count"),
    ("telemetry.spans_per_pass", "count"),
    ("pool.work_s", "s"),
    ("pool.critical_path_s", "s"),
    ("pool.utilization", "share"),
    ("pool.speedup", "ratio"),
    ("bench.trace_overhead", "share"),
];

const USAGE: &str =
    "usage: rein-gridbench --workload <paper-beers-stored|rerun-warm> --seed <u64> \
     --seconds <n> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run prints.
struct Report {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Orders `values` by `table`; every metric of the table must be
    /// present and finite.
    fn new(
        tally: Tally,
        table: &[(&'static str, &'static str)],
        values: &BTreeMap<&'static str, f64>,
    ) -> Result<Report, String> {
        let metrics = table
            .iter()
            .map(|&(name, unit)| match values.get(name) {
                Some(v) if v.is_finite() => Ok((name, *v, unit)),
                Some(v) => Err(format!("metric {name} is not finite: {v}")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect::<Result<_, _>>()?;
        Ok(Report { tally, metrics })
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Per-layer values of one traced round.
fn layer_values(
    t: &Traced,
    counters: &BTreeMap<String, u64>,
    store_bytes: u64,
) -> BTreeMap<&'static str, f64> {
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let l = &t.layers;
    let top_repair = t.repair_by_strategy.values().copied().fold(0.0, f64::max);
    BTreeMap::from([
        ("datasets.generate_s", l.generate),
        ("detect.calls", count("detector_invocations")),
        ("detect.busy_s", l.detect),
        ("detect.share", share(l.detect, t.wall_s)),
        ("repair.calls", count("repair_applications")),
        ("repair.busy_s", l.repair),
        ("repair.share", share(l.repair, t.wall_s)),
        ("repair.top_strategy_share", share(top_repair, l.repair)),
        ("repair.max_cell_s", t.repair_max_cell_s),
        ("evaluate.model_fits", count("model_fits")),
        ("evaluate.busy_s", l.evaluate),
        ("evaluate.share", share(l.evaluate, t.wall_s)),
        ("core.payload_bytes", t.payload_bytes as f64),
        ("core.payload_s", l.payload),
        ("core.identity_s", l.identity),
        ("store.open_s", l.store_open),
        ("store.records_replayed", count("store_replayed")),
        ("store.hits", t.hits as f64),
        ("store.misses", t.misses as f64),
        ("store.hit_ratio", share(t.hits as f64, (t.hits + t.misses) as f64)),
        ("store.commits", count("store_commits")),
        ("store.commit_s", l.store_commit),
        ("store.bytes_per_cell", share(store_bytes as f64, t.stored_cells as f64)),
        ("store.rehydrated", t.rehydrated as f64),
        ("store.divergence", t.divergence as f64),
        ("guard.retries", count("guard_retries")),
        ("guard.failures", count("strategy_failures")),
        ("pool.work_s", t.work_s),
        ("pool.critical_path_s", t.critical_path_s),
    ])
}

/// Median of each key across rounds.
fn medians(rounds: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let Some(first) = rounds.first() else { return BTreeMap::new() };
    first.keys().map(|&k| (k, median(&rounds.iter().map(|r| r[k]).collect::<Vec<_>>()))).collect()
}

fn describe(label: &str, xs: &[f64], reported: f64) -> String {
    let tail = match tail_percentile(xs) {
        Some((p, v)) => format!(", p{p} {v} s"),
        None => String::from(", no percentile with ten passes above it"),
    };
    let hi = xs.iter().copied().fold(0.0, f64::max);
    format!(
        "{label}: {reported} s reported; {} passes, median {} s{tail}, min {} s, max {hi} s",
        xs.len(),
        median(xs),
        fastest(xs)
    )
}

fn run(args: &Args, started: Instant) -> Result<Report, String> {
    let w = args.workload;
    let work = WorkDir::create(w)?;
    let pools = Pools::new()?;
    let mut tally = Tally::default();

    // Set-up: generation, the reference pass, and the journal the
    // workload needs.
    let grid = Grid::new(args.seed, REPEATS);
    let reference = grid.pass(&pools.one, None)?;
    tally.record(
        "reference pass",
        check_cells(&reference.cells, &reference.cells, reference.degraded),
    );
    let reference = reference.cells;
    let warm_root = work.join("warm");
    if w == Workload::RerunWarm {
        let p = grid.pass(&pools.wide, Some(&warm_root))?;
        tally.record("journal population", check_cells(&reference, &p.cells, p.degraded));
        // The first reopen rotates the cold journal tail into a sealed
        // segment; it belongs to set-up, not to the passes.
        let start = Instant::now();
        let store = Store::open(&warm_root).map_err(|e| format!("cannot reopen store: {e}"))?;
        println!(
            "set-up reopen: {} s, {} cells",
            start.elapsed().as_secs_f64(),
            store.cell_count()
        );
    }
    let warm_files = if w == Workload::RerunWarm { listing(&warm_root)? } else { Vec::new() };
    let setup_s = started.elapsed().as_secs_f64();

    // Pass seconds on the `nproc` pool and on the 1-worker pool.
    let mut wide: Vec<f64> = Vec::new();
    let mut one_worker: Vec<f64> = Vec::new();
    let mut journals: Vec<f64> = Vec::new();
    let mut spans: Vec<f64> = Vec::new();
    let mut rss: Vec<f64> = Vec::new();
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut unaccounted: Vec<f64> = Vec::new();
    let mut repair_shares: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let timed = Instant::now();
    let mut round = 0usize;
    while round == 0 || timed.elapsed().as_secs_f64() < args.seconds {
        let fresh = |what: &str| work.join(&format!("{what}-{round}"));
        let store_root = |what: &str| -> PathBuf {
            match w {
                Workload::PaperBeersStored => fresh(what),
                Workload::RerunWarm => warm_root.clone(),
            }
        };
        if args.trace {
            let root = store_root("traced");
            let t = grid.traced(&pools.one, Some(&root))?;
            let counters = rein_telemetry::counters_snapshot();
            let degraded = rein_telemetry::failures_snapshot().len();
            let mut outcome = check_cells(&reference, &t.cells, degraded);
            if w == Workload::RerunWarm && outcome.is_ok() && (t.misses > 0 || t.divergence > 0) {
                outcome = Err(format!(
                    "{} miss(es), {} divergent rehydration(s)",
                    t.misses, t.divergence
                ));
            }
            tally.record("traced pass", outcome);
            let bytes = store_bytes(&root)?;
            if w == Workload::PaperBeersStored {
                remove_store(&root)?;
            }
            // Generation is part of the traced pass but not of a grid pass.
            traced_walls.push(t.wall_s - t.layers.generate);
            unaccounted.push(t.wall_s - t.layers.total());
            repair_shares.push(
                t.repair_by_strategy
                    .iter()
                    .map(|(k, v)| (*k, v / t.layers.repair.max(f64::MIN_POSITIVE)))
                    .collect(),
            );
            rounds.push(layer_values(&t, &counters, bytes));
        }
        for (one, label) in [(false, "nproc pass"), (true, "1-worker pass")] {
            let root = store_root(if one { "one" } else { "wide" });
            reset_peak_rss()?;
            let p = grid.pass(if one { &pools.one } else { &pools.wide }, Some(&root))?;
            rss.push(peak_rss_mb()?);
            let mut outcome = check_cells(&reference, &p.cells, p.degraded);
            if w == Workload::RerunWarm && outcome.is_ok() && p.commits > 0 {
                outcome = Err(format!("a warm pass committed {} record(s)", p.commits));
            }
            tally.record(label, outcome);
            if w == Workload::PaperBeersStored {
                journals.push(store_bytes(&root)? as f64);
                remove_store(&root)?;
            }
            if one {
                one_worker.push(p.secs);
            } else {
                wide.push(p.secs);
                spans.push(p.spans as f64);
            }
        }
        round += 1;
    }
    if w == Workload::RerunWarm {
        let unchanged = listing(&warm_root)? == warm_files;
        tally.record(
            "warm journal read-only",
            if unchanged { Ok(()) } else { Err("the timed passes changed the journal".into()) },
        );
    }

    let grid_s = w.pass_time(&wide);
    let grid_1w_s = w.pass_time(&one_worker);
    println!("{}", describe("grid_s", &wide, grid_s));
    println!("{}", describe("grid_1w_s", &one_worker, grid_1w_s));
    println!("pass peak_rss_mb: median {}, whole run {}", median(&rss), peak_rss_mb()?);
    println!(
        "failed_share: {} ({} of {} checked passes)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    println!("cells: {}, cells_digest: {}", reference.len(), cells_digest(&reference));

    if !args.trace {
        let journal_bytes = match w {
            Workload::PaperBeersStored => median(&journals),
            Workload::RerunWarm => store_bytes(&warm_root)? as f64,
        };
        let values = BTreeMap::from([
            ("grid_s", grid_s),
            ("cells_per_s", reference.len() as f64 / grid_s),
            ("grid_1w_s", grid_1w_s),
            ("setup_s", setup_s),
            ("peak_rss_mb", median(&rss)),
            ("journal_mb", journal_bytes / 1e6),
        ]);
        return Report::new(tally, &END_TO_END, &values);
    }

    let mut values = medians(&rounds);
    let traced_s = w.pass_time(&traced_walls);
    let work_s = values["pool.work_s"];
    values.insert("telemetry.spans_per_pass", median(&spans));
    values.insert("pool.utilization", work_s / (pools.width as f64 * grid_s));
    values.insert("pool.speedup", grid_1w_s / grid_s);
    values.insert("bench.trace_overhead", traced_s / grid_1w_s - 1.0);
    // The layers must account for the traced pass: the time no layer
    // call covers (the rebuild's loops and its timer reads) may exceed
    // what tracing added over the untraced serial pass by at most 5% of
    // the traced pass. All three are medians over the run, whatever
    // figure the workload reports.
    let gap = median(&unaccounted);
    let (traced_med, one_med) = (median(&traced_walls), median(&one_worker));
    let allowed = (traced_med - one_med).max(0.0) + 0.05 * traced_med;
    tally.record(
        "traced accounting",
        if gap <= allowed {
            Ok(())
        } else {
            Err(format!("{gap} s of the traced pass is in no layer (allowed {allowed} s)"))
        },
    );
    println!(
        "pool: {} workers, grid_s {grid_s} s, grid_1w_s {grid_1w_s} s, work_s {work_s} s, \
         critical_path_s {} s, work_s/workers {} s",
        pools.width,
        values["pool.critical_path_s"],
        work_s / pools.width as f64
    );
    println!(
        "traced pass: {} rounds, {traced_s} s reported, median {traced_med} s, median {gap} s in \
         no layer ({} of the median pass)",
        traced_walls.len(),
        gap / traced_med
    );
    let mut by_strategy: Vec<(&str, f64)> = medians(&repair_shares).into_iter().collect();
    by_strategy.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = by_strategy.iter().take(6).map(|(k, v)| format!("{k} {v:.3}")).collect();
    println!("repair share by strategy: {}", top.join(", "));
    Report::new(tally, &PER_LAYER, &values)
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match run(&args, started) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        let map = v.as_map().expect("an object");
        &map.iter().find(|(k, _)| k == name).unwrap_or_else(|| panic!("no {name:?} key")).1
    }

    fn entries(key: &str) -> Vec<(String, String)> {
        let doc = benchmark_json();
        field(&doc, key)
            .as_seq()
            .expect("a list")
            .iter()
            .map(|m| {
                let name = field(m, "name").as_str().expect("a name").to_string();
                (name, field(m, "unit").as_str().expect("a unit").to_string())
            })
            .collect()
    }

    /// The `bound` `BENCHMARK.json` fixes for an end-to-end metric.
    pub fn end_to_end_bound(name: &str) -> f64 {
        let doc = benchmark_json();
        let metric = field(&doc, "end_to_end")
            .as_seq()
            .expect("a list")
            .iter()
            .find(|m| field(m, "name").as_str() == Some(name))
            .unwrap_or_else(|| panic!("no end-to-end metric {name}"));
        match field(metric, "bound") {
            Value::F64(b) => *b,
            other => panic!("bound of {name} is not a number: {other:?}"),
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(entries("end_to_end"), owned(&END_TO_END));
        assert_eq!(entries("per_layer"), owned(&PER_LAYER));
        let doc = benchmark_json();
        let workloads: Vec<&str> = field(&doc, "workloads")
            .as_seq()
            .expect("a list")
            .iter()
            .map(|w| field(w, "name").as_str().expect("a name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload rerun-warm --seed 9 --seconds 20 --trace 1"))
            .expect("valid arguments");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::RerunWarm, 9, 20.0, true));
        for bad in [
            "--workload nope --seed 9 --seconds 20 --trace 1",
            "--workload rerun-warm --seed -1 --seconds 20 --trace 1",
            "--workload rerun-warm --seed 9 --seconds 0 --trace 1",
            "--workload rerun-warm --seed 9 --seconds 20 --trace 2",
            "--workload rerun-warm --seed 9 --seconds 20",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
