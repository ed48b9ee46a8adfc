#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# Lints run before the test suites: the determinism bans in clippy.toml
# (wall clock, hash containers, env reads, raw writes) fail in seconds.
echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The root package is not a virtual workspace, so a bare `cargo test`
# only tests the root `rein` crate; `--workspace` covers every crate.
echo "==> cargo test --workspace -q (REIN_THREADS=1)"
REIN_THREADS=1 cargo test --workspace -q

echo "==> cargo test --workspace -q (REIN_THREADS=4)"
REIN_THREADS=4 cargo test --workspace -q

echo "==> cargo run -p rein-audit (determinism & integrity audit, semantic rules + SARIF, stale suppressions blocking)"
cargo run -q -p rein-audit -- --quiet --deny-stale --sarif artifacts/audit/report.sarif

echo "==> ledger report (ingest committed artifacts; must be a deterministic no-op twice)"
cargo run -q --release -p rein-ledger --bin rein_report -- --out artifacts/ledger \
  --diff artifacts/telemetry/chaos_smoke-29.json artifacts/telemetry/fig5_repair_numerical-61.json
first_sum=$(sha256sum artifacts/ledger/index.json artifacts/ledger/report.md artifacts/ledger/report.html)
cargo run -q --release -p rein-ledger --bin rein_report -- --out artifacts/ledger \
  --diff artifacts/telemetry/chaos_smoke-29.json artifacts/telemetry/fig5_repair_numerical-61.json
second_sum=$(sha256sum artifacts/ledger/index.json artifacts/ledger/report.md artifacts/ledger/report.html)
if [ "$first_sum" != "$second_sum" ]; then
  echo "ledger outputs changed between two identical runs:"
  echo "$first_sum"
  echo "$second_sum"
  exit 1
fi
echo "==> perf smoke (comparator self-test + small-scale suite vs committed baseline, report-only)"
cargo run -q --release -p rein-bench --bin bench_compare -- --self-test
REIN_SCALE=0.01 cargo run -q --release -p rein-bench --bin perf_baseline -- \
  --out artifacts/perf/BENCH_ci.json
# Report-only: shared CI runners are too noisy to gate merges on wall
# clock, and the committed baseline was recorded on different hardware
# at a different scale. The table in the log is the signal.
cargo run -q --release -p rein-bench --bin bench_compare -- \
  BENCH_0.json artifacts/perf/BENCH_ci.json --report-only

echo "==> chaos smoke at REIN_THREADS=1 and 4 (exit 3 = degraded-as-injected)"
# chaos_smoke exits 3 by design: the injected cells *did* degrade and the
# manifest records them. 4 = a non-injected cell diverged, 5 = wrong
# failure set, anything else = crash or bad environment. Running it at
# two pool widths and hashing the fault-free cell dumps proves the grid
# is worker-count invariant in the serial/parallel dimension too.
for threads in 1 4; do
  set +e
  REIN_SCALE=0.05 REIN_THREADS=$threads cargo run -q --release -p rein-bench --bin chaos_smoke -- \
    --dump-cells "artifacts/chaos/cells-t$threads.txt"
  chaos_exit=$?
  set -e
  if [ "$chaos_exit" -ne 3 ]; then
    echo "chaos_smoke (REIN_THREADS=$threads) exited $chaos_exit (expected 3: degraded run with recorded failures)"
    exit 1
  fi
done
serial_sum=$(sha256sum artifacts/chaos/cells-t1.txt | cut -d' ' -f1)
parallel_sum=$(sha256sum artifacts/chaos/cells-t4.txt | cut -d' ' -f1)
if [ "$serial_sum" != "$parallel_sum" ]; then
  echo "grid cell dumps differ between REIN_THREADS=1 ($serial_sum) and REIN_THREADS=4 ($parallel_sum)"
  exit 1
fi
echo "grid dumps byte-identical across REIN_THREADS=1/4 (sha256 $serial_sum)"

echo "==> crash smoke at REIN_THREADS=1 and 4 (kill-resume byte-identity, quarantine recovery, warm-store hit rate)"
# crash_smoke is self-asserting: it kills a store-backed grid at every
# REIN_CRASH commit point, resumes from the journal, flips a journal
# byte to force quarantine recovery, and requires the warm store to
# serve >=90% of cells — every dump byte-compared against a store-less
# reference. Exit 0 is the only pass; set -e gates the rest.
for threads in 1 4; do
  REIN_SCALE=0.05 REIN_THREADS=$threads cargo run -q --release -p rein-bench --bin crash_smoke
done

echo "==> parallel smoke (S1-S5 grid byte-identity at 1/4/N threads, in-process)"
REIN_SCALE=0.05 cargo run -q --release -p rein-bench --bin parallel_smoke

echo "==> trace exports from the smoke manifests (double run must be byte-identical; ledger must register)"
# The smoke runs above rewrote their manifests; render the causal trace
# exports (Chrome trace JSON, flamegraph SVG, per-cell cost table)
# twice and hash-compare — the exports are pure functions of the
# manifest bytes, so any drift is nondeterminism. rein_trace exits 4 on
# orphan spans (an incomplete causal tree) and re-ingests the ledger.
cargo run -q --release -p rein-ledger --bin rein_trace -- \
  --manifest artifacts/telemetry/chaos_smoke-29.json \
  --manifest artifacts/telemetry/parallel_smoke-31.json
first_trace=$(sha256sum artifacts/trace/chaos_smoke-29.* artifacts/trace/parallel_smoke-31.*)
cargo run -q --release -p rein-ledger --bin rein_trace -- \
  --manifest artifacts/telemetry/chaos_smoke-29.json \
  --manifest artifacts/telemetry/parallel_smoke-31.json
second_trace=$(sha256sum artifacts/trace/chaos_smoke-29.* artifacts/trace/parallel_smoke-31.*)
if [ "$first_trace" != "$second_trace" ]; then
  echo "trace exports changed between two identical runs:"
  echo "$first_trace"
  echo "$second_trace"
  exit 1
fi
echo "trace exports byte-identical across a double run"
if ! grep -q '"kind": "trace_export"' artifacts/ledger/index.json; then
  echo "ledger index carries no trace_export entries after rein_trace"
  exit 1
fi

echo "CI checks passed."
