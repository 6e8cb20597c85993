#!/usr/bin/env bash
# CI gate for the Thermostat reproduction.
#
# The workspace is hermetic: it has ZERO crates.io dependencies (everything
# external the seed used — rand, serde/serde_json, proptest, criterion,
# parking_lot — was replaced by the in-tree `thermo-util` crate). Every step
# below therefore runs with `--offline`; if a change reintroduces a network
# dependency, the build step fails here first.
set -euo pipefail
cd "$(dirname "$0")/.."

# Worker count for the parallel golden gate (thermo-exec pool). Artifacts
# are byte-identical for any value — see DESIGN.md §9 — so CI only tunes
# this for speed.
THERMO_JOBS="${THERMO_JOBS:-$(nproc 2>/dev/null || echo 2)}"
export THERMO_JOBS

echo "==> cargo fmt --check"
cargo fmt --check

# Static-analysis gate (DESIGN.md §11, §16): determinism and seam
# invariants, enforced before anything is built in release mode so
# violations fail in seconds. Findings already recorded in
# goldens/lint-baseline.json are grandfathered (visible, counted,
# expected to reach zero); anything new fails here. The binary prints
# per-lint counts either way.
#
# The linter itself fans per-file analysis through the thermo-exec pool,
# so its report is subject to the same byte-identity discipline as the
# experiment artifacts: run `--json` at two different worker counts and
# byte-compare. A mismatch means findings merged in completion order
# instead of path order — the exact bug E2 exists to catch elsewhere.
echo "==> thermo-lint (vs goldens/lint-baseline.json, --json byte-stable across THERMO_JOBS)"
lint_dir="target/lint-ci"
mkdir -p "$lint_dir"
lint_start_ns=$(date +%s%N)
cargo run -q --offline -p thermo-lint -- --baseline goldens/lint-baseline.json
THERMO_JOBS=1 cargo run -q --offline -p thermo-lint -- \
  --baseline goldens/lint-baseline.json --json >"$lint_dir/report-j1.json"
THERMO_JOBS=7 cargo run -q --offline -p thermo-lint -- \
  --baseline goldens/lint-baseline.json --json >"$lint_dir/report-j7.json"
cmp "$lint_dir/report-j1.json" "$lint_dir/report-j7.json" || {
  echo "FAIL: thermo-lint --json differs between THERMO_JOBS=1 and THERMO_JOBS=7" >&2
  exit 1
}
lint_end_ns=$(date +%s%N)
echo "    lint wall-clock $(((lint_end_ns - lint_start_ns) / 1000000)) ms for 3 passes (gate + 2 determinism reps)"

echo "==> cargo build --release --offline (all targets)"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test -q --offline (entire workspace)"
cargo test -q --offline --workspace

# The benchmark package (perfbench/, see BENCHMARK.json) is a workspace of
# its own that reaches these crates through path dependencies, so the
# workspace build above never compiles it. Building and testing it here
# makes a change to a public API it uses fail CI, not the next benchmark run.
echo "==> perfbench build + tests (its own workspace)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Bench regression gate: run both bench targets N times in smoke mode and
# gate on the median of the N single-shot medians against the checked-in
# baseline (goldens/bench-baseline.json — itself a median-of-5 recording,
# see EXPERIMENTS.md "Regenerating the bench baseline").
#
# Threshold justification (measured while characterizing variance for
# this gate): single-shot medians of the nanosecond-scale benches move up
# to ~2.4x across sessions (cache/heap alignment, runner load), but the
# median-of-5 is far steadier — worst observed within-session sigma was
# ~35% of the median (llc_access_random), most benches under 10%. A +150%
# threshold on the median-of-5 therefore only trips on genuine >=2.5x
# blowups (algorithmic regressions, accidental O(n^2)), not timing noise
# — down from the provisional single-shot +300% gate.
THERMO_BENCH_REPS="${THERMO_BENCH_REPS:-5}"
THERMO_BENCH_MAX_REGRESSION_PCT="${THERMO_BENCH_MAX_REGRESSION_PCT:-150}"
echo "==> bench regression gate (N=$THERMO_BENCH_REPS smoke reps, median-of-N vs baseline, threshold +${THERMO_BENCH_MAX_REGRESSION_PCT}%)"
bdir="target/bench-ci"
rm -rf "$bdir"
mkdir -p "$bdir"
for rep in $(seq 1 "$THERMO_BENCH_REPS"); do
  for bench in microbench pipeline; do
    THERMO_BENCH_FAST=1 THERMO_BENCH_JSON="$PWD/$bdir/rep$rep-$bench.json" \
      cargo bench -q --offline -p thermo-bench --bench "$bench" >/dev/null
  done
done
awk -v thr="$THERMO_BENCH_MAX_REGRESSION_PCT" '
  FNR == 1 { base = (FILENAME ~ /bench-baseline/) }
  /"name":/ { gsub(/.*"name": *"|",?$/, ""); name = $0 }
  /"median_ns":/ {
    gsub(/.*"median_ns": *|,$/, "")
    if (base) bmed[name] = $0
    else { if (!(name in meds)) order[++n] = name; meds[name] = meds[name] " " $0 }
  }
  END {
    fail = 0
    for (k = 1; k <= n; k++) {
      nm = order[k]
      m = split(meds[nm], a, " ")
      for (i = 1; i < m; i++)
        for (j = i + 1; j <= m; j++)
          if (a[j] + 0 < a[i] + 0) { t = a[i]; a[i] = a[j]; a[j] = t }
      med = (m % 2) ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2
      mean = 0; for (i = 1; i <= m; i++) mean += a[i]; mean /= m
      ss = 0; for (i = 1; i <= m; i++) ss += (a[i] - mean) ^ 2
      sd = sqrt(ss / m)
      if (nm in bmed && bmed[nm] + 0 > 0) pct = (med / bmed[nm] - 1) * 100; else pct = 0
      printf "    %-42s median-of-%d %12.1f ns  sigma %10.1f ns  vs baseline %+7.1f%%\n", nm, m, med, sd, pct
      if (pct > thr) {
        printf "bench regression: %s median-of-%d %.1f ns vs baseline %.1f ns (+%.1f%%, threshold +%s%%)\n", nm, m, med, bmed[nm], pct, thr
        fail = 1
      }
    }
    exit fail
  }
' goldens/bench-baseline.json "$bdir"/rep*.json

# Off-thread scan cross-check: the same cheap experiment run with inline
# policy scans (THERMO_SCAN_JOBS=0) and with a 4-worker scan pool must
# produce byte-identical artifacts. tests/scan_parallel_determinism.rs is
# the exhaustive in-process version; this is the live end-to-end guard at
# the binary boundary.
echo "==> scan-parallel cross-check (fig10, THERMO_SCAN_JOBS=0 vs 4, byte compare)"
THERMO_SCALE=512 THERMO_DURATION_SECS=3 THERMO_PERIOD_SECS=1 THERMO_SCAN_JOBS=0 \
  cargo run -q --release --offline -p thermo-bench --bin fig10 >/dev/null
cp target/experiments/fig10.artifact.json "$bdir/fig10.scan-inline.artifact.json"
THERMO_SCALE=512 THERMO_DURATION_SECS=3 THERMO_PERIOD_SECS=1 THERMO_SCAN_JOBS=4 \
  cargo run -q --release --offline -p thermo-bench --bin fig10 >/dev/null
cmp "$bdir/fig10.scan-inline.artifact.json" target/experiments/fig10.artifact.json
echo "    byte-identical"

# Parallel golden gate, run twice: once with inline scans (the pre-seam
# wall-clock baseline) and once with a 4-worker scan pool, so the
# off-thread scan speedup — and the fact that the verdict is identical —
# is visible in CI logs. Per-experiment and total wall-clock are printed
# by the golden binary.
echo "==> golden-artifact check, inline scans (THERMO_SCAN_JOBS=1, THERMO_JOBS=$THERMO_JOBS) — wall-clock before"
THERMO_SCAN_JOBS=1 scripts/golden.sh check
echo "==> golden-artifact check, off-thread scans (THERMO_SCAN_JOBS=4, THERMO_JOBS=$THERMO_JOBS) — wall-clock after"
THERMO_SCAN_JOBS=4 scripts/golden.sh check

# Byte-identity gate: `golden.sh check` compares structurally, with float
# tolerance bands, so a speed change that nudges a derived float inside
# its band would pass it. Goldens are required to stay byte-identical
# (ROADMAP), so bless the smoke registry into a temporary tree and compare
# every artifact's bytes against goldens/ in both directions.
echo "==> golden byte-identity gate (fresh smoke bless vs goldens/, cmp)"
rebless="$PWD/$bdir/rebless"
rm -rf "$rebless"
THERMO_GOLDEN_DIR="$rebless" scripts/golden.sh bless >/dev/null
n_golden=0
for fresh in "$rebless"/*.json; do
  name=$(basename "$fresh")
  cmp "$fresh" "goldens/$name" || {
    echo "FAIL: goldens/$name is missing or not byte-identical to a fresh bless" >&2
    exit 1
  }
  n_golden=$((n_golden + 1))
done
for golden in goldens/*.json; do
  name=$(basename "$golden")
  case "$name" in
    bench-baseline.json | lint-baseline.json) continue ;;
  esac
  if [ ! -f "$rebless/$name" ]; then
    echo "FAIL: $golden has no fresh artifact (experiment missing from the registry?)" >&2
    exit 1
  fi
done
echo "    $n_golden artifacts byte-identical"

# Determinism cross-check: the cheapest registry experiment re-run
# serially must match the same goldens the parallel sweep just checked —
# a live guard that worker count never leaks into artifacts.
echo "==> golden determinism cross-check (THERMO_JOBS=1, fig10)"
THERMO_JOBS=1 scripts/golden.sh check fig10

# Migration-fabric cross-check: the transactional-migration experiments
# (async copy, write-abort/retry backoff, shadow promotion) are the
# registry entries most sensitive to scheduling leaks — re-check their
# goldens serially on top of the parallel sweep above.
echo "==> golden determinism cross-check (THERMO_JOBS=1, fab_bw fab_abort)"
THERMO_JOBS=1 scripts/golden.sh check fab_bw fab_abort

# Co-scheduled shared-tier cross-check: tenants_shared runs three
# tenants on one discrete-event timeline over one arbitrated pool
# (DESIGN.md §13); its golden must be identical serially — the run is
# single-threaded by construction, so worker count must be unobservable.
echo "==> golden determinism cross-check (THERMO_JOBS=1, tenants_shared)"
THERMO_JOBS=1 scripts/golden.sh check tenants_shared

# Scenario smoke-scale sweep: the compiled-scenario experiments — the
# 1024-shard policy-matrix fleet (sharded path) and the 32-tenant
# co-scheduled storm (DESIGN.md §14) — re-checked serially so a worker
# count of one reproduces the same goldens the parallel sweep covered.
echo "==> golden determinism cross-check (THERMO_JOBS=1, scen_fleet scen_storm)"
THERMO_JOBS=1 scripts/golden.sh check scen_fleet scen_storm

# Scheduler ordering-fuzz sweep: THERMO_SCHED_FUZZ permutes, under a
# seeded RNG, the order in which co-scheduled tenants advance within
# each arbiter window. Tenants own disjoint engines, so the co-scheduled
# goldens must stay byte-identical under every seed (tests/sched_fuzz.rs
# sweeps the whole registry in-process). Here both experiments that
# co-schedule tenants — tenants_shared's three tenants and the scenario
# storm's 32 mixed-policy tenants — are blessed into a temporary tree and
# their bytes compared against the committed goldens.
for fuzz_seed in 1 2 3735928559 6840227782638526189; do
  echo "==> scheduler ordering-fuzz byte check (THERMO_SCHED_FUZZ=$fuzz_seed, tenants_shared scen_storm)"
  fuzzdir="$PWD/$bdir/sched-fuzz-$fuzz_seed"
  rm -rf "$fuzzdir"
  THERMO_SCHED_FUZZ=$fuzz_seed THERMO_GOLDEN_DIR="$fuzzdir" \
    scripts/golden.sh bless tenants_shared scen_storm >/dev/null
  for name in tenants_shared scen_storm; do
    cmp "$fuzzdir/$name.json" "goldens/$name.json" || {
      echo "FAIL: goldens/$name.json is not byte-identical under THERMO_SCHED_FUZZ=$fuzz_seed" >&2
      exit 1
    }
  done
done

# Executor worker-count cross-check at the binary boundary: the golden
# sweeps above already check every experiment against its golden under
# THERMO_JOBS workers, but tolerance bands could in principle mask a
# sub-band scheduling leak. Bless the heaviest sharded experiment with
# one worker and with an oversubscribed pool into temporary trees and
# compare the artifact BYTES directly — the work-stealing merge
# (DESIGN.md §15) must make worker count entirely unobservable.
echo "==> executor worker-count cross-check (scen_fleet, THERMO_JOBS=1 vs 8, byte compare)"
for jobs in 1 8; do
  rm -rf "$PWD/$bdir/fleet-jobs$jobs"
  THERMO_JOBS=$jobs THERMO_GOLDEN_DIR="$PWD/$bdir/fleet-jobs$jobs" \
    scripts/golden.sh bless scen_fleet >/dev/null
done
cmp "$bdir/fleet-jobs1/scen_fleet.json" "$bdir/fleet-jobs8/scen_fleet.json"
echo "    byte-identical"

# Steal-order fuzz sweep: THERMO_EXEC_FUZZ=<seed> makes every worker
# visit steal victims in a seeded-shuffled order, adversarially
# perturbing which worker executes which job. Goldens must still verify
# under an oversubscribed pool for every seed — the in-process version
# is thermo-bench/tests/exec_determinism.rs; this is the live
# end-to-end guard at the binary boundary.
for fuzz_seed in 1 2 3735928559 6840227782638526189; do
  echo "==> steal-order fuzz check (THERMO_EXEC_FUZZ=$fuzz_seed, THERMO_JOBS=8, scen_fleet fig8)"
  THERMO_EXEC_FUZZ=$fuzz_seed THERMO_JOBS=8 scripts/golden.sh check scen_fleet fig8
done

echo "CI OK"
