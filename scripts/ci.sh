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

# Bench regression gate knobs (the gate and its threshold are explained
# below). awk would compare a non-number as text, so a malformed threshold
# could pass any regression: reject one up front, naming the variable.
THERMO_BENCH_REPS="${THERMO_BENCH_REPS:-5}"
THERMO_BENCH_MAX_REGRESSION_PCT="${THERMO_BENCH_MAX_REGRESSION_PCT:-150}"
for knob in THERMO_BENCH_REPS THERMO_BENCH_MAX_REGRESSION_PCT; do
  case "${!knob}" in
    *[!0-9]*) ;;
    *[1-9]*) continue ;;
  esac
  echo "error: $knob must be a positive decimal integer, got '${!knob}'" >&2
  exit 2
done

echo "==> cargo fmt --check"
cargo fmt --check

# Static gate (DESIGN.md §11): the determinism and seam bans in the
# clippy.toml files, and an #[expect] with a reason for every suppression,
# checked on lib and bin targets before the release build so a violation
# fails in seconds. Clippy only warns, and exits 0, when a clippy.toml path
# resolves to nothing; that warning fails the stage too, or a renamed engine
# method would drop out of its ban silently.
echo "==> cargo clippy -D warnings (clippy.toml bans)"
mkdir -p target
cargo clippy --offline --workspace -- -D warnings 2>&1 | tee target/clippy.log
if grep -q 'does not refer to' target/clippy.log; then
  echo "FAIL: a clippy.toml path resolves to nothing (see above)" >&2
  exit 1
fi

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

# Full-size digest gate: every smoke golden runs at scale 512 on the 256KB
# floor LLC, so the 16MB and 8MB LLCs of full-size tpcc_scan and
# cassandra_write_fabric run end to end only in perfbench. Rerun one
# measuring process of each workload BENCHMARK.json lists and compare its
# simulation digest with goldens/perfbench-digests.txt (regenerating:
# EXPERIMENTS.md "Golden artifacts — regenerating goldens").
echo "==> perfbench full-size digest gate (vs goldens/perfbench-digests.txt)"
n_digest=0
for workload in $(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json); do
  want=$(awk -v w="$workload" '$1 == w { print $2 }' goldens/perfbench-digests.txt)
  got=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    measure --workload "$workload" </dev/null | sed -n 's/^# digest //p')
  if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "FAIL: perfbench $workload digest is '$got', goldens/perfbench-digests.txt has '$want'" >&2
    exit 1
  fi
  n_digest=$((n_digest + 1))
done
echo "    $n_digest workload digests identical"

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

# Golden gate: `golden.sh check` compares every fresh artifact with its
# golden byte for byte (DESIGN.md §8); per-experiment and total
# wall-clock are printed by the golden binary.
echo "==> golden-artifact check (THERMO_JOBS=$THERMO_JOBS)"
scripts/golden.sh check | tee "$bdir/golden-check.log"

# Orphan goldens: every goldens/*.json but the bench baseline must belong
# to a registry experiment the check above ran.
echo "==> orphan golden check"
n_golden=0
for golden in goldens/*.json; do
  name=$(basename "$golden" .json)
  case "$name" in
    bench-baseline) continue ;;
  esac
  grep -q "^golden ok: $name " "$bdir/golden-check.log" || {
    echo "FAIL: $golden has no fresh artifact (experiment missing from the registry?)" >&2
    exit 1
  }
  n_golden=$((n_golden + 1))
done
echo "    $n_golden goldens, each checked against a registry experiment"

# Determinism cross-check: worker count must never leak into artifacts.
# Re-check serially the experiments most sensitive to scheduling leaks —
# the cheapest figure, the transactional-migration experiments, the
# co-scheduled shared tier (DESIGN.md §13) and both compiled scenarios
# (DESIGN.md §14) — against the goldens the parallel sweep just checked.
echo "==> golden determinism cross-check (THERMO_JOBS=1, fig10 fab_bw fab_abort tenants_shared scen_fleet scen_storm)"
THERMO_JOBS=1 scripts/golden.sh check fig10 fab_bw fab_abort tenants_shared scen_fleet scen_storm

# Scheduler ordering-fuzz sweep: THERMO_SCHED_FUZZ permutes, under a
# seeded RNG, the order in which co-scheduled tenants advance within
# each arbiter window. Tenants own disjoint engines, so both experiments
# that co-schedule tenants must still match their goldens byte for byte
# under every seed (tests/sched_fuzz.rs sweeps the whole registry
# in-process).
for fuzz_seed in 1 2 3735928559 6840227782638526189; do
  echo "==> scheduler ordering-fuzz check (THERMO_SCHED_FUZZ=$fuzz_seed, tenants_shared scen_storm)"
  THERMO_SCHED_FUZZ=$fuzz_seed scripts/golden.sh check tenants_shared scen_storm
done

# Executor worker-count cross-check: the heaviest sharded experiment,
# already checked with one worker above, with an oversubscribed pool —
# the job-id-order merge (DESIGN.md §9) must make worker count entirely
# unobservable.
echo "==> executor worker-count cross-check (THERMO_JOBS=8, scen_fleet)"
THERMO_JOBS=8 scripts/golden.sh check scen_fleet

# Executor claim-order fuzz sweep: THERMO_EXEC_FUZZ=<seed> makes the
# workers claim jobs in a seeded-shuffled order, adversarially perturbing
# which worker executes which job. Under an oversubscribed pool, every
# seed must reproduce the committed goldens byte for byte — the
# in-process version is thermo-bench/tests/exec_determinism.rs; this is
# the live end-to-end guard at the binary boundary.
for fuzz_seed in 1 2 3735928559 6840227782638526189; do
  echo "==> executor claim-order fuzz check (THERMO_EXEC_FUZZ=$fuzz_seed, THERMO_JOBS=8, scen_fleet fig8)"
  THERMO_EXEC_FUZZ=$fuzz_seed THERMO_JOBS=8 scripts/golden.sh check scen_fleet fig8
done

echo "CI OK"
