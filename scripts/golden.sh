#!/usr/bin/env bash
# Golden-artifact gate for the fig/tab experiment registry.
#
#   scripts/golden.sh check [--full] [id...]   re-run experiments and
#                                     compare with goldens/ byte for byte
#                                     (exit 1 on mismatch)
#   scripts/golden.sh bless [--full] [id...]   overwrite goldens with fresh
#                                     artifacts
#
# With no ids, all 15 registered experiments (fig5–fig10, tab2–tab4,
# tenants, fab_bw, fab_abort, tenants_shared, scen_fleet, scen_storm)
# execute as parallel jobs on the thermo-exec pool (THERMO_JOBS workers,
# default = available parallelism). Artifacts are byte-identical for any
# worker count, so parallelism only changes the wall-clock, which the
# binary prints per experiment and in total.
#
# Two tiers:
#   default      smoke scale (EvalParams::smoke), goldens/, default CI;
#   --full       the full 1/16 evaluation scale (EvalParams::full),
#                goldens/full/, opt-in for release branches (its goldens
#                are blessed separately and are NOT part of default
#                CI). Equivalent: THERMO_GOLDEN_SCALE=full (the variable
#                takes exactly `smoke` or `full`; anything else exits 2).
#
# A fresh artifact's canonical JSON must equal its golden's bytes; on a
# mismatch the report names the diverging fields and the first diverging
# period — see DESIGN.md "Golden artifacts". Set THERMO_GOLDEN_DIR to
# check against an alternate golden tree.
#
# Note: `bless` covers experiment artifacts only. The bench baseline
# (goldens/bench-baseline.json) is re-recorded with scripts/benchagg.sh
# (EXPERIMENTS.md "Regenerating the bench baseline").
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-check}"
shift $(( $# > 0 ? 1 : 0 ))

case "$mode" in
  check|bless) ;;
  *)
    echo "usage: scripts/golden.sh [check|bless] [--full] [id...]" >&2
    exit 2
    ;;
esac

exec cargo run -q --release --offline -p thermo-bench --bin golden -- "$mode" "$@"
