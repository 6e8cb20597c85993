//! The contract the golden gate's parallel execution stands on: running
//! the experiment registry through the `thermo-exec` pool with different
//! worker counts produces **byte-identical** artifacts. Scheduling,
//! completion order, and `THERMO_JOBS` must be completely unobservable
//! in every serialized output.

use thermo_bench::experiments::{self, run_parallel};
use thermo_bench::golden::canonical_json;
use thermo_bench::EvalParams;

/// Runs every registry experiment at a reduced smoke scale with the
/// given worker count — both the outer per-experiment fan-out and the
/// inner per-run fan-out (figs/tabs read `THERMO_JOBS`) — and returns
/// each artifact's canonical golden serialization.
fn registry_snapshot(workers: usize) -> Vec<(&'static str, String)> {
    // The inner pools (paired_runs, thermostat_runs_all) size themselves
    // from the environment; pin it so `workers` governs every layer.
    std::env::set_var("THERMO_JOBS", workers.to_string());
    let params = EvalParams {
        // A third of the golden smoke duration, same rationale as
        // tests/determinism.rs: identity doesn't need the full window,
        // just the full pipeline.
        duration_ns: 500_000_000,
        ..EvalParams::smoke()
    };
    let selected: Vec<_> = experiments::ALL.iter().collect();
    run_parallel(&selected, &params, workers)
        .into_iter()
        .map(|r| (r.id, canonical_json(&r.artifact)))
        .collect()
}

#[test]
fn worker_count_never_changes_artifact_bytes() {
    let serial = registry_snapshot(1);
    let parallel = registry_snapshot(4);
    assert_eq!(serial.len(), experiments::ALL.len());
    for ((id_a, bytes_a), (id_b, bytes_b)) in serial.iter().zip(&parallel) {
        assert_eq!(id_a, id_b, "merge order must follow the registry");
        assert_eq!(
            bytes_a, bytes_b,
            "experiment {id_a}: THERMO_JOBS=1 and THERMO_JOBS=4 artifacts differ"
        );
    }
}

/// Like [`registry_snapshot`], with the claim-order fuzz knob set: the
/// executor's workers claim jobs in a seed-shuffled order.
fn fuzzed_snapshot(workers: usize, fuzz: u64) -> Vec<(&'static str, String)> {
    std::env::set_var("THERMO_EXEC_FUZZ", fuzz.to_string());
    let out = registry_snapshot(workers);
    std::env::remove_var("THERMO_EXEC_FUZZ");
    out
}

#[test]
fn claim_order_fuzz_never_changes_artifact_bytes() {
    // The executor mirror of the scheduler's THERMO_SCHED_FUZZ campaign:
    // seeds shuffle the order in which workers claim jobs, so each seed
    // exercises a different job-to-worker map and completion order.
    // Every one must merge to the exact serial bytes. (ci.sh sweeps more
    // seeds against the on-disk goldens; this in-tree test keeps the
    // property `cargo test`-visible.)
    let serial = registry_snapshot(1);
    assert_eq!(serial.len(), experiments::ALL.len());
    for (workers, fuzz) in [(4, 0u64), (4, 0xfeed_beef), (3, 17)] {
        let fuzzed = fuzzed_snapshot(workers, fuzz);
        for ((id_a, bytes_a), (id_b, bytes_b)) in serial.iter().zip(&fuzzed) {
            assert_eq!(id_a, id_b, "merge order must follow the registry");
            assert_eq!(
                bytes_a, bytes_b,
                "experiment {id_a}: THERMO_JOBS={workers} THERMO_EXEC_FUZZ={fuzz} \
                 artifacts differ from serial"
            );
        }
    }
}
