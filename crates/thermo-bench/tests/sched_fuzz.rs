//! The ordering-fuzz campaign (DESIGN.md §13): `THERMO_SCHED_FUZZ`
//! permutes, under a seeded RNG, the order in which co-scheduled
//! tenants advance within each arbiter window — the one reordering
//! freedom the co-scheduled runner's contract claims is unobservable. This test holds the whole experiment
//! registry to that claim: every artifact must serialize to the exact
//! bytes of the unfuzzed run under every fuzz seed.
//!
//! Experiments on the sharded path never consult the knob (their
//! tenants live on private timelines); `tenants_shared` and `scen_storm`
//! actually exercise it, with apps, daemons, reporters and the arbiter
//! sharing one arbitrated pool. The registry-wide
//! sweep is deliberate anyway: it pins that the knob is inert everywhere
//! else, so a future co-scheduled port of another experiment inherits
//! the campaign for free.
//!
//! One `#[test]` owns the whole sweep because the knob is process-global
//! env state — splitting per-seed tests would race env mutations across
//! the test harness's threads.

use thermo_bench::experiments;
use thermo_bench::golden::canonical_json;
use thermo_bench::EvalParams;

/// Four fixed fuzz seeds plus a high-entropy one: distinct permutation
/// streams, stable across runs (the campaign is deterministic per seed).
const FUZZ_SEEDS: [u64; 4] = [1, 2, 0xdead_beef, 0x5eed_5eed_5eed_5eed];

fn registry_snapshot() -> Vec<(&'static str, String)> {
    let params = EvalParams {
        // A third of the golden smoke duration, same rationale as
        // exec_determinism.rs: identity needs the full pipeline, not the
        // full window.
        duration_ns: 500_000_000,
        ..EvalParams::smoke()
    };
    experiments::ALL
        .iter()
        .map(|e| (e.id, canonical_json(&(e.run)(&params))))
        .collect()
}

#[test]
fn fuzzed_pop_order_never_changes_artifact_bytes() {
    std::env::remove_var("THERMO_SCHED_FUZZ");
    let baseline = registry_snapshot();
    assert_eq!(baseline.len(), experiments::ALL.len());

    for seed in FUZZ_SEEDS {
        std::env::set_var("THERMO_SCHED_FUZZ", seed.to_string());
        let fuzzed = registry_snapshot();
        for ((id, want), (id_f, got)) in baseline.iter().zip(&fuzzed) {
            assert_eq!(id, id_f, "registry order changed mid-sweep");
            assert_eq!(
                want, got,
                "experiment {id}: THERMO_SCHED_FUZZ={seed} changed artifact bytes — \
                 two tenants advanced within one arbiter window do not commute"
            );
        }
    }
    std::env::remove_var("THERMO_SCHED_FUZZ");
}
