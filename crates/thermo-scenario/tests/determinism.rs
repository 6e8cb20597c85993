//! Compiled-scenario determinism: the storm scenario's merged shard
//! outcomes must serialize to identical bytes for every `thermo-exec`
//! worker count.

use thermo_scenario::{compile, library};
use thermo_sim::{Engine, NoPolicy, PolicyHook, SimConfig, Workload};
use thermo_util::json::encode;

/// A short window: identity needs the full compile/seed/replay pipeline,
/// not a long run.
const DURATION_NS: u64 = 2 * library::HOUR_NS;

fn storm_outcomes(workers: usize) -> Vec<String> {
    let spec = library::storm();
    let c = compile(&spec).expect("library scenario compiles");
    let build =
        |shard_id: u64, _pool_seed: u64| -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
            let seed = c.tenant_seed(0xd15c, shard_id);
            let fp = c.declared_footprint(shard_id, 512);
            let bound = fp.anon_bytes + fp.file_bytes;
            let cfg = SimConfig::paper_defaults(bound * 2 + (16 << 20), bound + (16 << 20));
            (
                Engine::new(cfg),
                c.build_workload(shard_id, seed, 512),
                Box::new(NoPolicy),
            )
        };
    thermo_sim::run_tenants_sharded(
        c.n_tenants(),
        DURATION_NS,
        &thermo_exec::ExecConfig::new(workers, 0xd15c),
        build,
    )
    .expect("sharded storm run completes")
    .iter()
    .map(encode)
    .collect()
}

#[test]
fn storm_outcomes_identical_across_worker_counts() {
    let baseline = storm_outcomes(1);
    assert_eq!(baseline.len(), 32, "storm is the advertised 32 tenants");

    for workers in [2, 7, 32] {
        assert_eq!(
            baseline,
            storm_outcomes(workers),
            "worker count {workers} changed shard outcome bytes"
        );
    }
}
