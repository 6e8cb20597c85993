//! The shared-fast-tier colocation experiment (`tenants_shared`): the
//! contention story fixed per-tenant budgets cannot express.
//!
//! Three tenants run co-scheduled (DESIGN.md §13) over one arbitrated
//! DRAM pool:
//!
//! * **victim** (MySQL-TPCC, 3% SLO) — its initial grant is squeezed
//!   below its working set, so demand paging spills into the slow tier
//!   and every spilled page faults on access (§4.3's slowdown signal);
//! * **antagonist** (Redis, lenient 30% SLO) — starts with a bloated
//!   grant far above its footprint, hogging the pool's capacity;
//! * **neutral** (web-search, 10% SLO) — comfortably provisioned, shows
//!   that arbitration leaves well-behaved tenants alone.
//!
//! The arbiter watches per-tenant slowdown reports, sees the victim blow
//! through its SLO with displaced demand parked in the slow tier, and
//! claws cold/idle capacity back from the antagonist — the checked-in
//! golden pins the reclaim→grant event trace and the victim's recovery
//! byte-for-byte. The run is single-threaded by construction, so the
//! artifact is identical for every `THERMO_JOBS`/`THERMO_SCAN_JOBS`
//! setting, and `tests/sched_fuzz.rs` holds it byte-identical under
//! permuted same-tick pop order.

use crate::artifact::ExperimentArtifact;
use crate::harness::EvalParams;
use crate::report::{f, pct, ExperimentReport};
use thermo_mem::TierParams;
use thermo_sim::sched::{fuzz_seed_from_env, run_tenants_coscheduled};
use thermo_sim::{Engine, PolicyHook, Workload};
use thermo_workloads::AppId;
use thermostat::Daemon;

/// The shared pool every grant is carved from. The sum of the initial
/// grants equals the pool exactly, so the arbiter starts with an empty
/// reserve: the victim's recovery *must* be funded by reclaiming the
/// antagonist's capacity.
const POOL_BYTES: u64 = 92 << 20;

/// The colocated mix: application, YCSB read %, slowdown SLO (%), and
/// the initial capacity grant. At the smoke scale (÷512) the victim's
/// 12MB grant sits well below TPCC's ~19MB footprint while the
/// antagonist's 64MB grant nearly doubles Redis's ~34MB.
const TENANTS: &[(AppId, u8, f64, u64)] = &[
    (AppId::MysqlTpcc, 95, 3.0, 12 << 20),
    (AppId::Redis, 90, 30.0, 64 << 20),
    (AppId::WebSearch, 95, 10.0, 16 << 20),
];

/// Builds tenant `shard_id` for the shared-pool run: every engine's fast
/// tier is pool-sized (the grant, not the tier, is the real limit), and
/// the per-tenant [`thermo_sim::SchedConfig`] carries the arbitration
/// knobs. Public within the crate so `tests/sched_fuzz.rs` and the CI
/// cross-checks rebuild the exact same tenants.
pub(crate) fn build_tenant(
    p: &EvalParams,
    shard_id: u64,
    seed: u64,
) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
    let (app, read_pct, slo, grant) = TENANTS[shard_id as usize];
    let tp = EvalParams {
        seed,
        read_pct,
        tolerable_slowdown_pct: slo,
        ..*p
    };
    let mut cfg = tp.sim_config(app);
    let footprint = (app.paper_rss_bytes() + app.paper_file_bytes()) / tp.scale;
    cfg.fast = TierParams::dram(POOL_BYTES);
    cfg.slow = TierParams::slow_1us(footprint + (96 << 20));
    cfg.fabric.enabled = true;
    cfg.sched.shared_pool_bytes = POOL_BYTES;
    cfg.sched.initial_grant_bytes = grant;
    cfg.sched.slo_pct = slo;
    (
        Engine::new(cfg),
        app.build(tp.app_config()),
        Box::new(Daemon::new(tp.thermostat_config())),
    )
}

/// Runs the shared-tier experiment at `p` and returns the artifact under
/// id `tenants_shared`: one row per tenant, the complete
/// [`thermo_sim::runner::ShardOutcome`]s and capacity-pressure counters
/// as exact-JSON notes, and the full arbiter event trace.
///
/// # Panics
///
/// Panics when any component panics mid-run.
pub fn tenants_shared_artifact(p: &EvalParams) -> ExperimentArtifact {
    let out = run_tenants_coscheduled(
        TENANTS.len(),
        p.duration_ns,
        p.seed,
        fuzz_seed_from_env(),
        |shard_id, seed| build_tenant(p, shard_id, seed),
    )
    .unwrap_or_else(|e| panic!("tenants_shared run failed: {e}"));

    let mut r = ExperimentReport::new(
        "tenants_shared",
        "co-scheduled tenants, one arbitrated fast tier (antagonist vs victim)",
        &[
            "tenant",
            "app",
            "slo(%)",
            "grant0(MB)",
            "ops",
            "ops/s",
            "slow_faults",
            "spill_faults",
            "reclaimed(MB)",
            "promoted(MB)",
            "cold_frac",
        ],
    );
    for (o, pr) in out.shards.iter().zip(&out.pressure) {
        let (app, _, slo, grant) = TENANTS[o.shard_id as usize];
        r.row(vec![
            o.shard_id.to_string(),
            app.to_string(),
            f(slo, 1),
            f(grant as f64 / 1e6, 1),
            o.outcome.ops.to_string(),
            f(o.outcome.ops_per_sec(), 0),
            o.stats.slow_trap_faults.to_string(),
            pr.slow_fallback_faults.to_string(),
            f(pr.reclaimed_bytes as f64 / 1e6, 1),
            f(pr.promoted_bytes as f64 / 1e6, 1),
            pct(o.breakdown.cold_fraction()),
        ]);
    }
    let grants: u64 = out.trace.iter().filter(|e| e.action == "grant").count() as u64;
    let reclaims: u64 = out.trace.iter().filter(|e| e.action == "reclaim").count() as u64;
    r.note(format!(
        "arbiter: {} events ({} reclaims funding {} grants) over one {}MB pool",
        out.trace.len(),
        reclaims,
        grants,
        POOL_BYTES >> 20,
    ));
    // Exact shard outcomes + pressure counters: every engine counter of
    // every tenant is golden-checked byte-for-byte.
    for (o, pr) in out.shards.iter().zip(&out.pressure) {
        r.note(format!(
            "shard {}: {}",
            o.shard_id,
            thermo_util::json::encode(o)
        ));
        r.note(format!(
            "pressure {}: {}",
            o.shard_id,
            thermo_util::json::encode(pr)
        ));
    }
    // The applied arbitration trace, in virtual-time order.
    for e in &out.trace {
        r.note(format!("arbiter: {}", thermo_util::json::encode(e)));
    }
    ExperimentArtifact::new(r, p)
}
