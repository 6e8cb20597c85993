//! Scenario-driven colocation experiments: the ISSUE's scale-out story.
//!
//! Both experiments compile specs from the [`thermo_scenario::library`]
//! instead of hand-enumerating tenants:
//!
//! * **`scen_fleet`** — the 256-tenant `fleet` mix replicated under each
//!   of the four placement policies (Thermostat, kstaled, CLOCK, DAMON):
//!   1024 independent shards fanned out over `thermo-exec`. Every
//!   tenant's workload stream is seeded by
//!   [`CompiledScenario::tenant_seed`] — a pure function of
//!   `(run seed, scenario salt, tenant index)` — so the *same* stream
//!   replays under every policy and across any `THERMO_JOBS` worker
//!   count. The golden pins per-policy × per-group aggregates, an
//!   FNV-1a digest over every shard's exact JSON, and one sentinel
//!   shard per policy byte-for-byte.
//!
//! * **`scen_storm`** — the 32-tenant `storm` contention mix
//!   co-scheduled (DESIGN.md §13) over one arbitrated fast-tier pool,
//!   with the policy matrix *colocated*: tenant `i` runs policy
//!   `i % 4`, so the arbiter mediates between
//!   SLO-driven Thermostat tenants and capacity-driven
//!   kstaled/CLOCK/DAMON neighbours in a single run. Slowdown reports
//!   come from engine-counter deltas, not the policy, so every tenant
//!   participates in arbitration regardless of its daemon. The golden
//!   pins each tenant's outcome and pressure counters plus the full
//!   arbiter event trace; `tests/sched_fuzz.rs` and the CI fuzz loop
//!   hold the artifact byte-identical under permuted tenant order.
//!
//! Both runs pin their own virtual durations and policy periods in
//! [`library::HOUR_NS`] units (the scenario shapes are authored on that
//! clock), so golden cost is independent of the `EvalParams` duration
//! the rest of the registry sweeps.

use crate::artifact::ExperimentArtifact;
use crate::harness::EvalParams;
use crate::report::{f, pct, ExperimentReport};
use thermo_kstaled::{ClockConfig, ClockPolicy, Damon, DamonConfig, Kstaled, KstaledConfig};
use thermo_mem::TierParams;
use thermo_scenario::{compile, library, CompiledScenario};
use thermo_sim::sched::{fuzz_seed_from_env, run_tenants_coscheduled};
use thermo_sim::{run_tenants_sharded, Engine, PolicyHook, SimConfig, Workload};
use thermostat::{Daemon, ThermostatConfig};

/// The policy matrix, in sweep order.
const POLICIES: [&str; 4] = ["thermostat", "kstaled", "clock", "damon"];

/// Policy sampling/sweep period: half a scenario hour, so every phase of
/// every shape spans several policy decisions.
const SCEN_PERIOD_NS: u64 = library::HOUR_NS / 2;

/// `scen_fleet` virtual duration: one full diurnal cycle, a complete
/// flash-crowd spike + recovery, ~1.6 memtable sawteeth, and the
/// failover step at the 2-hour mark.
const FLEET_DURATION_NS: u64 = 4 * library::HOUR_NS;

/// `scen_storm` virtual duration: two diurnal cycles with the failover
/// step landing mid-run at hour 4.
const STORM_DURATION_NS: u64 = 8 * library::HOUR_NS;

/// Builds the policy hook `which` (index into [`POLICIES`]) for a tenant
/// with SLO `slo_pct` and stream seed `seed`.
fn build_policy(which: usize, slo_pct: f64, seed: u64) -> Box<dyn PolicyHook> {
    match POLICIES[which] {
        "thermostat" => Box::new(Daemon::new(ThermostatConfig {
            tolerable_slowdown_pct: slo_pct,
            sampling_period_ns: SCEN_PERIOD_NS,
            seed: seed ^ 0xdaeb,
            ..ThermostatConfig::paper_defaults()
        })),
        "kstaled" => Box::new(Kstaled::new(KstaledConfig {
            scan_period_ns: SCEN_PERIOD_NS,
        })),
        "clock" => Box::new(ClockPolicy::new(ClockConfig {
            sweep_period_ns: SCEN_PERIOD_NS,
            fast_target_fraction: 0.6,
        })),
        "damon" => Box::new(Damon::new(DamonConfig {
            sample_interval_ns: SCEN_PERIOD_NS / 20,
            samples_per_aggregation: 10,
            ..DamonConfig::default()
        })),
        other => unreachable!("unknown policy {other}"),
    }
}

/// Tenant `tenant`'s declared footprint bound (anon + file) at `p`'s
/// scale — the sizing input for both experiments' tiers.
fn tenant_bound(c: &CompiledScenario, tenant: u64, p: &EvalParams) -> u64 {
    let fp = c.declared_footprint(tenant, p.scale);
    fp.anon_bytes + fp.file_bytes
}

/// Simulator config for a fleet tenant: cache geometry at `p`'s scale,
/// but a deliberately tight private fast slice (an eighth of headroom
/// plus a 2MB floor over the declared bound) so the policies actually
/// have to choose, and a slow tier that holds any achievable cold
/// fraction plus spill.
fn fleet_sim_config(p: &EvalParams, bound: u64) -> SimConfig {
    let mut cfg = p.sim_config_sized(bound);
    cfg.fast = TierParams::dram(bound + bound / 8 + (2 << 20));
    cfg.slow = TierParams::slow_1us(bound + (16 << 20));
    cfg
}

/// Per-policy × per-group aggregate accumulator for the fleet rows.
#[derive(Default, Clone)]
struct GroupAgg {
    tenants: u64,
    ops: u64,
    slow_faults: u64,
    cold_sum: f64,
    kernel_ns: u64,
    app_ns: u64,
}

/// 64-bit FNV-1a over `bytes`, chained from `h` (seed with
/// [`FNV_OFFSET`]). Used to pin every shard's exact JSON in one golden
/// line instead of a megabyte of notes.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs the 1024-shard policy-matrix fleet sweep at `p` and returns the
/// artifact under id `scen_fleet`.
///
/// # Panics
///
/// Panics when the scenario fails to compile or any shard panics.
pub fn scen_fleet_artifact(p: &EvalParams) -> ExperimentArtifact {
    let spec = library::fleet();
    let c = compile(&spec).unwrap_or_else(|e| panic!("fleet spec rejected: {e}"));
    let n = c.n_tenants();
    let shards = POLICIES.len() * n;

    let build =
        |shard_id: u64, _pool_seed: u64| -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
            let policy = shard_id as usize / n;
            let tenant = shard_id % n as u64;
            let t = &c.tenants()[tenant as usize];
            // The scenario's own seed derivation, NOT the pool's per-shard
            // seed: tenant `t` must draw the identical stream under all four
            // policies for the sweep to compare like with like.
            let seed = c.tenant_seed(p.seed, tenant);
            let bound = tenant_bound(&c, tenant, p);
            (
                Engine::new(fleet_sim_config(p, bound)),
                c.build_workload(tenant, seed, p.scale),
                build_policy(policy, t.slo_pct, seed),
            )
        };
    let outcomes = run_tenants_sharded(
        shards,
        FLEET_DURATION_NS,
        &thermo_exec::ExecConfig::from_env(p.seed),
        build,
    )
    .unwrap_or_else(|e| panic!("scen_fleet run failed: {e}"));

    let mut r = ExperimentReport::new(
        "scen_fleet",
        "policy matrix over the 256-tenant scenario fleet (1024 sharded engines)",
        &[
            "policy",
            "group",
            "tenants",
            "ops",
            "slow_faults",
            "cold_frac",
            "kernel(%)",
        ],
    );
    // Aggregate in (policy, group) order; groups keep spec order.
    let group_names: Vec<&str> = c.spec().groups.iter().map(|g| g.name.as_str()).collect();
    for (policy_idx, policy) in POLICIES.iter().enumerate() {
        let mut aggs = vec![GroupAgg::default(); group_names.len()];
        let mut digest = FNV_OFFSET;
        for o in &outcomes[policy_idx * n..(policy_idx + 1) * n] {
            let tenant = o.shard_id as usize % n;
            let group = group_names
                .iter()
                .position(|g| *g == c.tenants()[tenant].group)
                .expect("tenant group is declared");
            let a = &mut aggs[group];
            a.tenants += 1;
            a.ops += o.outcome.ops;
            a.slow_faults += o.stats.slow_trap_faults;
            a.cold_sum += o.breakdown.cold_fraction();
            a.kernel_ns += o.stats.kernel_time_ns;
            a.app_ns += o.stats.app_time_ns;
            digest = fnv1a64(digest, thermo_util::json::encode(o).as_bytes());
        }
        for (g, a) in group_names.iter().zip(&aggs) {
            r.row(vec![
                (*policy).to_string(),
                (*g).to_string(),
                a.tenants.to_string(),
                a.ops.to_string(),
                a.slow_faults.to_string(),
                pct(a.cold_sum / a.tenants.max(1) as f64),
                pct(a.kernel_ns as f64 / a.app_ns.max(1) as f64),
            ]);
        }
        // Every engine counter of all 256 shards under this policy,
        // pinned in one line.
        r.note(format!("digest {policy}: {digest:016x} over {n} shards"));
    }
    r.note(format!(
        "scenario: {} tenants x {} policies = {} shards, {}ns virtual each",
        n,
        POLICIES.len(),
        shards,
        FLEET_DURATION_NS,
    ));
    r.note(format!("spec: {}", thermo_util::json::encode(c.spec())));
    // One sentinel shard per policy, byte-for-byte: digest mismatches
    // then diff against a concrete outcome instead of a bare hash.
    for policy_idx in 0..POLICIES.len() {
        let o = &outcomes[policy_idx * n];
        r.note(format!(
            "sentinel {}: {}",
            POLICIES[policy_idx],
            thermo_util::json::encode(o)
        ));
    }
    ExperimentArtifact::new(r, p)
}

/// The initial capacity grant for a storm tenant: antagonists start
/// bloated at twice their bound (hogging the pool), everyone else is
/// squeezed to three quarters — the arbiter must claw antagonist
/// capacity back to fund the squeezed tenants' growth and spikes.
fn storm_grant(group: &str, bound: u64) -> u64 {
    if group == "antagonist" {
        bound * 2
    } else {
        bound * 3 / 4
    }
}

/// Runs the 32-tenant co-scheduled storm at `p` and returns the artifact
/// under id `scen_storm`.
///
/// # Panics
///
/// Panics when the scenario fails to compile or the run fails.
pub fn scen_storm_artifact(p: &EvalParams) -> ExperimentArtifact {
    let spec = library::storm();
    let c = compile(&spec).unwrap_or_else(|e| panic!("storm spec rejected: {e}"));
    let n = c.n_tenants();
    // The pool is exactly the sum of the initial grants (no reserve):
    // every grant the arbiter issues must be funded by a reclaim.
    let pool: u64 = (0..n as u64)
        .map(|t| storm_grant(&c.tenants()[t as usize].group, tenant_bound(&c, t, p)))
        .sum();

    let build =
        |shard_id: u64, _pool_seed: u64| -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
            let t = &c.tenants()[shard_id as usize];
            let seed = c.tenant_seed(p.seed, shard_id);
            let bound = tenant_bound(&c, shard_id, p);
            let mut cfg = p.sim_config_sized(bound);
            cfg.fast = TierParams::dram(pool);
            cfg.slow = TierParams::slow_1us(bound + (32 << 20));
            cfg.fabric.enabled = true;
            cfg.sched.shared_pool_bytes = pool;
            cfg.sched.initial_grant_bytes = storm_grant(&t.group, bound);
            cfg.sched.slo_pct = t.slo_pct;
            cfg.sched.report_period_ns = SCEN_PERIOD_NS / 2;
            cfg.sched.rebalance_period_ns = SCEN_PERIOD_NS;
            // MB-scale tenants need sub-MB grant moves (default is 8MB).
            cfg.sched.grant_quantum_bytes = 512 << 10;
            (
                Engine::new(cfg),
                c.build_workload(shard_id, seed, p.scale),
                // The colocated policy matrix: tenant i runs policy i % 4.
                build_policy(shard_id as usize % POLICIES.len(), t.slo_pct, seed),
            )
        };
    let out = run_tenants_coscheduled(n, STORM_DURATION_NS, p.seed, fuzz_seed_from_env(), build)
        .unwrap_or_else(|e| panic!("scen_storm run failed: {e}"));

    let mut r = ExperimentReport::new(
        "scen_storm",
        "32-tenant scenario storm, co-scheduled over one arbitrated pool (mixed policies)",
        &[
            "tenant",
            "policy",
            "slo(%)",
            "grant0(MB)",
            "ops",
            "slow_faults",
            "spill_faults",
            "reclaimed(MB)",
            "promoted(MB)",
            "cold_frac",
        ],
    );
    for (o, pr) in out.shards.iter().zip(&out.pressure) {
        let t = &c.tenants()[o.shard_id as usize];
        let grant = storm_grant(&t.group, tenant_bound(&c, o.shard_id, p));
        r.row(vec![
            t.label.clone(),
            POLICIES[o.shard_id as usize % POLICIES.len()].to_string(),
            f(t.slo_pct, 1),
            f(grant as f64 / 1e6, 1),
            o.outcome.ops.to_string(),
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
        "arbiter: {} events ({} reclaims funding {} grants) over one {:.1}MB pool, {} tenants",
        out.trace.len(),
        reclaims,
        grants,
        pool as f64 / 1e6,
        n,
    ));
    r.note(format!("spec: {}", thermo_util::json::encode(c.spec())));
    // Exact outcomes, pressure counters, and the applied arbitration
    // trace — the whole run is golden-checked byte-for-byte.
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
    for e in &out.trace {
        r.note(format!("arbiter: {}", thermo_util::json::encode(e)));
    }
    ExperimentArtifact::new(r, p)
}
