//! The co-scheduled engine's charge-neutrality contract (DESIGN.md §13):
//! with arbitration disabled and fixed per-tenant budgets, running the
//! `tenants` mix through the co-scheduled runner produces the exact
//! bytes of the sharded `run_for` path — same ops, same engine counters,
//! same footprint breakdowns, for every tenant. One global timeline must
//! be an *ordering* change, never a *behaviour* change.
//!
//! Three checks:
//!
//! 1. in-process: the same build closure run sharded and co-scheduled
//!    (via the `SchedConfig::coscheduled` probe dispatch inside
//!    `run_tenants_sharded`, the switch the experiments flip) yields
//!    byte-identical serialized [`thermo_sim::runner::ShardOutcome`]s;
//! 2. golden-pinned: the co-scheduled outcomes reproduce the committed
//!    `goldens/tenants.json` shard notes byte-for-byte, so equivalence
//!    is anchored to blessed history, not just to a twin in-process run;
//! 3. every policy: Thermostat, kstaled, CLOCK and DAMON tenants with
//!    the migration fabric on, run through both runners directly.

use std::path::PathBuf;

use thermo_bench::EvalParams;
use thermo_kstaled::{ClockConfig, ClockPolicy, Damon, DamonConfig, Kstaled, KstaledConfig};
use thermo_mem::TierParams;
use thermo_sim::{
    run_tenants_coscheduled, run_tenants_sharded, Engine, FabricConfig, PolicyHook, ShardOutcome,
    Workload,
};
use thermo_workloads::AppId;
use thermostat::Daemon;

/// The `tenants` experiment mix, replicated: application, YCSB read
/// percentage, tolerable slowdown (%). Must stay in lockstep with
/// `crates/thermo-bench/src/tenants.rs` — the golden-pinned test fails
/// loudly if either side drifts.
const TENANTS: &[(AppId, u8, f64)] = &[
    (AppId::MysqlTpcc, 95, 3.0),
    (AppId::Redis, 90, 6.0),
    (AppId::WebSearch, 95, 10.0),
];

/// Same fixed budget rule as `tenants.rs`: footprint + footprint/8 + 32MB.
fn fast_budget(footprint: u64) -> u64 {
    footprint + footprint / 8 + (32 << 20)
}

/// Builds tenant `shard_id` exactly as the `tenants` experiment does,
/// optionally flipping it onto the co-scheduled path. Arbitration stays
/// off either way (`shared_pool_bytes == 0`): that is the equivalence
/// regime.
fn build_tenant(
    p: &EvalParams,
    coscheduled: bool,
    shard_id: u64,
    seed: u64,
) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
    let (app, read_pct, target) = TENANTS[shard_id as usize];
    let tp = EvalParams {
        seed,
        read_pct,
        tolerable_slowdown_pct: target,
        ..*p
    };
    let mut cfg = tp.sim_config(app);
    let footprint = (app.paper_rss_bytes() + app.paper_file_bytes()) / tp.scale;
    cfg.fast = TierParams::dram(fast_budget(footprint));
    cfg.sched.coscheduled = coscheduled;
    (
        Engine::new(cfg),
        app.build(tp.app_config()),
        Box::new(Daemon::new(tp.thermostat_config())),
    )
}

/// Runs the mix through `run_tenants_sharded` — which itself dispatches
/// to the event-driven path when the built config says `coscheduled` —
/// and returns the serialized outcome per shard.
fn outcomes(p: &EvalParams, coscheduled: bool) -> Vec<ShardOutcome> {
    run_tenants_sharded(
        TENANTS.len(),
        p.duration_ns,
        &thermo_exec::ExecConfig::from_env(p.seed),
        |shard_id, seed| build_tenant(p, coscheduled, shard_id, seed),
    )
    .unwrap_or_else(|e| panic!("tenants run failed: {e}"))
}

#[test]
fn coscheduled_run_reproduces_sharded_outcomes_byte_for_byte() {
    let p = EvalParams::smoke();
    let sharded = outcomes(&p, false);
    let coscheduled = outcomes(&p, true);
    assert_eq!(sharded.len(), coscheduled.len());
    for (s, c) in sharded.iter().zip(&coscheduled) {
        assert_eq!(
            thermo_util::json::encode(s),
            thermo_util::json::encode(c),
            "shard {}: co-scheduled outcome diverged from the run_for path",
            s.shard_id
        );
    }
}

#[test]
fn coscheduled_run_reproduces_the_committed_tenants_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../goldens/tenants.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let golden = thermo_util::json::parse(&text).expect("well-formed golden");
    let notes = golden
        .get("report")
        .and_then(|r| r.get("notes"))
        .and_then(|n| n.as_arr())
        .expect("golden has report.notes");
    let golden_shards: Vec<&str> = notes
        .iter()
        .filter_map(|n| n.as_str())
        .filter(|s| s.starts_with("shard "))
        .collect();
    assert_eq!(
        golden_shards.len(),
        TENANTS.len(),
        "golden shard notes out of step with the tenant mix"
    );

    for (o, want) in outcomes(&EvalParams::smoke(), true)
        .iter()
        .zip(&golden_shards)
    {
        let got = format!("shard {}: {}", o.shard_id, thermo_util::json::encode(o));
        assert_eq!(
            &got, want,
            "shard {}: co-scheduled outcome diverged from goldens/tenants.json",
            o.shard_id
        );
    }
}

/// Tenant `t` of the every-policy input: the mix's application `t % 3`
/// under policy `t` (Thermostat, kstaled, CLOCK, DAMON), with the
/// migration fabric on at 128MB/s and arbitration off.
fn build_policy_tenant(
    p: &EvalParams,
    t: u64,
    seed: u64,
) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
    let (app, read_pct, target) = TENANTS[t as usize % TENANTS.len()];
    let tp = EvalParams {
        seed,
        read_pct,
        tolerable_slowdown_pct: target,
        ..*p
    };
    let mut cfg = tp.sim_config(app);
    cfg.fabric = FabricConfig {
        enabled: true,
        link_bandwidth_bytes_per_sec: 128_000_000,
        ..FabricConfig::default()
    };
    let period = tp.sampling_period_ns;
    let policy: Box<dyn PolicyHook> = match t {
        0 => Box::new(Daemon::new(tp.thermostat_config())),
        1 => Box::new(Kstaled::new(KstaledConfig {
            scan_period_ns: period,
        })),
        2 => Box::new(ClockPolicy::new(ClockConfig {
            sweep_period_ns: period,
            ..ClockConfig::default()
        })),
        _ => Box::new(Damon::new(DamonConfig {
            sample_interval_ns: period / 10,
            samples_per_aggregation: 10,
            seed,
            ..DamonConfig::default()
        })),
    };
    (Engine::new(cfg), app.build(tp.app_config()), policy)
}

#[test]
fn every_policy_with_the_fabric_on_matches_across_runners() {
    let p = EvalParams::smoke();
    let build = |t, seed| build_policy_tenant(&p, t, seed);
    let sharded = run_tenants_sharded(
        4,
        p.duration_ns,
        &thermo_exec::ExecConfig::from_env(p.seed),
        build,
    )
    .unwrap_or_else(|e| panic!("sharded run failed: {e}"));
    let coscheduled = run_tenants_coscheduled(4, p.duration_ns, p.seed, None, build)
        .unwrap_or_else(|e| panic!("co-scheduled run failed: {e}"))
        .shards;
    assert!(
        sharded.iter().any(|s| s.breakdown.cold() > 0),
        "no policy moved a page through the fabric"
    );
    assert_eq!(sharded.len(), coscheduled.len());
    for (s, c) in sharded.iter().zip(&coscheduled) {
        assert_eq!(
            thermo_util::json::encode(s),
            thermo_util::json::encode(c),
            "shard {}: co-scheduled outcome diverged from the sharded one",
            s.shard_id
        );
    }
}
