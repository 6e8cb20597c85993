//! The four benchmark workloads and the inputs generated for them.
//!
//! Everything the simulator receives is built here from explicit values
//! and the run seed: `EvalParams` literals (never `EvalParams::from_env`),
//! library scenario specs, and policies constructed with one scan worker
//! (their plain `new` reads `THERMO_SCAN_JOBS`). No `THERMO_*` variable
//! can change what a run measures.

use thermo_bench::harness::EvalParams;
use thermo_kstaled::{ClockConfig, ClockPolicy, Damon, DamonConfig, Kstaled, KstaledConfig};
use thermo_mem::TierParams;
use thermo_scenario::{compile, library, CompiledScenario, ScenarioSpec};
use thermo_sim::{Engine, FabricConfig, PolicyHook, SimConfig, Workload};
use thermo_workloads::AppId;
use thermostat::{Daemon, DaemonStats, ThermostatConfig};

/// Snapshot workers every policy is built with.
pub const SCAN_WORKERS: usize = 1;

/// Worker threads of the `fleet_sharded` executor pool.
pub const FLEET_WORKERS: usize = 2;

const SEC: u64 = 1_000_000_000;
const MS: u64 = 1_000_000;
const HOUR: u64 = library::HOUR_NS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    TpccScan,
    CassandraWriteFabric,
    StormCosched,
    FleetSharded,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::TpccScan,
        WorkloadId::CassandraWriteFabric,
        WorkloadId::StormCosched,
        WorkloadId::FleetSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::TpccScan => "tpcc_scan",
            WorkloadId::CassandraWriteFabric => "cassandra_write_fabric",
            WorkloadId::StormCosched => "storm_cosched",
            WorkloadId::FleetSharded => "fleet_sharded",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Every workload name, comma-separated (for error messages).
    pub fn names() -> String {
        Self::ALL.map(Self::name).join(", ")
    }
}

/// Run size: `Full` is what the benchmark measures; `Tiny` exists for the
/// smoke tests and finishes in well under a second per repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// A single-tenant workload driven through `run_for` under the
/// Thermostat daemon.
#[derive(Debug, Clone)]
pub struct SinglePlan {
    pub app: AppId,
    pub params: EvalParams,
    /// The migration fabric's configuration; `None` keeps it off.
    pub fabric: Option<FabricConfig>,
    pub warmup_ns: u64,
    pub measure_ns: u64,
}

impl SinglePlan {
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = self.params.sim_config(self.app);
        if let Some(fabric) = self.fabric {
            cfg.fabric = fabric;
        }
        cfg
    }

    pub fn workload(&self) -> Box<dyn Workload> {
        self.app.build(self.params.app_config())
    }

    pub fn policy(&self) -> AnyPolicy {
        AnyPolicy::Thermostat(Box::new(Daemon::with_scan_workers(
            self.params.thermostat_config(),
            SCAN_WORKERS,
        )))
    }
}

/// A multi-tenant scenario run through one of the program's runners.
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    pub spec: ScenarioSpec,
    /// Scale and seed; only `scale`, `seed`, `thp` and
    /// `track_true_access` are read.
    pub params: EvalParams,
    /// Virtual time before the measured phase (0 = none).
    pub warmup_ns: u64,
    /// Each tenant's virtual run length, warm-up included.
    pub duration_ns: u64,
}

#[derive(Debug, Clone)]
pub enum Plan {
    Single(SinglePlan),
    Storm(ScenarioPlan),
    Fleet(ScenarioPlan),
}

fn params(scale: u64, period_ns: u64, read_pct: u8, seed: u64) -> EvalParams {
    EvalParams {
        scale,
        duration_ns: 0,
        sampling_period_ns: period_ns,
        tolerable_slowdown_pct: 3.0,
        read_pct,
        seed,
        thp: true,
        track_true_access: false,
    }
}

/// Footprint divisor for scenario tenants: the golden tier's scale, at
/// which every library shape is MB-sized.
const SCENARIO_SCALE: u64 = 512;

/// The inputs of workload `w` at `size`, generated from `seed`.
pub fn plan(w: WorkloadId, size: Size, seed: u64) -> Plan {
    let tiny = size == Size::Tiny;
    match w {
        // MySQL-TPCC at 95% reads, ~2.4GB simulated: the policy layer's
        // MemoryView scans and plan application are a large share of the
        // host time, and no fabric, scheduler or executor runs.
        WorkloadId::TpccScan => Plan::Single(SinglePlan {
            app: AppId::MysqlTpcc,
            params: if tiny {
                params(256, 100 * MS, 95, seed)
            } else {
                params(4, 250 * MS, 95, seed)
            },
            fabric: None,
            warmup_ns: if tiny { 200 * MS } else { SEC },
            measure_ns: if tiny { 300 * MS } else { 6 * SEC },
        }),
        // Cassandra at 5% reads behind fab_abort's 128MB/s link: the
        // write path (D-bit walks, note_write) and a fabric that stays busy.
        WorkloadId::CassandraWriteFabric => Plan::Single(SinglePlan {
            app: AppId::Cassandra,
            params: if tiny {
                params(256, 100 * MS, 5, seed)
            } else {
                params(8, 500 * MS, 5, seed)
            },
            fabric: Some(FabricConfig {
                enabled: true,
                link_bandwidth_bytes_per_sec: 128_000_000,
                ..FabricConfig::default()
            }),
            warmup_ns: if tiny { 200 * MS } else { SEC },
            measure_ns: if tiny { 300 * MS } else { 4 * SEC },
        }),
        // The 32-tenant storm on one discrete-event timeline over an
        // arbitrated pool: the only user of the scheduler and arbiter.
        WorkloadId::StormCosched => Plan::Storm(ScenarioPlan {
            spec: library::storm(),
            params: params(SCENARIO_SCALE, 0, 95, seed),
            warmup_ns: if tiny { HOUR } else { 8 * HOUR },
            duration_ns: if tiny { 3 * HOUR } else { 60 * HOUR },
        }),
        // 256 fleet tenants x 4 policies = 1024 shards on the executor
        // pool: the only user of thermo-exec and per-tenant construction
        // at scale.
        WorkloadId::FleetSharded => Plan::Fleet(ScenarioPlan {
            spec: library::fleet(),
            params: params(SCENARIO_SCALE, 0, 95, seed),
            warmup_ns: 0,
            duration_ns: if tiny { HOUR / 2 } else { 8 * HOUR },
        }),
    }
}

// ---------------------------------------------------------------------
// The policy matrix shared by the scenario workloads
// ---------------------------------------------------------------------

/// Policy sampling/sweep period of scenario tenants: half a scenario hour.
const SCEN_PERIOD_NS: u64 = HOUR / 2;

/// The scenario policy matrix, in tenant order (`i % 4`) and shard-block
/// order (fleet).
pub const POLICY_NAMES: [&str; 4] = ["thermostat", "kstaled", "clock", "damon"];

/// A concrete policy, so its statistics stay readable after a run.
#[derive(Debug)]
pub enum AnyPolicy {
    Thermostat(Box<Daemon>),
    Kstaled(Kstaled),
    Clock(ClockPolicy),
    Damon(Damon),
}

impl AnyPolicy {
    /// Policy `which` (index into [`POLICY_NAMES`]) for a tenant with SLO
    /// `slo_pct` and stream seed `seed`, configured as the scenario
    /// experiments configure it.
    pub fn scenario(which: usize, slo_pct: f64, seed: u64) -> Self {
        match which % POLICY_NAMES.len() {
            0 => AnyPolicy::Thermostat(Box::new(Daemon::with_scan_workers(
                ThermostatConfig {
                    tolerable_slowdown_pct: slo_pct,
                    sampling_period_ns: SCEN_PERIOD_NS,
                    seed: seed ^ 0xdaeb,
                    ..ThermostatConfig::paper_defaults()
                },
                SCAN_WORKERS,
            ))),
            1 => AnyPolicy::Kstaled(Kstaled::with_scan_workers(
                KstaledConfig {
                    scan_period_ns: SCEN_PERIOD_NS,
                },
                SCAN_WORKERS,
            )),
            2 => AnyPolicy::Clock(ClockPolicy::with_scan_workers(
                ClockConfig {
                    sweep_period_ns: SCEN_PERIOD_NS,
                    fast_target_fraction: 0.6,
                },
                SCAN_WORKERS,
            )),
            _ => AnyPolicy::Damon(Damon::with_scan_workers(
                DamonConfig {
                    sample_interval_ns: SCEN_PERIOD_NS / 20,
                    samples_per_aggregation: 10,
                    ..DamonConfig::default()
                },
                SCAN_WORKERS,
            )),
        }
    }

    pub fn hook(&mut self) -> &mut dyn PolicyHook {
        match self {
            AnyPolicy::Thermostat(p) => p.as_mut(),
            AnyPolicy::Kstaled(p) => p,
            AnyPolicy::Clock(p) => p,
            AnyPolicy::Damon(p) => p,
        }
    }

    pub fn hook_ref(&self) -> &dyn PolicyHook {
        match self {
            AnyPolicy::Thermostat(p) => p.as_ref(),
            AnyPolicy::Kstaled(p) => p,
            AnyPolicy::Clock(p) => p,
            AnyPolicy::Damon(p) => p,
        }
    }

    /// The policy's own counters, as text for the run digest.
    pub fn stats_text(&self) -> String {
        match self {
            AnyPolicy::Thermostat(p) => format!("thermostat {:?}", p.stats()),
            AnyPolicy::Kstaled(p) => format!("kstaled scans={}", p.scans()),
            AnyPolicy::Clock(p) => format!("clock {:?}", p.stats()),
            AnyPolicy::Damon(p) => format!("damon {:?}", p.stats()),
        }
    }

    pub fn daemon_stats(&self) -> Option<DaemonStats> {
        match self {
            AnyPolicy::Thermostat(p) => Some(p.stats()),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Scenario tenants
// ---------------------------------------------------------------------

/// One tenant as the runners' `build` closures return it, with its policy
/// still concrete.
pub struct Tenant {
    pub engine: Engine,
    pub workload: Box<dyn Workload>,
    pub policy: AnyPolicy,
}

/// A compiled scenario plus everything its tenant builder needs.
pub struct ScenarioInputs {
    pub compiled: CompiledScenario,
    pub params: EvalParams,
    /// The storm's shared pool, bytes (0 for the fleet).
    pub pool_bytes: u64,
}

fn tenant_bound(c: &CompiledScenario, tenant: u64, p: &EvalParams) -> u64 {
    let fp = c.declared_footprint(tenant, p.scale);
    fp.anon_bytes + fp.file_bytes
}

/// A storm tenant's starting grant: antagonists start bloated at twice
/// their bound, everyone else squeezed to three quarters, so the arbiter
/// must reclaim from antagonists to fund growth and spikes.
fn storm_grant(group: &str, bound: u64) -> u64 {
    if group == "antagonist" {
        bound * 2
    } else {
        bound * 3 / 4
    }
}

impl ScenarioInputs {
    /// Compiles `plan.spec`.
    ///
    /// # Panics
    ///
    /// Panics when the library spec fails to compile (a bug in the
    /// scenario library, not an input error).
    pub fn compile(plan: &ScenarioPlan, storm: bool) -> Self {
        let compiled = compile(&plan.spec).expect("library scenario compiles");
        let p = plan.params;
        // The storm pool is exactly the sum of the initial grants, so every
        // grant the arbiter issues must be funded by a reclaim.
        let pool_bytes = if storm {
            (0..compiled.n_tenants() as u64)
                .map(|t| {
                    let group = &compiled.tenants()[t as usize].group;
                    storm_grant(group, tenant_bound(&compiled, t, &p))
                })
                .sum()
        } else {
            0
        };
        Self {
            compiled,
            params: p,
            pool_bytes,
        }
    }

    /// The trap-fault latency every tenant's engine charges, ns (the
    /// §4.3 slowdown estimate's fault cost).
    pub fn fault_ns(&self) -> u64 {
        self.params.sim_config_sized(0).trap.fault_latency_ns
    }

    /// Storm tenant `t`: private slow tier, the shared arbitrated fast
    /// pool, fabric on, and policy `t % 4`.
    pub fn storm_tenant(&self, t: u64) -> Tenant {
        let c = &self.compiled;
        let p = &self.params;
        let spec = &c.tenants()[t as usize];
        let seed = c.tenant_seed(p.seed, t);
        let bound = tenant_bound(c, t, p);
        let mut cfg = p.sim_config_sized(bound);
        cfg.fast = TierParams::dram(self.pool_bytes);
        cfg.slow = TierParams::slow_1us(bound + (32 << 20));
        cfg.fabric.enabled = true;
        cfg.sched.coscheduled = true;
        cfg.sched.shared_pool_bytes = self.pool_bytes;
        cfg.sched.initial_grant_bytes = storm_grant(&spec.group, bound);
        cfg.sched.slo_pct = spec.slo_pct;
        cfg.sched.report_period_ns = SCEN_PERIOD_NS / 2;
        cfg.sched.rebalance_period_ns = SCEN_PERIOD_NS;
        cfg.sched.grant_quantum_bytes = 512 << 10;
        Tenant {
            engine: Engine::new(cfg),
            workload: c.build_workload(t, seed, p.scale),
            policy: AnyPolicy::scenario(t as usize, spec.slo_pct, seed),
        }
    }

    /// Fleet shards: every tenant once under each policy.
    pub fn fleet_shards(&self) -> usize {
        POLICY_NAMES.len() * self.compiled.n_tenants()
    }

    /// Fleet shard `shard`: tenant `shard % n` under policy `shard / n`,
    /// with a tight private fast slice so the policies have to choose.
    /// The tenant's stream seed comes from the scenario, not the pool, so
    /// one tenant replays the same stream under all four policies.
    pub fn fleet_tenant(&self, shard: u64) -> Tenant {
        let c = &self.compiled;
        let p = &self.params;
        let n = c.n_tenants() as u64;
        let tenant = shard % n;
        let seed = c.tenant_seed(p.seed, tenant);
        let bound = tenant_bound(c, tenant, p);
        let mut cfg = p.sim_config_sized(bound);
        cfg.fast = TierParams::dram(bound + bound / 8 + (2 << 20));
        cfg.slow = TierParams::slow_1us(bound + (16 << 20));
        Tenant {
            engine: Engine::new(cfg),
            workload: c.build_workload(tenant, seed, p.scale),
            policy: AnyPolicy::scenario(
                (shard / n) as usize,
                c.tenants()[tenant as usize].slo_pct,
                seed,
            ),
        }
    }
}
