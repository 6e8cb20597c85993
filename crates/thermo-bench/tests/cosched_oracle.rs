//! Differential oracle for the co-scheduled runner (DESIGN.md §13).
//!
//! `reference` below is the runner's contract with no windows and no
//! heap: one global loop that, at every step, scans every live component
//! of every tenant, plus the arbiter, for the smallest
//! `(time, class, component id)` key and runs it. Random cases drive it
//! and `run_tenants_coscheduled` over the same tenants; the encoded
//! outcomes (shards, pressure counters, arbiter trace) must be equal, or
//! both runs must fail with the same `SchedError`.
//!
//! Cases vary the tenant count (1–6 tenants drawn from every `library`
//! group, tenant `i` on policy `i % 4`), arbitration and the migration
//! fabric on and off, and the report and rebalance periods over
//! 0.1–2 ms — often equal, and with tenant starts padded to a multiple
//! of the rebalance period, so reporter ticks land on arbiter ticks —
//! may poison one tenant's policy at a random tick, and may fuzz the
//! order in which the runner advances tenants through each window.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use thermo_bench::EvalParams;
use thermo_kstaled::{ClockConfig, ClockPolicy, Damon, DamonConfig, Kstaled, KstaledConfig};
use thermo_mem::{Tier, TierParams};
use thermo_scenario::{compile, library, CompiledScenario};
use thermo_sim::sched::GROUP_GLOBAL;
use thermo_sim::{
    run_tenants_coscheduled, Access, Arbiter, ArbiterConfig, ArbiterEvent, CoSchedOutcome,
    DecisionKind, Engine, EngineStats, FootprintInfo, PolicyHook, RunOutcome, SchedError,
    ShardOutcome, TenantReport, Workload,
};
use thermo_util::forall;
use thermo_util::json::encode;
use thermo_util::proptest_lite::{any, range};
use thermostat::{Daemon, ThermostatConfig};

const MS: u64 = 1_000_000;

/// Footprint divisor of app-kind tenants (phased ones declare bytes).
const SCALE: u64 = 4096;

/// Storm tenants covering every library group, in draw order: diurnal,
/// flash crowd, memtable storm, failover, antagonist, diurnal.
const STORM_TENANTS: [u64; 6] = [0, 10, 18, 26, 30, 1];

const CLASS_ARBITER: u8 = 0;
const CLASS_REPORTER: u8 = 1;
const CLASS_DAEMON: u8 = 2;
const CLASS_PUMP: u8 = 3;
const CLASS_APP: u8 = 4;

/// One generated case.
#[derive(Debug, Clone, Copy)]
struct Case {
    n_tenants: usize,
    shared: bool,
    fabric: bool,
    report_period_ns: u64,
    rebalance_period_ns: u64,
    /// `(tenant, tick)`: that tenant's policy panics on its `tick`-th tick.
    poison: Option<(usize, u32)>,
    /// The runner's tenant-order fuzz seed.
    fuzz: Option<u64>,
}

fn policy(which: usize, slo_pct: f64, seed: u64) -> Box<dyn PolicyHook> {
    let period = MS / 2;
    match which {
        0 => Box::new(Daemon::new(ThermostatConfig {
            tolerable_slowdown_pct: slo_pct,
            sampling_period_ns: period,
            seed: seed ^ 0xdaeb,
            ..ThermostatConfig::paper_defaults()
        })),
        1 => Box::new(Kstaled::new(KstaledConfig {
            scan_period_ns: period,
        })),
        2 => Box::new(ClockPolicy::new(ClockConfig {
            sweep_period_ns: period,
            fast_target_fraction: 0.6,
        })),
        _ => Box::new(Damon::new(DamonConfig {
            sample_interval_ns: period / 10,
            samples_per_aggregation: 10,
            ..DamonConfig::default()
        })),
    }
}

/// Ends `init` on a multiple of `align_ns` of virtual time, so the
/// tenant's reporter ticks (start + k × period) can land exactly on
/// arbiter ticks, and its first op on policy ticks.
struct Aligned {
    inner: Box<dyn Workload>,
    align_ns: u64,
}

impl Workload for Aligned {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, engine: &mut Engine) {
        self.inner.init(engine);
        let now = engine.now_ns();
        engine.advance_compute(now.next_multiple_of(self.align_ns) - now);
    }

    fn next_op(&mut self, now_ns: u64, accesses: &mut Vec<Access>) -> Option<u64> {
        self.inner.next_op(now_ns, accesses)
    }

    fn footprint(&self) -> FootprintInfo {
        self.inner.footprint()
    }
}

/// A policy that panics on its `fail_at`-th tick.
struct Poisoned {
    inner: Box<dyn PolicyHook>,
    fail_at: u32,
    ticks: u32,
}

impl PolicyHook for Poisoned {
    fn next_due_ns(&self) -> u64 {
        self.inner.next_due_ns()
    }

    fn tick(&mut self, engine: &mut Engine) {
        self.ticks += 1;
        assert!(
            self.ticks < self.fail_at,
            "injected fault at tick {}",
            self.ticks
        );
        self.inner.tick(engine);
    }

    fn policy_name(&self) -> &str {
        self.inner.policy_name()
    }
}

fn bound(c: &CompiledScenario, tenant: u64) -> u64 {
    let fp = c.declared_footprint(tenant, SCALE);
    fp.anon_bytes + fp.file_bytes
}

fn grant(c: &CompiledScenario, tenant: u64) -> u64 {
    if c.tenants()[tenant as usize].group == "antagonist" {
        bound(c, tenant) * 2
    } else {
        bound(c, tenant) * 3 / 4
    }
}

/// Builds shard `t` of `case` (storm tenant `STORM_TENANTS[t]`).
fn build(
    c: &CompiledScenario,
    case: &Case,
    pool: u64,
    t: u64,
) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
    let tenant = STORM_TENANTS[t as usize];
    let spec = &c.tenants()[tenant as usize];
    let seed = c.tenant_seed(0x0c5e, tenant);
    let b = bound(c, tenant);
    let mut cfg = EvalParams::smoke().sim_config_sized(b);
    cfg.fast = TierParams::dram(pool);
    cfg.slow = TierParams::slow_1us(b + (32 << 20));
    cfg.fabric.enabled = case.fabric;
    cfg.sched.coscheduled = true;
    cfg.sched.shared_pool_bytes = if case.shared { pool } else { 0 };
    cfg.sched.initial_grant_bytes = grant(c, tenant);
    cfg.sched.slo_pct = spec.slo_pct;
    cfg.sched.report_period_ns = case.report_period_ns;
    cfg.sched.rebalance_period_ns = case.rebalance_period_ns;
    cfg.sched.grant_quantum_bytes = 512 << 10;
    let mut p = policy(t as usize % 4, spec.slo_pct, seed);
    if let Some((victim, fail_at)) = case.poison {
        if victim == t as usize {
            p = Box::new(Poisoned {
                inner: p,
                fail_at,
                ticks: 0,
            });
        }
    }
    let workload = Box::new(Aligned {
        inner: c.build_workload(tenant, seed, SCALE),
        align_ns: case.rebalance_period_ns,
    });
    (Engine::new(cfg), workload, p)
}

// ---------------------------------------------------------------------
// The reference: one global loop, no heap, no windows
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Daemon,
    Reporter,
    Pump,
    App,
}

struct Comp {
    id: u32,
    kind: Kind,
    /// Next tick of a reporter or pump.
    next_ns: u64,
    parked: bool,
}

struct RefTenant {
    engine: Engine,
    workload: Box<dyn Workload>,
    policy: Box<dyn PolicyHook>,
    seed: u64,
    start_ns: u64,
    deadline_ns: u64,
    period_ns: u64,
    prev: EngineStats,
    ops: u64,
    /// Registration order: daemon, [reporter, [pump]], app.
    comps: Vec<Comp>,
}

impl RefTenant {
    fn key(&self, c: &Comp) -> (u64, u8) {
        match c.kind {
            Kind::Daemon => (self.policy.next_due_ns(), CLASS_DAEMON),
            Kind::Reporter => (c.next_ns, CLASS_REPORTER),
            Kind::Pump => (c.next_ns, CLASS_PUMP),
            Kind::App => (self.engine.now_ns(), CLASS_APP),
        }
    }

    fn label(&self, tenant: usize, kind: Kind) -> String {
        match kind {
            Kind::Daemon => format!("daemon:{}", self.policy.policy_name()),
            Kind::Reporter => format!("reporter:{tenant}"),
            Kind::Pump => "fabric-pump".into(),
            Kind::App => format!("app:{}", self.workload.name()),
        }
    }

    fn live(&self) -> bool {
        self.comps.iter().any(|c| c.kind == Kind::App && !c.parked)
    }

    fn park_all(&mut self) {
        for c in &mut self.comps {
            c.parked = true;
        }
    }

    /// Runs component `k`; reporters post into `mailbox`.
    fn run(&mut self, k: usize, tenant: u32, mailbox: &mut BTreeMap<u32, TenantReport>) {
        match self.comps[k].kind {
            Kind::App => {
                let now = self.engine.now_ns();
                let mut accesses = Vec::new();
                let op = if now >= self.deadline_ns {
                    None
                } else {
                    self.workload.next_op(now, &mut accesses)
                };
                let Some(compute_ns) = op else {
                    self.park_all();
                    return;
                };
                for a in &accesses {
                    self.engine.access(a.va, a.write);
                }
                self.engine.advance_compute(compute_ns);
                self.ops += 1;
            }
            Kind::Daemon => {
                if self.engine.now_ns() >= self.deadline_ns {
                    self.comps[k].parked = true;
                } else {
                    self.policy.tick(&mut self.engine);
                }
            }
            Kind::Reporter => {
                let e = &self.engine;
                let stats = e.stats();
                let report = TenantReport {
                    slowdown_pct: stats
                        .estimated_slowdown_pct(&self.prev, e.config().trap.fault_latency_ns),
                    used_fast_bytes: e.used_bytes(Tier::Fast),
                    cold_fast_bytes: e.fast_idle_bytes(),
                    reserved_bytes: e.fabric().in_flight_bytes(),
                    displaced_bytes: e.displaced_bytes(),
                    fabric_congested: e.fabric().busy(),
                };
                self.prev = stats;
                mailbox.insert(tenant, report);
                self.comps[k].next_ns += self.period_ns;
            }
            Kind::Pump => {
                self.engine.pump_fabric();
                self.comps[k].next_ns += self.period_ns;
            }
        }
    }
}

struct RefArbiter {
    arbiter: Arbiter,
    id: u32,
    next_ns: u64,
    period_ns: u64,
    parked: bool,
}

impl RefArbiter {
    fn run(
        &mut self,
        tenants: &mut [RefTenant],
        mailbox: &mut BTreeMap<u32, TenantReport>,
        trace: &mut Vec<ArbiterEvent>,
    ) {
        let mut slowdowns = BTreeMap::new();
        for (&t, report) in mailbox.iter() {
            self.arbiter.report(t, *report);
            slowdowns.insert(t, report.slowdown_pct);
        }
        mailbox.clear();
        for d in self.arbiter.rebalance() {
            let engine = &mut tenants[d.tenant as usize].engine;
            let action = match d.kind {
                DecisionKind::Reclaim => {
                    engine.reclaim_fast_cold(d.bytes);
                    engine.set_fast_cap_bytes(Some(d.grant_after));
                    "reclaim"
                }
                DecisionKind::Grant => {
                    engine.set_fast_cap_bytes(Some(d.grant_after));
                    engine.promote_displaced(d.bytes);
                    "grant"
                }
                DecisionKind::Defer => "defer",
            };
            let slowdown = slowdowns.get(&d.tenant).copied().unwrap_or(0.0);
            trace.push(ArbiterEvent {
                at_ns: self.next_ns,
                tenant: u64::from(d.tenant),
                action: action.to_string(),
                bytes: d.bytes,
                grant_after_bytes: d.grant_after,
                slowdown_centi_pct: (slowdown * 100.0) as u64,
            });
        }
        self.next_ns += self.period_ns;
    }
}

fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Who owns the smallest key of a step.
#[derive(Clone, Copy)]
enum Who {
    Tenant(usize, usize),
    Arbiter,
}

fn reference<F>(n: usize, duration_ns: u64, build: F) -> Result<CoSchedOutcome, SchedError>
where
    F: Fn(u64) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>),
{
    let mut tenants = Vec::new();
    let mut arbiter: Option<RefArbiter> = None;
    let mut next_id = 0u32;
    let mut id = || {
        next_id += 1;
        next_id - 1
    };
    let mut pool = None;
    for t in 0..n {
        let (mut engine, mut workload, policy) = build(t as u64);
        let cfg = engine.config().sched;
        let pool = *pool.get_or_insert(cfg);
        let shared = pool.shared_pool_bytes > 0;
        if shared {
            engine.set_fast_cap_bytes(Some(cfg.initial_grant_bytes));
            arbiter
                .get_or_insert_with(|| RefArbiter {
                    arbiter: Arbiter::new(ArbiterConfig {
                        pool_bytes: pool.shared_pool_bytes,
                        grant_quantum_bytes: pool.grant_quantum_bytes,
                        max_defer_rounds: pool.max_defer_rounds,
                    }),
                    id: 0,
                    next_ns: pool.rebalance_period_ns,
                    period_ns: pool.rebalance_period_ns,
                    parked: false,
                })
                .arbiter
                .register(t as u32, cfg.initial_grant_bytes, cfg.slo_pct);
        }
        workload.init(&mut engine);
        let start_ns = engine.now_ns();
        let first = start_ns + cfg.report_period_ns;
        let comp = |id, kind| Comp {
            id,
            kind,
            next_ns: first,
            parked: false,
        };
        let mut comps = vec![comp(id(), Kind::Daemon)];
        if shared {
            comps.push(comp(id(), Kind::Reporter));
            if engine.config().fabric.enabled {
                comps.push(comp(id(), Kind::Pump));
            }
        }
        comps.push(comp(id(), Kind::App));
        tenants.push(RefTenant {
            seed: thermo_util::rng::derive_stream_seed(0, t as u64),
            start_ns,
            deadline_ns: start_ns.saturating_add(duration_ns),
            period_ns: cfg.report_period_ns,
            prev: engine.stats(),
            ops: 0,
            comps,
            engine,
            workload,
            policy,
        });
    }
    if let Some(a) = &mut arbiter {
        a.id = id();
    }

    let mut mailbox = BTreeMap::new();
    let mut trace = Vec::new();
    let mut panics: Vec<SchedError> = Vec::new();
    while tenants.iter().any(RefTenant::live) {
        let mut best: Option<((u64, u8, u32), Who)> = None;
        let mut consider = |key: (u64, u8, u32), who: Who| {
            if key.0 != u64::MAX && best.is_none_or(|(b, _)| key < b) {
                best = Some((key, who));
            }
        };
        for (t, tenant) in tenants.iter().enumerate() {
            for (k, c) in tenant.comps.iter().enumerate() {
                if !c.parked {
                    let (time, class) = tenant.key(c);
                    consider((time, class, c.id), Who::Tenant(t, k));
                }
            }
        }
        if let Some(a) = arbiter.as_ref().filter(|a| !a.parked) {
            consider((a.next_ns, CLASS_ARBITER, a.id), Who::Arbiter);
        }
        let Some((_, who)) = best else {
            break;
        };
        match who {
            Who::Tenant(t, k) => {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    tenants[t].run(k, t as u32, &mut mailbox);
                }));
                if let Err(payload) = result {
                    let tenant = &mut tenants[t];
                    panics.push(SchedError::ComponentPanicked {
                        component_id: tenant.comps[k].id,
                        group: t as u32,
                        label: tenant.label(t, tenant.comps[k].kind),
                        message: message(payload),
                    });
                    tenant.park_all();
                }
            }
            Who::Arbiter => {
                let a = arbiter.as_mut().expect("arbiter picked");
                let result = catch_unwind(AssertUnwindSafe(|| {
                    a.run(&mut tenants, &mut mailbox, &mut trace);
                }));
                if let Err(payload) = result {
                    panics.push(SchedError::ComponentPanicked {
                        component_id: a.id,
                        group: GROUP_GLOBAL,
                        label: "arbiter".into(),
                        message: message(payload),
                    });
                    a.parked = true;
                }
            }
        }
    }

    if let Some(e) = panics.into_iter().min_by_key(|e| {
        let SchedError::ComponentPanicked { component_id, .. } = e;
        *component_id
    }) {
        return Err(e);
    }
    Ok(CoSchedOutcome {
        shards: tenants
            .iter()
            .enumerate()
            .map(|(t, r)| ShardOutcome {
                shard_id: t as u64,
                seed: r.seed,
                outcome: RunOutcome {
                    ops: r.ops,
                    start_ns: r.start_ns,
                    end_ns: r.engine.now_ns(),
                },
                stats: r.engine.stats(),
                breakdown: r.engine.footprint_breakdown(),
            })
            .collect(),
        pressure: tenants.iter().map(|r| r.engine.pressure_stats()).collect(),
        trace,
    })
}

fn encoded(out: &Result<CoSchedOutcome, SchedError>) -> Result<[String; 3], SchedError> {
    match out {
        Ok(o) => Ok([encode(&o.shards), encode(&o.pressure), encode(&o.trace)]),
        Err(e) => Err(e.clone()),
    }
}

#[test]
fn runner_matches_the_naive_global_event_loop() {
    let c = compile(&library::storm()).expect("library storm compiles");
    forall!(cases = 64,
        (shape in (range(1usize..7), range(0u8..4))),
        (periods in (range(1u64..21), range(1u64..21), any::<bool>())),
        (run in (range(2u64..9), range(0u64..3))),
        (poison in (range(0u32..4), range(0usize..6), range(1u32..6))) => {
        let (n_tenants, flags) = shape;
        let (report, rebalance, equal) = periods;
        let (duration_ms, fuzz) = run;
        let case = Case {
            n_tenants,
            shared: flags & 1 != 0,
            fabric: flags & 2 != 0,
            report_period_ns: report * MS / 10,
            rebalance_period_ns: if equal { report } else { rebalance } * MS / 10,
            // One case in four poisons a tenant's policy.
            poison: (poison.0 == 0).then_some((poison.1 % n_tenants, poison.2)),
            fuzz: (fuzz > 0).then_some(fuzz),
        };
        let duration_ns = duration_ms * MS;
        // The pool is exactly the sum of the initial grants, as in the
        // storm: every grant must be funded by a reclaim.
        let n = case.n_tenants;
        let pool: u64 = STORM_TENANTS[..n].iter().map(|&t| grant(&c, t)).sum();
        let build = |t: u64| build(&c, &case, pool, t);
        let got = run_tenants_coscheduled(n, duration_ns, 0, case.fuzz, |t, _| build(t));
        let want = reference(n, duration_ns, build);
        assert_eq!(encoded(&got), encoded(&want), "{case:?}");
    });
}
