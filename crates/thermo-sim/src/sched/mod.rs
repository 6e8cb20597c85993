//! The co-scheduled multi-tenant engine (DESIGN.md §13).
//!
//! Every tenant runs on its own `Timeline`: one engine plus the four
//! kinds of events that act on it — slowdown reporter, policy daemon,
//! migration-fabric pump and application op — executed in
//! `(time, class)` order with the fixed phase priority
//! reporter < daemon < pump < app. Tenants share state only through the
//! fast-tier [`Arbiter`], whose ticks split virtual time into windows:
//! [`run_tenants_coscheduled`] advances every live tenant through the
//! window up to (excluding) the next arbiter tick `S`, applies the
//! arbiter at `S`, and repeats.
//!
//! This is exactly one global event order keyed `(time, class,
//! component_id)` with the arbiter in class 0: the arbiter runs after
//! every tenant event before `S` and before every event at or after `S`,
//! and keys never decrease (engine clocks only advance), so running each
//! tenant's smallest current key is what a global min-heap would pop.
//! Two properties are load-bearing and tested:
//!
//! * **Charge-neutrality** — with arbitration off there is one unbounded
//!   window, and a timeline is `run_for`'s loop: a due policy fires
//!   before the app op at equal times, and a daemon whose tenant is past
//!   its deadline parks without firing
//!   (`thermo-bench/tests/sched_equivalence.rs`).
//! * **Order-independence within a window** — tenants own disjoint
//!   engines, so the order in which they advance is unobservable.
//!   `THERMO_SCHED_FUZZ=<seed>` permutes it per window under a seeded
//!   RNG; `thermo-bench/tests/sched_fuzz.rs` asserts artifacts are
//!   invariant, and `thermo-bench/tests/cosched_oracle.rs` checks the
//!   windows against a naive global event loop.

mod decide;

use crate::arbiter::{Arbiter, ArbiterConfig, ArbiterEvent, DecisionKind, TenantReport};
use crate::engine::{Engine, PressureStats};
use crate::runner::{PolicyHook, RunOutcome, ShardOutcome};
use crate::stats::EngineStats;
use crate::workload::{Access, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use thermo_util::rng::{SeedableRng, SmallRng};

/// Group id used by components outside any tenant (the arbiter).
pub const GROUP_GLOBAL: u32 = u32::MAX;

/// Co-scheduled run failure: a component panicked mid-event.
///
/// Mirrors `thermo_exec::ExecError`'s contract: the run drains cleanly
/// (the poisoned tenant stops, every other tenant runs to completion)
/// and the **lowest** panicking component id is reported. Component ids
/// count in registration order: per tenant its daemon, reporter (shared
/// mode), fabric pump (shared mode with the fabric on) and app, then the
/// arbiter last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// A component's event panicked.
    ComponentPanicked {
        /// Id of the panicking component (lowest, if several panicked).
        component_id: u32,
        /// Group (tenant) the component belonged to.
        group: u32,
        /// The component's label.
        label: String,
        /// The captured panic message.
        message: String,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ComponentPanicked {
                component_id,
                group,
                label,
                message,
            } => write!(
                f,
                "component {component_id} ({label}, group {group}) panicked: {message}"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

/// Reads the tenant-order fuzz seed from `THERMO_SCHED_FUZZ` (unset = no
/// fuzzing, the production configuration).
///
/// # Panics
///
/// Panics when the variable is set but is not a seed (see
/// [`thermo_util::rng::parse_seed`]).
pub fn fuzz_seed_from_env() -> Option<u64> {
    thermo_util::rng::seed_from_env("THERMO_SCHED_FUZZ")
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

// ---------------------------------------------------------------------
// Co-scheduled multi-tenant configuration
// ---------------------------------------------------------------------

/// Per-tenant knobs for the co-scheduled path, carried in
/// [`crate::config::SimConfig::sched`]. Everything defaults off: the
/// sharded path runs and all pre-existing goldens are byte-identical.
///
/// Pool-global fields (`shared_pool_bytes`, `rebalance_period_ns`,
/// `grant_quantum_bytes`, `max_defer_rounds`) are read from **tenant
/// 0's** config; per-tenant fields (`initial_grant_bytes`, `slo_pct`,
/// `report_period_ns`) from each tenant's own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Route `run_tenants_sharded` through [`run_tenants_coscheduled`].
    pub coscheduled: bool,
    /// Size of the shared fast-tier pool arbitrated across tenants;
    /// 0 = arbitration off (fixed budgets, the charge-neutral mode).
    pub shared_pool_bytes: u64,
    /// This tenant's starting capacity grant (shared mode only).
    pub initial_grant_bytes: u64,
    /// This tenant's tolerable-slowdown SLO, percent (§4.3).
    pub slo_pct: f64,
    /// Period between this tenant's slowdown reports, ns.
    pub report_period_ns: u64,
    /// Period between arbiter rebalances, ns.
    pub rebalance_period_ns: u64,
    /// Bytes moved per grant decision.
    pub grant_quantum_bytes: u64,
    /// Rebalance rounds a grant may be deferred for fabric congestion.
    pub max_defer_rounds: u32,
}

impl Default for SchedConfig {
    fn default() -> Self {
        Self {
            coscheduled: false,
            shared_pool_bytes: 0,
            initial_grant_bytes: 0,
            slo_pct: 3.0,
            report_period_ns: 50_000_000,
            rebalance_period_ns: 100_000_000,
            grant_quantum_bytes: 8 << 20,
            max_defer_rounds: 3,
        }
    }
}

thermo_util::json_struct!(SchedConfig {
    coscheduled,
    shared_pool_bytes,
    initial_grant_bytes,
    slo_pct,
    report_period_ns,
    rebalance_period_ns,
    grant_quantum_bytes,
    max_defer_rounds,
});

// ---------------------------------------------------------------------
// Tenant timelines
// ---------------------------------------------------------------------

/// A tenant's event kinds, in phase order at equal virtual times.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// Samples the engine's slowdown for the arbiter (shared mode only).
    Reporter,
    /// Fires the policy at `next_due_ns`, as `run_for` does.
    Daemon,
    /// Drains in-flight fabric copies during compute gaps (shared mode
    /// with the fabric on).
    Pump,
    /// One application op; last at a given instant.
    App,
}

/// One tenant: its engine, workload and policy, and the next time of
/// each of its periodic events (`u64::MAX` = never).
struct Timeline {
    engine: Engine,
    workload: Box<dyn Workload>,
    policy: Box<dyn PolicyHook>,
    tenant: u32,
    seed: u64,
    start_ns: u64,
    deadline_ns: u64,
    /// `policy.next_due_ns()`, cached as in `run_for` (it only moves in
    /// `tick`); `u64::MAX` once the daemon parks past the deadline.
    due_ns: u64,
    /// Next slowdown report.
    report_ns: u64,
    /// Next fabric pump.
    pump_ns: u64,
    /// Period of both reports and pumps.
    period_ns: u64,
    /// Engine counters at the previous report.
    prev: EngineStats,
    /// The latest report, taken by the next arbiter tick.
    report: Option<TenantReport>,
    ops: u64,
    accesses: Vec<Access>,
    /// The app has neither finished nor panicked.
    live: bool,
    /// Component ids of the daemon (the tenant's first) and the app (its
    /// last); the reporter and the pump sit in between.
    daemon_id: u32,
    app_id: u32,
    /// The event in progress, to attribute a panic.
    running: Role,
}

impl Timeline {
    /// Runs this tenant's events in `(time, class)` order until the next
    /// one is at or after `horizon`, or the tenant finishes.
    fn advance(&mut self, horizon: u64) {
        while self.live {
            let periodic = self.report_ns.min(self.due_ns).min(self.pump_ns);
            // The app's event `(now, APP)` precedes every periodic event
            // `(t, class < APP)` exactly while `now < t`.
            self.running = Role::App;
            let limit = periodic.min(horizon);
            while self.engine.now_ns() < limit {
                if !self.app_op() {
                    return;
                }
            }
            if periodic >= horizon {
                return;
            }
            if self.report_ns == periodic {
                self.running = Role::Reporter;
                self.post_report();
            } else if self.due_ns == periodic {
                self.running = Role::Daemon;
                if self.engine.now_ns() >= self.deadline_ns {
                    // run_for exits its loop before firing a policy due at
                    // or past the deadline; park instead of ticking.
                    self.due_ns = u64::MAX;
                } else {
                    self.policy.tick(&mut self.engine);
                    self.due_ns = self.policy.next_due_ns();
                }
            } else {
                self.running = Role::Pump;
                self.engine.pump_fabric();
                self.pump_ns += self.period_ns;
            }
        }
    }

    /// One iteration of `run_for`'s op loop; false once the tenant
    /// finishes (deadline reached or workload exhausted).
    fn app_op(&mut self) -> bool {
        let now = self.engine.now_ns();
        if now >= self.deadline_ns {
            self.live = false;
            return false;
        }
        self.accesses.clear();
        let Some(compute_ns) = self.workload.next_op(now, &mut self.accesses) else {
            self.live = false;
            return false;
        };
        for a in &self.accesses {
            self.engine.access(a.va, a.write);
        }
        self.engine.advance_compute(compute_ns);
        self.ops += 1;
        true
    }

    /// Estimates the slowdown since the previous report from engine
    /// counter deltas (the paper's §4.3 machinery).
    fn post_report(&mut self) {
        let engine = &self.engine;
        let stats = engine.stats();
        self.report = Some(TenantReport {
            slowdown_pct: stats
                .estimated_slowdown_pct(&self.prev, engine.config().trap.fault_latency_ns),
            used_fast_bytes: engine.used_bytes(thermo_mem::Tier::Fast),
            cold_fast_bytes: engine.fast_idle_bytes(),
            reserved_bytes: engine.fabric().in_flight_bytes(),
            displaced_bytes: engine.displaced_bytes(),
            fabric_congested: engine.fabric().busy(),
        });
        self.prev = stats;
        self.report_ns += self.period_ns;
    }

    /// Id and label of the component running `self.running`.
    fn running_component(&self) -> (u32, String) {
        match self.running {
            Role::Daemon => (
                self.daemon_id,
                format!("daemon:{}", self.policy.policy_name()),
            ),
            Role::Reporter => (self.daemon_id + 1, format!("reporter:{}", self.tenant)),
            Role::Pump => (self.app_id - 1, "fabric-pump".into()),
            Role::App => (self.app_id, format!("app:{}", self.workload.name())),
        }
    }
}

/// The arbiter and its tick schedule.
struct Arbitration {
    arbiter: Arbiter,
    next_ns: u64,
    period_ns: u64,
    /// Component id (after every tenant's).
    id: u32,
}

impl Arbitration {
    /// One rebalance at `self.next_ns`: hands the arbiter every report
    /// posted since the previous tick (in tenant order) and applies its
    /// decisions to the tenant engines, finished tenants included.
    fn tick(&mut self, tenants: &mut [Timeline], trace: &mut Vec<ArbiterEvent>) {
        let mut slowdowns = vec![0.0f64; tenants.len()];
        for tl in tenants.iter_mut() {
            if let Some(report) = tl.report.take() {
                self.arbiter.report(tl.tenant, report);
                slowdowns[tl.tenant as usize] = report.slowdown_pct;
            }
        }
        for d in self.arbiter.rebalance() {
            let engine = &mut tenants[d.tenant as usize].engine;
            let action = match d.kind {
                DecisionKind::Reclaim => {
                    // Demote cold capacity first, then lower the cap; the
                    // engine skips pages a fabric transaction holds.
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
            trace.push(ArbiterEvent {
                at_ns: self.next_ns,
                tenant: u64::from(d.tenant),
                action: action.to_string(),
                bytes: d.bytes,
                grant_after_bytes: d.grant_after,
                slowdown_centi_pct: (slowdowns[d.tenant as usize] * 100.0) as u64,
            });
        }
        self.next_ns += self.period_ns;
    }
}

// ---------------------------------------------------------------------
// The co-scheduled multi-tenant runner
// ---------------------------------------------------------------------

/// Everything a co-scheduled multi-tenant run produced.
pub struct CoSchedOutcome {
    /// Per-tenant outcomes, identical in shape (and — with arbitration
    /// off — in bytes) to [`crate::runner::run_tenants_sharded`]'s.
    pub shards: Vec<ShardOutcome>,
    /// Per-tenant capacity-pressure counters (slow-tier demand-paging
    /// fallbacks, reclaimed/promoted bytes).
    pub pressure: Vec<PressureStats>,
    /// The applied arbitration events, in virtual-time order (empty with
    /// arbitration off).
    pub trace: Vec<ArbiterEvent>,
}

/// Runs `n_tenants` co-scheduled on the calling thread, one `Timeline`
/// per tenant, advanced window by window between arbiter ticks (see the
/// module docs).
///
/// Tenant `t` is built from `(t, derive_stream_seed(base_seed, t))` —
/// the same derivation `thermo-exec` gives sharded jobs, so the two
/// paths see identical seeds. With `shared_pool_bytes == 0` in tenant
/// 0's [`SchedConfig`] the run is charge-neutral to the sharded path;
/// otherwise per-tenant reporters and the arbiter share the fast tier.
/// `fuzz_seed` permutes the order in which tenants advance through each
/// window, which must not change the outcome.
///
/// # Errors
///
/// Returns [`SchedError`] when any component panics (the run drains
/// healthy tenants first; the lowest panicking component id is reported).
pub fn run_tenants_coscheduled<F>(
    n_tenants: usize,
    duration_ns: u64,
    base_seed: u64,
    fuzz_seed: Option<u64>,
    build: F,
) -> Result<CoSchedOutcome, SchedError>
where
    F: Fn(u64, u64) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>),
{
    let mut tenants: Vec<Timeline> = Vec::with_capacity(n_tenants);
    let mut pool_cfg: Option<SchedConfig> = None;
    let mut arbiter: Option<Arbiter> = None;
    let mut next_id = 0u32;

    for t in 0..n_tenants {
        // thermo-lint: allow(rng_containment, reason = "co-scheduled tenants must receive the exact per-shard seeds the thermo-exec pool derives (sched_equivalence pins this)")
        let seed = thermo_util::rng::derive_stream_seed(base_seed, t as u64);
        let (mut engine, mut workload, policy) = build(t as u64, seed);
        let sched_cfg = engine.config().sched;
        let pool = *pool_cfg.get_or_insert(sched_cfg);
        let shared = pool.shared_pool_bytes > 0;
        if shared {
            engine.set_fast_cap_bytes(Some(sched_cfg.initial_grant_bytes));
            arbiter
                .get_or_insert_with(|| {
                    Arbiter::new(ArbiterConfig {
                        pool_bytes: pool.shared_pool_bytes,
                        grant_quantum_bytes: pool.grant_quantum_bytes,
                        max_defer_rounds: pool.max_defer_rounds,
                    })
                })
                .register(t as u32, sched_cfg.initial_grant_bytes, sched_cfg.slo_pct);
        }
        workload.init(&mut engine);
        let start_ns = engine.now_ns();
        let first_report = start_ns + sched_cfg.report_period_ns;
        let pumped = shared && engine.config().fabric.enabled;
        let daemon_id = next_id;
        next_id += 2 + u32::from(shared) + u32::from(pumped);
        tenants.push(Timeline {
            due_ns: policy.next_due_ns(),
            report_ns: if shared { first_report } else { u64::MAX },
            pump_ns: if pumped { first_report } else { u64::MAX },
            period_ns: sched_cfg.report_period_ns,
            prev: engine.stats(),
            report: None,
            tenant: t as u32,
            seed,
            start_ns,
            deadline_ns: start_ns.saturating_add(duration_ns),
            ops: 0,
            accesses: Vec::with_capacity(16),
            live: true,
            daemon_id,
            app_id: next_id - 1,
            running: Role::App,
            engine,
            workload,
            policy,
        });
    }

    let mut arbitration = arbiter.map(|arbiter| {
        let period_ns = pool_cfg
            .expect("pool config set with arbiter")
            .rebalance_period_ns;
        Arbitration {
            arbiter,
            next_ns: period_ns,
            period_ns,
            id: next_id,
        }
    });
    let mut fuzz = fuzz_seed.map(SmallRng::seed_from_u64);
    let mut order: Vec<u32> = (0..n_tenants as u32).collect();
    let mut panics: Vec<SchedError> = Vec::new();
    let mut trace = Vec::new();

    loop {
        let horizon = arbitration.as_ref().map_or(u64::MAX, |a| a.next_ns);
        if let Some(rng) = &mut fuzz {
            decide::permute_batch(rng, &mut order);
        }
        for &t in &order {
            let tl = &mut tenants[t as usize];
            if !tl.live {
                continue;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| tl.advance(horizon))) {
                tl.live = false;
                let (component_id, label) = tl.running_component();
                panics.push(SchedError::ComponentPanicked {
                    component_id,
                    group: t,
                    label,
                    message: panic_message(payload),
                });
            }
        }
        if !tenants.iter().any(|tl| tl.live) {
            break;
        }
        let Some(a) = &mut arbitration else {
            break;
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| a.tick(&mut tenants, &mut trace))) {
            panics.push(SchedError::ComponentPanicked {
                component_id: a.id,
                group: GROUP_GLOBAL,
                label: "arbiter".into(),
                message: panic_message(payload),
            });
            arbitration = None;
        }
    }

    if let Some(e) = panics.into_iter().min_by_key(|e| {
        let SchedError::ComponentPanicked { component_id, .. } = e;
        *component_id
    }) {
        return Err(e);
    }
    let mut shards = Vec::with_capacity(n_tenants);
    let mut pressure = Vec::with_capacity(n_tenants);
    for tl in tenants {
        let engine = &tl.engine;
        shards.push(ShardOutcome {
            shard_id: u64::from(tl.tenant),
            seed: tl.seed,
            outcome: RunOutcome {
                ops: tl.ops,
                start_ns: tl.start_ns,
                end_ns: engine.now_ns(),
            },
            stats: engine.stats(),
            breakdown: engine.footprint_breakdown(),
        });
        pressure.push(engine.pressure_stats());
    }
    Ok(CoSchedOutcome {
        shards,
        pressure,
        trace,
    })
}
