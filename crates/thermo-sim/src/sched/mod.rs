//! The co-scheduled multi-tenant engine (DESIGN.md §13).
//!
//! Every tenant runs on its own timeline, the one op loop of
//! [`crate::runner`]: one engine plus the three kinds of events that act
//! on it — slowdown reporter, policy daemon and application op —
//! executed in `(time, class)` order with the fixed phase priority
//! reporter < daemon < app. The migration fabric needs no event of its
//! own: every app op ticks a busy fabric at the instant it ends. Tenants
//! share state only through the fast-tier [`Arbiter`], whose ticks split
//! virtual time into windows: [`run_tenants_coscheduled`] advances every
//! live tenant through the window up to (excluding) the next arbiter tick
//! `S`, applies the arbiter at `S`, and repeats.
//!
//! This is exactly one global event order keyed `(time, class,
//! component_id)` with the arbiter in class 0: the arbiter runs after
//! every tenant event before `S` and before every event at or after `S`,
//! and keys never decrease (engine clocks only advance), so running each
//! tenant's smallest current key is what a global min-heap would pop.
//! Two properties are load-bearing and tested:
//!
//! * **Charge-neutrality** — with arbitration off there is one unbounded
//!   window and no reporter, so each tenant's timeline runs
//!   exactly as [`crate::runner::run_for`] runs it
//!   (`thermo-bench/tests/sched_equivalence.rs`).
//! * **Order-independence within a window** — tenants own disjoint
//!   engines, so the order in which they advance is unobservable.
//!   `THERMO_SCHED_FUZZ=<seed>` permutes it per window under a seeded
//!   RNG; `thermo-bench/tests/sched_fuzz.rs` asserts artifacts are
//!   invariant, and `thermo-bench/tests/cosched_oracle.rs` checks the
//!   windows against a naive global event loop.

mod decide;

use crate::arbiter::{Arbiter, ArbiterConfig, ArbiterEvent, DecisionKind};
use crate::engine::{Engine, PressureStats};
use crate::runner::{PolicyHook, Role, RunOutcome, ShardOutcome, Tenant, Timeline};
use crate::workload::Workload;
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
/// mode) and app, then the arbiter last.
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
/// `grant_quantum_bytes`) are read from **tenant 0's** config; per-tenant
/// fields (`initial_grant_bytes`, `slo_pct`, `report_period_ns`) from each
/// tenant's own. The deferral bound is [`ArbiterConfig::default`]'s.
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
        }
    }
}

impl SchedConfig {
    /// Panics, naming the field, on a period a shared-pool run cannot
    /// advance by: a zero report period would repeat a tenant's report
    /// at one instant forever, and a zero rebalance period would never
    /// move the arbiter's horizon.
    pub fn validate(&self) {
        assert!(
            self.report_period_ns > 0,
            "sched.report_period_ns must be positive with a shared pool"
        );
        assert!(
            self.rebalance_period_ns > 0,
            "sched.rebalance_period_ns must be positive with a shared pool"
        );
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
});

/// Id and label of the component `tl` (tenant `tenant`, whose daemon and
/// app are components `daemon_id` and `app_id`) was running.
fn running_component(tl: &Timeline, tenant: u32, (daemon_id, app_id): (u32, u32)) -> (u32, String) {
    match tl.running {
        Role::Daemon => (daemon_id, format!("daemon:{}", tl.policy.policy_name())),
        Role::Reporter => (daemon_id + 1, format!("reporter:{tenant}")),
        Role::App => (app_id, format!("app:{}", tl.workload.name())),
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
    fn rebalance(&mut self, tenants: &mut [Timeline], trace: &mut Vec<ArbiterEvent>) {
        let mut slowdowns = vec![0.0f64; tenants.len()];
        for (t, tl) in tenants.iter_mut().enumerate() {
            if let Some(report) = tl.report.take() {
                self.arbiter.report(t as u32, report);
                slowdowns[t] = report.slowdown_pct;
            }
        }
        for d in self.arbiter.rebalance() {
            let engine = &mut *tenants[d.tenant as usize].engine;
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

/// Runs `n_tenants` co-scheduled on the calling thread, one timeline
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
    let mut tenants: Vec<Tenant> = Vec::with_capacity(n_tenants);
    let mut ids: Vec<(u32, u32)> = Vec::with_capacity(n_tenants);
    let mut pool_cfg: Option<SchedConfig> = None;
    let mut arbiter: Option<Arbiter> = None;
    let mut next_id = 0u32;

    for t in 0..n_tenants as u64 {
        // thermo-lint: allow(rng_containment, reason = "co-scheduled tenants must receive the exact per-shard seeds the thermo-exec pool derives (sched_equivalence pins this)")
        let seed = thermo_util::rng::derive_stream_seed(base_seed, t);
        let mut tenant = Tenant::build(&build, t, seed);
        let sched_cfg = tenant.engine.config().sched;
        let pool = *pool_cfg.get_or_insert(sched_cfg);
        let shared = pool.shared_pool_bytes > 0;
        if shared {
            sched_cfg.validate();
            tenant
                .engine
                .set_fast_cap_bytes(Some(sched_cfg.initial_grant_bytes));
            arbiter
                .get_or_insert_with(|| {
                    Arbiter::new(ArbiterConfig {
                        pool_bytes: pool.shared_pool_bytes,
                        grant_quantum_bytes: pool.grant_quantum_bytes,
                        ..ArbiterConfig::default()
                    })
                })
                .register(t as u32, sched_cfg.initial_grant_bytes, sched_cfg.slo_pct);
        }
        tenant.init();
        let daemon_id = next_id;
        next_id += 2 + u32::from(shared);
        ids.push((daemon_id, next_id - 1));
        tenants.push(tenant);
    }
    let mut timelines: Vec<Timeline> = tenants
        .iter_mut()
        .map(|tenant| {
            let tl = tenant.timeline(duration_ns);
            if arbiter.is_some() {
                tl.with_reports()
            } else {
                tl
            }
        })
        .collect();

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
            let tl = &mut timelines[t as usize];
            if !tl.live {
                continue;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| tl.advance(horizon))) {
                tl.live = false;
                let (component_id, label) = running_component(tl, t, ids[t as usize]);
                panics.push(SchedError::ComponentPanicked {
                    component_id,
                    group: t,
                    label,
                    message: panic_message(payload),
                });
            }
        }
        if !timelines.iter().any(|tl| tl.live) {
            break;
        }
        let Some(a) = &mut arbitration else {
            break;
        };
        if let Err(payload) =
            catch_unwind(AssertUnwindSafe(|| a.rebalance(&mut timelines, &mut trace)))
        {
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
    let runs: Vec<RunOutcome> = timelines.iter().map(Timeline::outcome).collect();
    drop(timelines);
    Ok(CoSchedOutcome {
        shards: tenants
            .iter()
            .zip(runs)
            .map(|(tenant, run)| tenant.outcome(run))
            .collect(),
        pressure: tenants.iter().map(|t| t.engine.pressure_stats()).collect(),
        trace,
    })
}
