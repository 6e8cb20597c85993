//! The run loop: one [`Timeline`] interleaves application operations
//! with kernel policy ticks on the virtual timeline.
//!
//! The paper's setup runs the application continuously while Thermostat's
//! daemon wakes up every scan interval; here the same interleaving happens
//! deterministically: before each operation the timeline fires any policy
//! whose next deadline has passed. A timeline is the only code that draws
//! and charges an application op or fires a policy: [`run_for`],
//! [`run_ops`] and [`run_for_instrumented`] each run one on its own,
//! [`run_tenants_sharded`] runs one per tenant on the [`thermo_exec`]
//! pool, and [`crate::sched::run_tenants_coscheduled`] advances one per
//! tenant, window by window between arbiter ticks (DESIGN.md §13). The
//! migration fabric needs no event of its own: [`Engine::access`] and
//! [`Engine::advance_compute`] tick a busy fabric as each op ends.

use crate::arbiter::TenantReport;
use crate::engine::Engine;
use crate::latency::LatencyHistogram;
use crate::stats::EngineStats;
use crate::workload::{Access, Workload};

/// A kernel-side policy that wants periodic control of the machine
/// (Thermostat's daemon, kstaled, or nothing).
pub trait PolicyHook {
    /// Next virtual time at which [`tick`](Self::tick) should run
    /// (`u64::MAX` = never).
    fn next_due_ns(&self) -> u64;

    /// Runs one policy step at the current virtual time.
    fn tick(&mut self, engine: &mut Engine);

    /// Human-readable policy name, used in scheduler component labels
    /// and error messages.
    fn policy_name(&self) -> &str {
        "policy"
    }
}

/// The no-op policy (baseline runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPolicy;

impl PolicyHook for NoPolicy {
    fn next_due_ns(&self) -> u64 {
        u64::MAX
    }

    fn tick(&mut self, _engine: &mut Engine) {}

    fn policy_name(&self) -> &str {
        "none"
    }
}

/// Result of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// Operations completed.
    pub ops: u64,
    /// Virtual time at start, ns.
    pub start_ns: u64,
    /// Virtual time at end, ns.
    pub end_ns: u64,
}

impl RunOutcome {
    /// Elapsed virtual time, ns.
    pub fn elapsed_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Throughput in operations per virtual second.
    pub fn ops_per_sec(&self) -> f64 {
        let e = self.elapsed_ns();
        if e == 0 {
            0.0
        } else {
            self.ops as f64 * 1e9 / e as f64
        }
    }

    /// Slowdown of this run relative to `baseline` (same op count):
    /// `elapsed / baseline.elapsed - 1`, e.g. `0.03` = 3% slower.
    ///
    /// A zero-length baseline carries no timing information, so the
    /// comparison is defined as 0 rather than the NaN/inf the naive
    /// division would produce (which would poison every downstream
    /// aggregate it flows into).
    pub fn slowdown_vs(&self, baseline: &RunOutcome) -> f64 {
        let base = baseline.elapsed_ns();
        if base == 0 {
            return 0.0;
        }
        self.elapsed_ns() as f64 / base as f64 - 1.0
    }
}

// Serialized into the per-experiment artifacts (thermo-bench) so golden
// diffs can compare completed-op counts and virtual end times directly.
thermo_util::json_struct!(RunOutcome {
    ops,
    start_ns,
    end_ns
});

/// Runs `workload` until virtual `duration_ns` elapses (measured from the
/// engine's current time) or the workload finishes.
pub fn run_for(
    engine: &mut Engine,
    workload: &mut dyn Workload,
    policy: &mut dyn PolicyHook,
    duration_ns: u64,
) -> RunOutcome {
    Timeline::new(engine, workload, policy, duration_ns, u64::MAX, None).run()
}

/// Runs `workload` for `duration_ns`, recording each operation's total
/// latency (accesses + compute) into `hist` — the paper's tail-latency
/// reporting (§5).
pub fn run_for_instrumented(
    engine: &mut Engine,
    workload: &mut dyn Workload,
    policy: &mut dyn PolicyHook,
    duration_ns: u64,
    hist: &mut LatencyHistogram,
) -> RunOutcome {
    Timeline::new(engine, workload, policy, duration_ns, u64::MAX, Some(hist)).run()
}

/// Runs exactly `n_ops` operations (or fewer if the workload finishes).
pub fn run_ops(
    engine: &mut Engine,
    workload: &mut dyn Workload,
    policy: &mut dyn PolicyHook,
    n_ops: u64,
) -> RunOutcome {
    Timeline::new(engine, workload, policy, u64::MAX, n_ops, None).run()
}

/// A timeline's event kinds, in phase order at equal virtual times.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Role {
    /// Samples the engine's slowdown for the arbiter (shared pool only).
    Reporter,
    /// Fires the policy at its `next_due_ns`.
    Daemon,
    /// One application op; last at a given instant.
    App,
}

/// One tenant's virtual timeline: application ops, the policy and, on a
/// shared fast-tier pool, a slowdown reporter, run in `(time, class)`
/// order with the phase priority of [`Role`].
///
/// It borrows the engine, workload and policy it runs, and finishes at
/// its deadline, once its op budget is spent, or when the workload ends.
/// A policy due at or after the finish parks without firing.
pub(crate) struct Timeline<'a> {
    pub(crate) engine: &'a mut Engine,
    pub(crate) workload: &'a mut dyn Workload,
    pub(crate) policy: &'a mut dyn PolicyHook,
    /// Sees each op's latency (accesses + compute).
    hist: Option<&'a mut LatencyHistogram>,
    start_ns: u64,
    deadline_ns: u64,
    /// Ops after which the timeline finishes.
    op_budget: u64,
    ops: u64,
    /// `policy.next_due_ns()`, cached: it only moves in `tick`, so the
    /// cache turns a per-op virtual call into a compare. `u64::MAX` once
    /// the daemon parks.
    due_ns: u64,
    /// Next slowdown report (`u64::MAX` = never).
    report_ns: u64,
    /// Period of the reports.
    period_ns: u64,
    /// Engine counters at the previous report.
    prev: EngineStats,
    /// The latest report, taken by the next arbiter tick.
    pub(crate) report: Option<TenantReport>,
    accesses: Vec<Access>,
    /// Neither finished nor panicked.
    pub(crate) live: bool,
    /// The event in progress, to attribute a panic.
    pub(crate) running: Role,
}

impl<'a> Timeline<'a> {
    /// A timeline from the engine's current time that finishes after
    /// `duration_ns` or `op_budget` ops, whichever comes first. It has no
    /// reporter.
    pub(crate) fn new(
        engine: &'a mut Engine,
        workload: &'a mut dyn Workload,
        policy: &'a mut dyn PolicyHook,
        duration_ns: u64,
        op_budget: u64,
        hist: Option<&'a mut LatencyHistogram>,
    ) -> Self {
        let start_ns = engine.now_ns();
        Self {
            start_ns,
            // Saturate: `duration_ns = u64::MAX` means "until the workload
            // finishes", and an engine already deep into virtual time must
            // not wrap the deadline back before the start.
            deadline_ns: start_ns.saturating_add(duration_ns),
            op_budget,
            ops: 0,
            due_ns: policy.next_due_ns(),
            report_ns: u64::MAX,
            period_ns: 0,
            prev: EngineStats::default(),
            report: None,
            accesses: Vec::with_capacity(16),
            live: true,
            running: Role::App,
            engine,
            workload,
            policy,
            hist,
        }
    }

    /// Adds the shared-pool reporter, every `sched.report_period_ns` of the
    /// engine's config from one period after the start.
    pub(crate) fn with_reports(mut self) -> Self {
        self.period_ns = self.engine.config().sched.report_period_ns;
        self.report_ns = self.start_ns + self.period_ns;
        self.prev = self.engine.stats();
        self
    }

    /// Runs the whole timeline with no other tenant to wait for.
    pub(crate) fn run(mut self) -> RunOutcome {
        self.advance(u64::MAX);
        self.outcome()
    }

    /// Runs this timeline's events in `(time, class)` order until the next
    /// one is at or after `horizon`, or the timeline finishes.
    pub(crate) fn advance(&mut self, horizon: u64) {
        while self.live {
            let periodic = self.report_ns.min(self.due_ns);
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
            } else {
                self.running = Role::Daemon;
                if self.finished() {
                    self.due_ns = u64::MAX;
                } else {
                    self.policy.tick(self.engine);
                    self.due_ns = self.policy.next_due_ns();
                }
            }
        }
    }

    /// The deadline is reached or the op budget spent.
    fn finished(&self) -> bool {
        self.engine.now_ns() >= self.deadline_ns || self.ops >= self.op_budget
    }

    /// Draws one op and charges its accesses and compute; false once the
    /// timeline finishes instead.
    fn app_op(&mut self) -> bool {
        if self.finished() {
            self.live = false;
            return false;
        }
        let start = self.engine.now_ns();
        self.accesses.clear();
        let Some(compute_ns) = self.workload.next_op(start, &mut self.accesses) else {
            self.live = false;
            return false;
        };
        for a in &self.accesses {
            self.engine.access(a.va, a.write);
        }
        self.engine.advance_compute(compute_ns);
        if let Some(hist) = &mut self.hist {
            hist.record(self.engine.now_ns() - start);
        }
        self.ops += 1;
        true
    }

    /// Estimates the slowdown since the previous report from engine
    /// counter deltas (the paper's §4.3 machinery).
    fn post_report(&mut self) {
        let engine = &*self.engine;
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

    /// Ops run so far and the virtual time they took.
    pub(crate) fn outcome(&self) -> RunOutcome {
        RunOutcome {
            ops: self.ops,
            start_ns: self.start_ns,
            end_ns: self.engine.now_ns(),
        }
    }
}

/// Everything a tenant shard produced, merged back in shard-id order by
/// [`run_tenants_sharded`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutcome {
    /// Stable shard id (`0..n_tenants`), also this tenant's job id in the
    /// execution pool.
    pub shard_id: u64,
    /// The seed this shard's engine/workload were built from
    /// (`derive_stream_seed(base_seed, shard_id)`).
    pub seed: u64,
    /// The tenant's run outcome (ops completed, virtual start/end times).
    pub outcome: RunOutcome,
    /// Final engine counters for this tenant.
    pub stats: EngineStats,
    /// Final footprint breakdown (per-tier, per-page-size bytes).
    pub breakdown: crate::engine::FootprintBreakdown,
}

// Serialized by multi-tenant harnesses so sharded sweeps can be golden-
// checked like single-tenant experiments.
thermo_util::json_struct!(ShardOutcome {
    shard_id,
    seed,
    outcome,
    stats,
    breakdown,
});

/// One tenant of a multi-tenant run, as `build` made it from
/// `(shard_id, seed)`. Both runners take it through the same life:
/// [`init`](Self::init), a [`timeline`](Self::timeline), then
/// [`outcome`](Self::outcome).
pub(crate) struct Tenant {
    shard_id: u64,
    seed: u64,
    pub(crate) engine: Engine,
    workload: Box<dyn Workload>,
    policy: Box<dyn PolicyHook>,
}

impl Tenant {
    /// Builds shard `shard_id` from `seed`.
    pub(crate) fn build(
        build: &impl Fn(u64, u64) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>),
        shard_id: u64,
        seed: u64,
    ) -> Self {
        let (engine, workload, policy) = build(shard_id, seed);
        Self {
            shard_id,
            seed,
            engine,
            workload,
            policy,
        }
    }

    /// The workload's load phase.
    pub(crate) fn init(&mut self) {
        self.workload.init(&mut self.engine);
    }

    /// The timeline that runs this tenant for `duration_ns` from now.
    pub(crate) fn timeline(&mut self, duration_ns: u64) -> Timeline<'_> {
        let (workload, policy) = (self.workload.as_mut(), self.policy.as_mut());
        Timeline::new(
            &mut self.engine,
            workload,
            policy,
            duration_ns,
            u64::MAX,
            None,
        )
    }

    /// This tenant's result once its timeline ran `run`.
    pub(crate) fn outcome(&self, run: RunOutcome) -> ShardOutcome {
        ShardOutcome {
            shard_id: self.shard_id,
            seed: self.seed,
            outcome: run,
            stats: self.engine.stats(),
            breakdown: self.engine.footprint_breakdown(),
        }
    }
}

/// Runs `n_tenants` fully independent tenants — each its own engine,
/// workload, and policy — across the [`thermo_exec`] worker pool and
/// returns their outcomes **in shard-id order**.
///
/// `build` is called with `(shard_id, seed)` where
/// `seed = derive_stream_seed(cfg.base_seed, shard_id)`; it must
/// construct the tenant purely from those two values (plus captured
/// configuration) so the shard is a pure function of its id. It is
/// called once per shard on the worker thread that runs the shard, plus
/// once more for shard 0 on the calling thread: that probe reads
/// `SchedConfig::coscheduled`, and when it is set the whole batch runs
/// through [`crate::sched::run_tenants_coscheduled`] on the calling
/// thread instead. Each tenant is one timeline, the loop of [`run_for`],
/// run for `duration_ns` of its own virtual time as a job on the pool.
/// Because tenants share no state and results merge by shard id,
/// the output is byte-identical for any worker count — the scale-out
/// path promised in the ROADMAP without giving up artifact determinism.
///
/// # Errors
///
/// Returns [`thermo_exec::ExecError`] when any shard panics (the batch
/// still drains; the lowest panicking shard id is reported).
pub fn run_tenants_sharded<F>(
    n_tenants: usize,
    duration_ns: u64,
    cfg: &thermo_exec::ExecConfig,
    build: F,
) -> Result<Vec<ShardOutcome>, thermo_exec::ExecError>
where
    F: Fn(u64, u64) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) + Sync,
{
    // Probe tenant 0's config for the co-scheduled switch: `build` is a
    // pure function of `(shard_id, seed)`, so the extra call is free of
    // side effects, and the dispatch itself stays deterministic.
    if n_tenants > 0 {
        #[expect(
            clippy::disallowed_methods,
            reason = "the probe must see the exact seed the thermo-exec pool would hand shard 0"
        )]
        let probe_seed = thermo_util::rng::derive_stream_seed(cfg.base_seed, 0);
        let (probe, _, _) = build(0, probe_seed);
        if probe.config().sched.coscheduled {
            drop(probe);
            return crate::sched::run_tenants_coscheduled(
                n_tenants,
                duration_ns,
                cfg.base_seed,
                crate::sched::fuzz_seed_from_env(),
                build,
            )
            .map(|out| out.shards)
            .map_err(|e| {
                let crate::sched::SchedError::ComponentPanicked { group, message, .. } = e;
                thermo_exec::ExecError::JobPanicked {
                    job_id: u64::from(group),
                    message,
                }
            });
        }
    }
    let build = &build;
    let jobs: Vec<_> = (0..n_tenants)
        .map(|_| {
            move |ctx: &thermo_exec::JobCtx| {
                let mut tenant = Tenant::build(build, ctx.job_id, ctx.seed);
                tenant.init();
                let run = tenant.timeline(duration_ns).run();
                tenant.outcome(run)
            }
        })
        .collect();
    thermo_exec::run_jobs(jobs, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use thermo_mem::VirtAddr;

    /// Touches one line per op, round-robin over a small buffer.
    struct Toucher {
        base: VirtAddr,
        n: u64,
        i: u64,
        limit: Option<u64>,
    }

    impl Workload for Toucher {
        fn name(&self) -> &str {
            "toucher"
        }

        fn init(&mut self, engine: &mut Engine) {
            self.base = engine.mmap(self.n * 64, true, true, false, "buf");
        }

        fn next_op(&mut self, _now: u64, accesses: &mut Vec<Access>) -> Option<u64> {
            if let Some(l) = self.limit {
                if self.i >= l {
                    return None;
                }
            }
            accesses.push(Access::read(self.base + (self.i % self.n) * 64));
            self.i += 1;
            Some(100)
        }
    }

    /// Counts its own ticks, due every `period` ns from `next`, and at
    /// each one clears every Accessed bit: the TLB shootdowns make engine
    /// counters depend on when it fired.
    struct TickCounter {
        period: u64,
        next: u64,
        ticks: u64,
    }

    impl TickCounter {
        fn new(next: u64, period: u64) -> Self {
            Self {
                period,
                next,
                ticks: 0,
            }
        }
    }

    impl PolicyHook for TickCounter {
        fn next_due_ns(&self) -> u64 {
            self.next
        }

        fn tick(&mut self, e: &mut Engine) {
            let mut hits = Vec::new();
            for (start, n) in e.vma_ranges() {
                let _ = e.scan_and_clear_accessed(start, n, &mut hits);
            }
            self.ticks += 1;
            self.next += self.period;
        }
    }

    fn engine() -> Engine {
        Engine::new(SimConfig::paper_defaults(16 << 20, 16 << 20))
    }

    #[test]
    fn run_for_respects_deadline() {
        let mut e = engine();
        let mut w = Toucher {
            base: VirtAddr(0),
            n: 64,
            i: 0,
            limit: None,
        };
        w.init(&mut e);
        let out = run_for(&mut e, &mut w, &mut NoPolicy, 1_000_000);
        assert!(out.ops > 0);
        assert!(out.end_ns >= 1_000_000);
        assert!(out.ops_per_sec() > 0.0);
    }

    #[test]
    fn run_ops_runs_exact_count() {
        let mut e = engine();
        let mut w = Toucher {
            base: VirtAddr(0),
            n: 64,
            i: 0,
            limit: None,
        };
        w.init(&mut e);
        let out = run_ops(&mut e, &mut w, &mut NoPolicy, 500);
        assert_eq!(out.ops, 500);
    }

    #[test]
    fn finite_workload_ends_early() {
        let mut e = engine();
        let mut w = Toucher {
            base: VirtAddr(0),
            n: 64,
            i: 0,
            limit: Some(10),
        };
        w.init(&mut e);
        let out = run_for(&mut e, &mut w, &mut NoPolicy, u64::MAX / 2);
        assert_eq!(out.ops, 10);
    }

    #[test]
    fn policy_ticks_at_period() {
        let mut e = engine();
        let mut w = Toucher {
            base: VirtAddr(0),
            n: 64,
            i: 0,
            limit: None,
        };
        w.init(&mut e);
        let mut p = TickCounter::new(1_000_000, 1_000_000);
        run_for(&mut e, &mut w, &mut p, 10_000_000);
        assert!(
            (9..=11).contains(&p.ticks),
            "expected ~10 ticks over 10ms at 1ms period, got {}",
            p.ticks
        );
    }

    fn toucher(limit: Option<u64>) -> Toucher {
        Toucher {
            base: VirtAddr(0),
            n: 4096,
            i: 0,
            limit,
        }
    }

    #[test]
    fn instrumented_run_matches_run_for_under_a_ticking_policy() {
        let run = |hist: Option<&mut crate::latency::LatencyHistogram>| {
            let mut e = engine();
            let mut w = toucher(None);
            w.init(&mut e);
            let mut p = TickCounter::new(100_000, 100_000);
            let out = match hist {
                Some(h) => run_for_instrumented(&mut e, &mut w, &mut p, 2_000_000, h),
                None => run_for(&mut e, &mut w, &mut p, 2_000_000),
            };
            (out, e.stats(), p.ticks)
        };
        let mut hist = crate::latency::LatencyHistogram::new();
        let instrumented = run(Some(&mut hist));
        let plain = run(None);
        assert!(plain.2 >= 10, "the policy must tick: {} ticks", plain.2);
        assert_eq!(instrumented, plain, "latency recording changed the run");
        assert_eq!(hist.count(), plain.0.ops, "one sample per op");
    }

    #[test]
    fn run_ops_fires_no_policy_after_its_last_op() {
        let fresh = || {
            let mut e = engine();
            let mut w = toucher(None);
            w.init(&mut e);
            (e, w)
        };
        // Where the 50th op ends, with no policy to perturb the run.
        let (mut e, mut w) = fresh();
        let end = run_ops(&mut e, &mut w, &mut NoPolicy, 50).end_ns;
        // A policy due exactly then is due after the budget is spent.
        let (mut e, mut w) = fresh();
        let mut p = TickCounter::new(end, u64::MAX / 2);
        let out = run_ops(&mut e, &mut w, &mut p, 50);
        assert_eq!((out.ops, out.end_ns), (50, end));
        assert_eq!(p.ticks, 0, "ticked after the last op");
        // One more op in the budget and it fires, before that op.
        let (mut e, mut w) = fresh();
        let mut p = TickCounter::new(end, u64::MAX / 2);
        assert_eq!(run_ops(&mut e, &mut w, &mut p, 51).ops, 51);
        assert_eq!(p.ticks, 1);
    }

    #[test]
    fn run_ops_zero_fires_no_overdue_policy() {
        let mut e = engine();
        let mut w = toucher(None);
        w.init(&mut e);
        e.advance_compute(1_000);
        let mut p = TickCounter::new(0, 1_000_000);
        let out = run_ops(&mut e, &mut w, &mut p, 0);
        assert_eq!((out.ops, out.elapsed_ns()), (0, 0));
        assert_eq!(p.ticks, 0, "an overdue policy fired with no op to run");
    }

    /// Two short tenants on a shared pool whose `field` period is zero.
    fn coscheduled_with_zero(field: &str) {
        let build = |_, _| -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
            let mut cfg = SimConfig::paper_defaults(16 << 20, 16 << 20);
            cfg.sched.shared_pool_bytes = 16 << 20;
            cfg.sched.initial_grant_bytes = 8 << 20;
            cfg.sched.report_period_ns = 100_000;
            cfg.sched.rebalance_period_ns = 200_000;
            match field {
                "report" => cfg.sched.report_period_ns = 0,
                _ => cfg.sched.rebalance_period_ns = 0,
            }
            (
                Engine::new(cfg),
                Box::new(toucher(Some(100))),
                Box::new(NoPolicy),
            )
        };
        let _ = crate::sched::run_tenants_coscheduled(2, 1_000_000, 1, None, build);
    }

    #[test]
    #[should_panic(expected = "report_period_ns")]
    fn zero_report_period_is_rejected() {
        coscheduled_with_zero("report");
    }

    #[test]
    #[should_panic(expected = "rebalance_period_ns")]
    fn zero_rebalance_period_is_rejected() {
        coscheduled_with_zero("rebalance");
    }

    #[test]
    fn slowdown_math() {
        let base = RunOutcome {
            ops: 100,
            start_ns: 0,
            end_ns: 1_000,
        };
        let slower = RunOutcome {
            ops: 100,
            start_ns: 0,
            end_ns: 1_030,
        };
        assert!((slower.slowdown_vs(&base) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn slowdown_vs_zero_length_baseline_is_finite() {
        let empty = RunOutcome {
            ops: 0,
            start_ns: 5,
            end_ns: 5,
        };
        let run = RunOutcome {
            ops: 100,
            start_ns: 0,
            end_ns: 1_000,
        };
        assert_eq!(run.slowdown_vs(&empty), 0.0, "no baseline info => 0");
        assert_eq!(empty.slowdown_vs(&empty), 0.0);
        assert!(run.slowdown_vs(&empty).is_finite());
    }

    #[test]
    fn run_for_deadline_saturates_instead_of_overflowing() {
        let mut e = engine();
        let mut w = Toucher {
            base: VirtAddr(0),
            n: 64,
            i: 0,
            limit: Some(10),
        };
        w.init(&mut e);
        // Advance the clock, then ask for u64::MAX more: start + duration
        // would wrap to a deadline in the past without the saturation.
        e.advance_compute(1_000_000);
        let out = run_for(&mut e, &mut w, &mut NoPolicy, u64::MAX);
        assert_eq!(out.ops, 10, "workload end, not a wrapped deadline");
        let mut w2 = Toucher {
            base: VirtAddr(0),
            n: 64,
            i: 0,
            limit: Some(10),
        };
        w2.init(&mut e);
        let mut hist = crate::latency::LatencyHistogram::new();
        let out = run_for_instrumented(&mut e, &mut w2, &mut NoPolicy, u64::MAX, &mut hist);
        assert_eq!(out.ops, 10);
    }

    /// Builds one shard tenant whose length depends on the shard seed, so
    /// shard outputs are distinguishable.
    fn shard_tenant(seed: u64) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
        let w = Toucher {
            base: VirtAddr(0),
            n: 64,
            i: 0,
            limit: Some(50 + seed % 64),
        };
        (engine(), Box::new(w), Box::new(NoPolicy))
    }

    #[test]
    fn sharded_tenants_merge_by_shard_id_for_any_worker_count() {
        let run = |workers| {
            run_tenants_sharded(
                6,
                u64::MAX / 2,
                &thermo_exec::ExecConfig::new(workers, 0xbeef),
                |_, seed| shard_tenant(seed),
            )
            .unwrap()
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "worker count must be unobservable");
        for (i, s) in serial.iter().enumerate() {
            assert_eq!(s.shard_id, i as u64, "merge is in shard-id order");
            assert_eq!(
                s.seed,
                thermo_util::rng::derive_stream_seed(0xbeef, i as u64)
            );
            assert_eq!(s.outcome.ops, 50 + s.seed % 64, "seed drove the run");
            assert!(s.stats.accesses > 0);
        }
        // Per-shard seeds are disjoint streams: at least two tenants must
        // have diverged in length (64 residues over 6 draws).
        let lens: std::collections::BTreeSet<u64> = serial.iter().map(|s| s.outcome.ops).collect();
        assert!(lens.len() > 1, "shards all identical: seeds not applied");
    }

    #[test]
    fn sharded_tenant_panic_reports_shard_id() {
        let err = run_tenants_sharded(
            4,
            1_000_000,
            &thermo_exec::ExecConfig::new(2, 7),
            |shard, seed| {
                if shard == 2 {
                    panic!("tenant exploded");
                }
                shard_tenant(seed)
            },
        )
        .unwrap_err();
        let thermo_exec::ExecError::JobPanicked { job_id, message } = err;
        assert_eq!(job_id, 2);
        assert!(message.contains("tenant exploded"));
    }

    #[test]
    fn shard_outcome_roundtrips_through_json() {
        let outcomes = run_tenants_sharded(
            2,
            1_000_000,
            &thermo_exec::ExecConfig::serial(3),
            |_, seed| shard_tenant(seed),
        )
        .unwrap();
        let text = thermo_util::json::encode(&outcomes[0]);
        let back: ShardOutcome = thermo_util::json::decode(&text).expect("decodes");
        assert_eq!(back, outcomes[0]);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let mk = || {
            let mut e = engine();
            let mut w = Toucher {
                base: VirtAddr(0),
                n: 1024,
                i: 0,
                limit: None,
            };
            w.init(&mut e);
            let out = run_ops(&mut e, &mut w, &mut NoPolicy, 2000);
            (out.end_ns, e.stats().llc_misses, e.tlb_stats().misses)
        };
        assert_eq!(mk(), mk());
    }
}
