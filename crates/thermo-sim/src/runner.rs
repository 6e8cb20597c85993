//! The run loop: interleaves application operations with kernel policy
//! ticks on the virtual timeline.
//!
//! The paper's setup runs the application continuously while Thermostat's
//! daemon wakes up every scan interval; here the same interleaving happens
//! deterministically: before each operation the runner fires any policy
//! whose next deadline has passed.

use crate::engine::Engine;
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
    let start = engine.now_ns();
    // Saturate: `duration_ns = u64::MAX` means "until the workload
    // finishes", and an engine already deep into virtual time must not
    // wrap the deadline back before `start`.
    let deadline = start.saturating_add(duration_ns);
    let mut ops = 0u64;
    let mut accesses: Vec<Access> = Vec::with_capacity(16);
    // `next_due_ns(&self)` is pure and only moves in `tick(&mut self)`,
    // so caching it turns a per-op virtual call into a compare.
    let mut due = policy.next_due_ns();
    while engine.now_ns() < deadline {
        while due <= engine.now_ns() {
            policy.tick(engine);
            due = policy.next_due_ns();
        }
        accesses.clear();
        let Some(compute_ns) = workload.next_op(engine.now_ns(), &mut accesses) else {
            break;
        };
        for a in &accesses {
            engine.access(a.va, a.write);
        }
        engine.advance_compute(compute_ns);
        ops += 1;
    }
    RunOutcome {
        ops,
        start_ns: start,
        end_ns: engine.now_ns(),
    }
}

/// Runs `workload` for `duration_ns`, recording each operation's total
/// latency (accesses + compute) into `hist` — the paper's tail-latency
/// reporting (§5).
pub fn run_for_instrumented(
    engine: &mut Engine,
    workload: &mut dyn Workload,
    policy: &mut dyn PolicyHook,
    duration_ns: u64,
    hist: &mut crate::latency::LatencyHistogram,
) -> RunOutcome {
    let start = engine.now_ns();
    // Saturating for the same reason as `run_for`.
    let deadline = start.saturating_add(duration_ns);
    let mut ops = 0u64;
    let mut accesses: Vec<Access> = Vec::with_capacity(16);
    // Same cached-deadline trick as `run_for`.
    let mut due = policy.next_due_ns();
    while engine.now_ns() < deadline {
        while due <= engine.now_ns() {
            policy.tick(engine);
            due = policy.next_due_ns();
        }
        accesses.clear();
        let Some(compute_ns) = workload.next_op(engine.now_ns(), &mut accesses) else {
            break;
        };
        let t0 = engine.now_ns();
        for a in &accesses {
            engine.access(a.va, a.write);
        }
        engine.advance_compute(compute_ns);
        hist.record(engine.now_ns() - t0);
        ops += 1;
    }
    RunOutcome {
        ops,
        start_ns: start,
        end_ns: engine.now_ns(),
    }
}

/// Runs exactly `n_ops` operations (or fewer if the workload finishes).
pub fn run_ops(
    engine: &mut Engine,
    workload: &mut dyn Workload,
    policy: &mut dyn PolicyHook,
    n_ops: u64,
) -> RunOutcome {
    let start = engine.now_ns();
    let mut ops = 0u64;
    let mut accesses: Vec<Access> = Vec::with_capacity(16);
    // Same cached-deadline trick as `run_for`.
    let mut due = policy.next_due_ns();
    while ops < n_ops {
        while due <= engine.now_ns() {
            policy.tick(engine);
            due = policy.next_due_ns();
        }
        accesses.clear();
        let Some(compute_ns) = workload.next_op(engine.now_ns(), &mut accesses) else {
            break;
        };
        for a in &accesses {
            engine.access(a.va, a.write);
        }
        engine.advance_compute(compute_ns);
        ops += 1;
    }
    RunOutcome {
        ops,
        start_ns: start,
        end_ns: engine.now_ns(),
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
    pub stats: crate::stats::EngineStats,
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
/// thread instead. Each tenant runs for `duration_ns` of its own virtual
/// time. Because tenants share no state and results merge by shard id,
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
        // thermo-lint: allow(rng_containment, reason = "the probe must see the exact seed the thermo-exec pool would hand shard 0")
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
                let (mut engine, mut workload, mut policy) = build(ctx.job_id, ctx.seed);
                workload.init(&mut engine);
                let outcome = run_for(&mut engine, workload.as_mut(), policy.as_mut(), duration_ns);
                ShardOutcome {
                    shard_id: ctx.job_id,
                    seed: ctx.seed,
                    outcome,
                    stats: engine.stats(),
                    breakdown: engine.footprint_breakdown(),
                }
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

    /// Counts its own ticks, due every 1ms.
    struct TickCounter {
        period: u64,
        next: u64,
        ticks: u64,
    }

    impl PolicyHook for TickCounter {
        fn next_due_ns(&self) -> u64 {
            self.next
        }

        fn tick(&mut self, _e: &mut Engine) {
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
        let mut p = TickCounter {
            period: 1_000_000,
            next: 1_000_000,
            ticks: 0,
        };
        run_for(&mut e, &mut w, &mut p, 10_000_000);
        assert!(
            (9..=11).contains(&p.ticks),
            "expected ~10 ticks over 10ms at 1ms period, got {}",
            p.ticks
        );
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
