//! One repetition of a workload: build every tenant, warm up, run the
//! measured phase, check the outputs, and (traced) attribute host time to
//! layers.
//!
//! Untraced repetitions call the program's runners (`run_for`,
//! `run_tenants_coscheduled`, `run_tenants_sharded`) exactly as a user
//! would. A traced single-tenant repetition instead drives
//! [`traced_run_for`], a copy of `run_for`'s call sequence with timers
//! between the calls; an equal [`Rep::digest`] between the two proves the
//! copy faithful.

use crate::probe::{Checker, PolicyRecord, Sink, Tally, TickSpan, WorkloadRecord};
use crate::workloads::{
    AnyPolicy, Plan, ScenarioInputs, ScenarioPlan, SinglePlan, Tenant, FLEET_WORKERS,
};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use thermo_exec::ExecConfig;
use thermo_scenario::library::HOUR_NS;
use thermo_sim::{
    run_for, run_tenants_coscheduled, run_tenants_sharded, Access, Engine, EngineStats,
    FabricStats, FootprintBreakdown, PressureStats, RunOutcome, ShardOutcome, Workload,
};
use thermo_util::json::encode;
use thermostat::DaemonStats;

/// Virtual interval between residency checks of a single-tenant run.
const SINGLE_CHECK_NS: u64 = 1_000_000_000;

/// Virtual interval between residency checks of a scenario tenant.
const SCENARIO_CHECK_NS: u64 = HOUR_NS;

/// Everything a tenant's run produced that the digest and the simulated
/// metrics read.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantResult {
    pub outcome: RunOutcome,
    pub stats: EngineStats,
    pub breakdown: FootprintBreakdown,
    /// Final counters for single-tenant runs; as of the tenant's last
    /// policy tick for runner-driven ones (the engine is not reachable
    /// after a runner returns).
    pub fabric: FabricStats,
    pub pressure: PressureStats,
    pub policy: String,
    pub daemon: Option<DaemonStats>,
    pub inflight_peak: u64,
    /// The §4.3 online slowdown estimate over the measured phase
    /// (single-tenant) or the whole run (scenarios), percent.
    pub slowdown_pct: f64,
}

impl TenantResult {
    fn digest_text(&self) -> String {
        format!(
            "{} {} {} {:?} {} {}",
            encode(&self.outcome),
            encode(&self.stats),
            encode(&self.breakdown),
            self.fabric,
            encode(&self.pressure),
            self.policy,
        )
    }
}

/// Host time attributed to each layer in a traced repetition, seconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    pub build_s: f64,
    pub init_s: f64,
    pub warmup_s: f64,
    pub gen_ops: u64,
    pub gen_s: f64,
    /// Accesses the generators emitted over the whole run.
    pub accesses: u64,
    /// Access-pipeline self time; `None` where no timer surrounds it
    /// (inside the co-scheduler, which is then part of the residual).
    pub access_s: Option<f64>,
    pub policy_ticks: u64,
    pub policy_s: f64,
    /// Co-scheduled runner time no decorator sees (access pipeline plus
    /// event scheduling).
    pub residual_s: f64,
    pub exec_jobs: u64,
    pub exec_busy_s: f64,
    pub exec_busy_frac: f64,
    pub exec_tail_s: f64,
    /// Host time covered by a timer at a layer boundary.
    pub explained_s: f64,
    /// Host time the run had: wall-clock times the threads doing the work.
    pub available_s: f64,
}

/// One repetition's measurements and checks.
#[derive(Debug, Clone)]
pub struct Rep {
    pub traced: bool,
    pub wall_s: f64,
    pub setup_s: f64,
    pub measured_s: f64,
    pub measured_accesses: u64,
    pub tenants: Vec<TenantResult>,
    /// Applied arbiter decisions: grants, reclaims, defers.
    pub arbiter: [u64; 3],
    pub digest: u64,
    pub checks: Vec<(&'static str, bool)>,
    pub layers: Layers,
    /// Raw spans as JSON lines (traced repetitions only).
    pub spans: Vec<String>,
}

/// Runs one repetition of `plan`.
///
/// # Panics
///
/// Panics when a runner reports a panicked tenant; the caller turns that
/// into failed checks.
pub fn run(plan: &Plan, traced: bool) -> Rep {
    match plan {
        Plan::Single(p) => single(p, traced),
        Plan::Storm(p) => storm(p, traced),
        Plan::Fleet(p) => fleet(p, traced),
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn since(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// 64-bit FNV-1a over `bytes`, chained from `h`.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest(tenants: &[TenantResult], extra: &[String]) -> u64 {
    let texts = tenants.iter().map(TenantResult::digest_text);
    texts
        .chain(extra.iter().cloned())
        .fold(FNV_OFFSET, |h, t| fnv1a64(fnv1a64(h, t.as_bytes()), b"\n"))
}

fn tally_checks(tally: &Tally, complete: bool, emitted_ok: bool) -> Vec<(&'static str, bool)> {
    vec![
        (
            "rss_matches_breakdown",
            tally.rss_checked > 0 && tally.rss_failed == 0,
        ),
        (
            "fabric_txns_balance",
            tally.fabric_checked > 0 && tally.fabric_failed == 0,
        ),
        ("outcomes_complete", complete),
        ("emitted_matches_engine_accesses", emitted_ok),
    ]
}

// ---------------------------------------------------------------------
// Single tenant through run_for
// ---------------------------------------------------------------------

/// Per-op and per-tick timings of [`traced_run_for`].
#[derive(Debug)]
pub struct LoopTimes {
    origin: Instant,
    pub ops: u64,
    pub accesses: u64,
    pub gen_ns: u64,
    pub access_ns: u64,
    pub ticks: Vec<TickSpan>,
    pub inflight_peak: u64,
    pub checker: Checker,
}

impl LoopTimes {
    pub fn new(origin: Instant, check_period_ns: u64) -> Self {
        Self {
            origin,
            ops: 0,
            accesses: 0,
            gen_ns: 0,
            access_ns: 0,
            ticks: Vec::new(),
            inflight_peak: 0,
            checker: Checker::new(check_period_ns),
        }
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// `run_for`'s call sequence with a timer between every call: `next_op`
/// is the generator layer, the op's `access` batch plus
/// `advance_compute` the access pipeline, and each `tick` the policy.
/// The clock is read twice per op.
pub fn traced_run_for(
    engine: &mut Engine,
    workload: &mut dyn Workload,
    policy: &mut AnyPolicy,
    duration_ns: u64,
    lt: &mut LoopTimes,
) -> RunOutcome {
    let start = engine.now_ns();
    let deadline = start.saturating_add(duration_ns);
    let mut ops = 0u64;
    let mut accesses: Vec<Access> = Vec::with_capacity(16);
    let mut due = policy.hook_ref().next_due_ns();
    let mut t = Instant::now();
    while engine.now_ns() < deadline {
        if due <= engine.now_ns() {
            while due <= engine.now_ns() {
                let before = engine.fabric().in_flight() as u64;
                let t0 = Instant::now();
                policy.hook().tick(engine);
                let t1 = Instant::now();
                lt.ticks.push(TickSpan {
                    start_ns: ns_between(lt.origin, t0),
                    dur_ns: ns_between(t0, t1),
                });
                let after = engine.fabric().in_flight() as u64;
                lt.inflight_peak = lt.inflight_peak.max(before).max(after);
                lt.checker.after_tick(engine);
                due = policy.hook_ref().next_due_ns();
            }
            t = Instant::now();
        }
        accesses.clear();
        let Some(compute_ns) = workload.next_op(engine.now_ns(), &mut accesses) else {
            break;
        };
        let t1 = Instant::now();
        for a in &accesses {
            engine.access(a.va, a.write);
        }
        engine.advance_compute(compute_ns);
        let t2 = Instant::now();
        lt.gen_ns += ns_between(t, t1);
        lt.access_ns += ns_between(t1, t2);
        lt.ops += 1;
        lt.accesses += accesses.len() as u64;
        ops += 1;
        t = t2;
    }
    RunOutcome {
        ops,
        start_ns: start,
        end_ns: engine.now_ns(),
    }
}

fn single_result(
    engine: &Engine,
    warm: RunOutcome,
    measured: RunOutcome,
    before: &EngineStats,
    policy: (&str, Option<DaemonStats>, u64),
) -> TenantResult {
    let stats = engine.stats();
    let (text, daemon, inflight_peak) = policy;
    TenantResult {
        outcome: RunOutcome {
            ops: warm.ops + measured.ops,
            start_ns: warm.start_ns,
            end_ns: measured.end_ns,
        },
        stats,
        breakdown: engine.footprint_breakdown(),
        fabric: engine.fabric_stats(),
        pressure: engine.pressure_stats(),
        policy: text.to_string(),
        daemon,
        inflight_peak,
        slowdown_pct: stats.estimated_slowdown_pct(before, engine.config().trap.fault_latency_ns),
    }
}

fn single(plan: &SinglePlan, traced: bool) -> Rep {
    let t0 = Instant::now();
    let tenant = Tenant {
        engine: Engine::new(plan.sim_config()),
        workload: plan.workload(),
        policy: plan.policy(),
    };
    if traced {
        single_traced(plan, t0, tenant)
    } else {
        single_untraced(plan, t0, tenant)
    }
}

fn single_untraced(plan: &SinglePlan, t0: Instant, tenant: Tenant) -> Rep {
    let sink = Sink::new(false, u64::MAX, SINGLE_CHECK_NS);
    let (mut engine, mut workload, mut policy) = sink.wrap(0, t0, tenant);
    workload.init(&mut engine);
    sink.set_measure_from(engine.now_ns().saturating_add(plan.warmup_ns));
    let warm = run_for(
        &mut engine,
        workload.as_mut(),
        policy.as_mut(),
        plan.warmup_ns,
    );
    let t1 = Instant::now();
    let before = engine.stats();
    let measured = run_for(
        &mut engine,
        workload.as_mut(),
        policy.as_mut(),
        plan.measure_ns,
    );
    let t2 = Instant::now();
    drop(workload);
    drop(policy);
    let (w, p) = sink.take();
    let (w, p) = (&w[0], &p[0]);
    let mut tally = p.checks;
    tally.check(&engine, true);
    let t = single_result(
        &engine,
        warm,
        measured,
        &before,
        (&p.stats_text, p.daemon, p.inflight_peak),
    );
    let growth = t.stats.accesses - before.accesses;
    let complete = measured.ops > 0 && warm.ops > 0;
    Rep {
        traced: false,
        wall_s: since(t0, t2),
        setup_s: since(t0, t1),
        measured_s: since(t1, t2),
        measured_accesses: w.measured_accesses,
        arbiter: [0; 3],
        digest: digest(std::slice::from_ref(&t), &[]),
        checks: tally_checks(&tally, complete, w.measured_accesses == growth),
        tenants: vec![t],
        layers: Layers::default(),
        spans: Vec::new(),
    }
}

fn single_traced(plan: &SinglePlan, t0: Instant, tenant: Tenant) -> Rep {
    let Tenant {
        mut engine,
        mut workload,
        mut policy,
    } = tenant;
    let t_init = Instant::now();
    workload.init(&mut engine);
    let t_warm = Instant::now();
    let mut lt = LoopTimes::new(t0, SINGLE_CHECK_NS);
    let warm = traced_run_for(
        &mut engine,
        workload.as_mut(),
        &mut policy,
        plan.warmup_ns,
        &mut lt,
    );
    let t1 = Instant::now();
    let before = engine.stats();
    let emitted_before = lt.accesses;
    let measured = traced_run_for(
        &mut engine,
        workload.as_mut(),
        &mut policy,
        plan.measure_ns,
        &mut lt,
    );
    let t2 = Instant::now();
    let mut tally = lt.checker.tally;
    tally.check(&engine, true);
    let text = policy.stats_text();
    let t = single_result(
        &engine,
        warm,
        measured,
        &before,
        (&text, policy.daemon_stats(), lt.inflight_peak),
    );
    let measured_accesses = lt.accesses - emitted_before;
    let growth = t.stats.accesses - before.accesses;
    let complete = measured.ops > 0 && warm.ops > 0;

    let build_s = since(t0, t_init);
    let init_s = since(t_init, t_warm);
    let gen_s = secs(lt.gen_ns);
    let access_s = secs(lt.access_ns);
    let policy_s = secs(lt.ticks.iter().map(|s| s.dur_ns).sum());
    let wall_s = since(t0, t2);
    let layers = Layers {
        build_s,
        init_s,
        warmup_s: since(t_warm, t1),
        gen_ops: lt.ops,
        gen_s,
        accesses: lt.accesses,
        access_s: Some(access_s),
        policy_ticks: lt.ticks.len() as u64,
        policy_s,
        explained_s: build_s + init_s + gen_s + access_s + policy_s,
        available_s: wall_s,
        ..Layers::default()
    };
    let mut spans = SpanLog::default();
    let root = spans.span(None, "rep", None, 0, ns_between(t0, t2));
    let ten = spans.span(Some(root), "tenant", Some(0), 0, ns_between(t0, t2));
    spans.span(Some(ten), "build", Some(0), 0, ns_between(t0, t_init));
    spans.span(
        Some(ten),
        "init",
        Some(0),
        ns_between(t0, t_init),
        ns_between(t_init, t_warm),
    );
    for s in &lt.ticks {
        spans.span(Some(ten), "tick", Some(0), s.start_ns, s.dur_ns);
    }
    spans.aggregate(ten, "gen", 0, lt.ops, lt.gen_ns);
    spans.aggregate(ten, "access", 0, lt.accesses, lt.access_ns);
    Rep {
        traced: true,
        wall_s,
        setup_s: since(t0, t1),
        measured_s: since(t1, t2),
        measured_accesses,
        arbiter: [0; 3],
        digest: digest(std::slice::from_ref(&t), &[]),
        checks: tally_checks(&tally, complete, measured_accesses == growth),
        tenants: vec![t],
        layers,
        spans: spans.lines,
    }
}

// ---------------------------------------------------------------------
// Scenarios through the program's multi-tenant runners
// ---------------------------------------------------------------------

/// Joins the per-tenant decorator records with the runner's outcomes.
fn scenario_results(
    shards: &[ShardOutcome],
    pressure: Option<&[PressureStats]>,
    p: &[PolicyRecord],
    fault_ns: u64,
) -> Vec<TenantResult> {
    let by_tenant: BTreeMap<u64, &PolicyRecord> = p.iter().map(|r| (r.tenant, r)).collect();
    shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let rec = by_tenant.get(&s.shard_id);
            TenantResult {
                outcome: s.outcome,
                stats: s.stats,
                breakdown: s.breakdown,
                fabric: rec.map(|r| r.fabric).unwrap_or_default(),
                pressure: pressure.map(|ps| ps[i]).unwrap_or_default(),
                policy: rec.map(|r| r.stats_text.clone()).unwrap_or_default(),
                daemon: rec.and_then(|r| r.daemon),
                inflight_peak: rec.map_or(0, |r| r.inflight_peak),
                slowdown_pct: s
                    .stats
                    .estimated_slowdown_pct(&EngineStats::default(), fault_ns),
            }
        })
        .collect()
}

/// The runner returned every tenant, in shard-id order, each having run.
fn complete(shards: &[ShardOutcome], n: usize, w: &[WorkloadRecord]) -> bool {
    shards.len() == n
        && w.len() == n
        && shards
            .iter()
            .enumerate()
            .all(|(i, s)| s.shard_id == i as u64 && s.outcome.ops > 0)
}

/// Each generator emitted exactly the accesses its engine counted after
/// `init`.
fn emitted_ok(shards: &[ShardOutcome], w: &[WorkloadRecord]) -> bool {
    shards.len() == w.len()
        && shards.iter().zip(w).all(|(s, r)| {
            s.shard_id == r.tenant && r.accesses == s.stats.accesses - r.accesses_after_init
        })
}

fn policy_tally(p: &[PolicyRecord]) -> Tally {
    let mut t = Tally::default();
    for r in p {
        t.add(&r.checks);
    }
    t
}

fn scenario_spans(sink: &Sink, w: &[WorkloadRecord], p: &[PolicyRecord], end: Instant) -> SpanLog {
    let mut spans = SpanLog::default();
    let root = spans.span(None, "rep", None, 0, sink.offset_ns(end));
    let mut ids = BTreeMap::new();
    for r in w {
        let id = spans.span(
            Some(root),
            "tenant",
            Some(r.tenant),
            r.build_start_ns,
            r.end_ns - r.build_start_ns,
        );
        ids.insert(r.tenant, id);
        spans.span(
            Some(id),
            "build",
            Some(r.tenant),
            r.build_start_ns,
            r.build_ns,
        );
        spans.span(Some(id), "init", Some(r.tenant), r.init_start_ns, r.init_ns);
        spans.aggregate(id, "gen", r.tenant, r.ops, r.gen_ns);
    }
    for r in p {
        let parent = ids.get(&r.tenant).copied();
        for s in &r.tick_spans {
            spans.span(parent, "tick", Some(r.tenant), s.start_ns, s.dur_ns);
        }
    }
    spans
}

fn storm(plan: &ScenarioPlan, traced: bool) -> Rep {
    let sink = Sink::new(traced, plan.warmup_ns, SCENARIO_CHECK_NS);
    let t0 = sink.origin;
    let inputs = ScenarioInputs::compile(plan, true);
    let compile_s = since(t0, Instant::now());
    let n = inputs.compiled.n_tenants();
    let out = run_tenants_coscheduled(n, plan.duration_ns, plan.params.seed, None, |t, _| {
        let b0 = Instant::now();
        sink.wrap(t, b0, inputs.storm_tenant(t))
    })
    .unwrap_or_else(|e| panic!("storm_cosched run failed: {e}"));
    let t_end = Instant::now();
    let (w, p) = sink.take();
    let boundary = sink.boundary().unwrap_or(t_end);
    let tenants = scenario_results(&out.shards, Some(&out.pressure), &p, inputs.fault_ns());
    let count = |a: &str| out.trace.iter().filter(|e| e.action == a).count() as u64;
    let arbiter = [count("grant"), count("reclaim"), count("defer")];
    let events: Vec<String> = out.trace.iter().map(encode).collect();

    let wall_s = since(t0, t_end);
    let mut layers = Layers::default();
    let mut spans = Vec::new();
    if traced {
        let build_s = compile_s + secs(w.iter().map(|r| r.build_ns).sum());
        let init_s = secs(w.iter().map(|r| r.init_ns).sum());
        let built_ns = w
            .iter()
            .map(|r| r.init_start_ns + r.init_ns)
            .max()
            .unwrap_or(0);
        let gen_s = secs(w.iter().map(|r| r.gen_ns).sum());
        let policy_s = secs(p.iter().flat_map(|r| &r.tick_spans).map(|s| s.dur_ns).sum());
        let explained_s = build_s + init_s + gen_s + policy_s;
        layers = Layers {
            build_s,
            init_s,
            warmup_s: secs(sink.offset_ns(boundary).saturating_sub(built_ns)),
            gen_ops: w.iter().map(|r| r.ops).sum(),
            gen_s,
            accesses: w.iter().map(|r| r.accesses).sum(),
            access_s: None,
            policy_ticks: p.iter().map(|r| r.ticks).sum(),
            policy_s,
            residual_s: (wall_s - explained_s).max(0.0),
            explained_s,
            available_s: wall_s,
            ..Layers::default()
        };
        spans = scenario_spans(&sink, &w, &p, t_end).lines;
    }
    Rep {
        traced,
        wall_s,
        setup_s: since(t0, boundary),
        measured_s: since(boundary, t_end),
        measured_accesses: w.iter().map(|r| r.measured_accesses).sum(),
        arbiter,
        digest: digest(&tenants, &events),
        checks: tally_checks(
            &policy_tally(&p),
            complete(&out.shards, n, &w),
            emitted_ok(&out.shards, &w),
        ),
        tenants,
        layers,
        spans,
    }
}

fn fleet(plan: &ScenarioPlan, traced: bool) -> Rep {
    let sink = Sink::new(traced, plan.warmup_ns, SCENARIO_CHECK_NS);
    let t0 = sink.origin;
    let inputs = ScenarioInputs::compile(plan, false);
    let t_run = Instant::now();
    let n = inputs.fleet_shards();
    let cfg = ExecConfig::new(FLEET_WORKERS, plan.params.seed);
    let shards = run_tenants_sharded(n, plan.duration_ns, &cfg, |shard, _| {
        let b0 = Instant::now();
        sink.wrap(shard, b0, inputs.fleet_tenant(shard))
    })
    .unwrap_or_else(|e| panic!("fleet_sharded run failed: {e}"));
    let t_end = Instant::now();
    let (w, p) = sink.take();
    let tenants = scenario_results(&shards, None, &p, inputs.fault_ns());

    let compile_s = since(t0, t_run);
    let run_s = since(t_run, t_end);
    let build_s = compile_s + secs(w.iter().map(|r| r.build_ns).sum());
    let init_s = secs(w.iter().map(|r| r.init_ns).sum());
    let mut layers = Layers::default();
    let mut spans = Vec::new();
    if traced {
        let gen_ns: u64 = w.iter().map(|r| r.gen_ns).sum();
        let tick_ns: u64 = p.iter().flat_map(|r| &r.tick_spans).map(|s| s.dur_ns).sum();
        let busy_ns: u64 = w.iter().map(|r| r.end_ns - r.build_start_ns).sum();
        let built_ns: u64 = w.iter().map(|r| r.build_ns + r.init_ns).sum();
        let mut last_end: HashMap<std::thread::ThreadId, u64> = HashMap::new();
        for r in &w {
            let e = last_end.entry(r.thread).or_default();
            *e = (*e).max(r.end_ns);
        }
        let ends = last_end.values();
        let tail_ns = ends.clone().max().unwrap_or(&0) - ends.min().unwrap_or(&0);
        let available_s = compile_s + FLEET_WORKERS as f64 * run_s;
        layers = Layers {
            build_s,
            init_s,
            gen_ops: w.iter().map(|r| r.ops).sum(),
            gen_s: secs(gen_ns),
            accesses: w.iter().map(|r| r.accesses).sum(),
            // A shard span holds construction, then `run_for`, whose only
            // untimed work is the access pipeline.
            access_s: Some(secs(busy_ns.saturating_sub(built_ns + gen_ns + tick_ns))),
            policy_ticks: p.iter().map(|r| r.ticks).sum(),
            policy_s: secs(tick_ns),
            exec_jobs: w.len() as u64,
            exec_busy_s: secs(busy_ns),
            exec_busy_frac: secs(busy_ns) / (FLEET_WORKERS as f64 * run_s),
            exec_tail_s: secs(tail_ns),
            explained_s: build_s + init_s + secs(gen_ns + tick_ns),
            available_s,
            ..Layers::default()
        };
        spans = scenario_spans(&sink, &w, &p, t_end).lines;
    }
    Rep {
        traced,
        wall_s: since(t0, t_end),
        // Shards are built on the workers, interleaved with other shards'
        // runs: set-up is their summed construction time, and the
        // measured phase is the whole runner call.
        setup_s: build_s + init_s,
        measured_s: run_s,
        measured_accesses: w.iter().map(|r| r.measured_accesses).sum(),
        arbiter: [0; 3],
        digest: digest(&tenants, &[]),
        checks: tally_checks(
            &policy_tally(&p),
            complete(&shards, n, &w),
            emitted_ok(&shards, &w),
        ),
        tenants,
        layers,
        spans,
    }
}

// ---------------------------------------------------------------------
// Raw span output
// ---------------------------------------------------------------------

/// Spans and per-op aggregates as JSON lines, ids assigned in order.
#[derive(Debug, Default)]
struct SpanLog {
    lines: Vec<String>,
    next: u64,
}

impl SpanLog {
    fn span(
        &mut self,
        parent: Option<u64>,
        name: &str,
        tenant: Option<u64>,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        let id = self.next;
        self.next += 1;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        self.lines.push(format!(
            "{{\"id\": {id}, \"parent\": {}, \"name\": \"{name}\", \"tenant\": {}, \"start_ns\": {start_ns}, \"dur_ns\": {dur_ns}}}",
            opt(parent),
            opt(tenant),
        ));
        id
    }

    fn aggregate(&mut self, parent: u64, name: &str, tenant: u64, count: u64, total_ns: u64) {
        self.lines.push(format!(
            "{{\"parent\": {parent}, \"name\": \"{name}\", \"tenant\": {tenant}, \"count\": {count}, \"total_ns\": {total_ns}}}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{plan, Size, WorkloadId};

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_repeats_and_traced_copy_is_faithful() {
        for w in WorkloadId::ALL {
            let p = plan(w, Size::Tiny, 11);
            let a = run(&p, false);
            let b = run(&p, false);
            let t = run(&p, true);
            assert_eq!(a.digest, b.digest, "{}: repeated runs differ", w.name());
            assert_eq!(a.tenants, b.tenants, "{}", w.name());
            assert_eq!(a.digest, t.digest, "{}: traced run differs", w.name());
            for (name, ok) in a.checks.iter().chain(&t.checks) {
                assert!(ok, "{}: check {name} failed", w.name());
            }
        }
    }

    #[test]
    fn the_seed_reaches_the_simulation() {
        let p = |seed| plan(WorkloadId::TpccScan, Size::Tiny, seed);
        assert_ne!(run(&p(1), false).digest, run(&p(2), false).digest);
    }
}
