//! Decorators around the program's `Workload` and `PolicyHook` traits,
//! for runs that go through the program's own multi-tenant runners.
//!
//! Untraced, they only count (ops, emitted accesses, ticks) and check
//! invariants at policy ticks, which is where the engine is reachable
//! from outside a runner. Traced, they also time every `next_op` and
//! `tick`. Per-op timings are summed in the decorator; ticks are kept as
//! individual spans. Per-op work touches only the decorator's own fields
//! (plus one lock when a tenant first reaches the measured phase); each
//! decorator publishes one record into the [`Sink`] when the runner drops
//! it.

use crate::workloads::{AnyPolicy, Tenant};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;
use thermo_sim::{Access, Engine, FabricStats, FootprintInfo, PolicyHook, Workload};
use thermostat::DaemonStats;

/// Collects the records of one runner call.
#[derive(Debug)]
pub struct Sink {
    /// Zero of every offset in the records.
    pub origin: Instant,
    pub traced: bool,
    /// Ops at or after this virtual time are in the measured phase. Set
    /// before the run reaches it; `Relaxed`, as it publishes no other data.
    measure_from_ns: AtomicU64,
    /// Virtual interval between the O(footprint) residency checks.
    pub check_period_ns: u64,
    builds: AtomicU64,
    boundary: Mutex<Option<Instant>>,
    workloads: Mutex<Vec<WorkloadRecord>>,
    policies: Mutex<Vec<PolicyRecord>>,
}

/// What one tenant's workload decorator saw. Offsets are ns from
/// [`Sink::origin`].
#[derive(Debug, Clone)]
pub struct WorkloadRecord {
    pub tenant: u64,
    /// Which `build` call made this tenant (shared with its policy).
    pub build: u64,
    /// Whether the runner initialised and ran it; `run_tenants_sharded`
    /// also builds tenant 0 once as a config probe and drops it unused.
    pub initialized: bool,
    pub thread: ThreadId,
    pub build_start_ns: u64,
    pub build_ns: u64,
    pub init_start_ns: u64,
    pub init_ns: u64,
    /// When the runner dropped the tenant, after its last op.
    pub end_ns: u64,
    pub ops: u64,
    /// Accesses the generator emitted.
    pub accesses: u64,
    /// Of which in ops of the measured phase.
    pub measured_accesses: u64,
    /// `EngineStats::accesses` right after `init`.
    pub accesses_after_init: u64,
    /// Host time inside `next_op` (traced runs only).
    pub gen_ns: u64,
}

/// A policy tick kept as its own span.
#[derive(Debug, Clone, Copy)]
pub struct TickSpan {
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// What one tenant's policy decorator saw.
#[derive(Debug, Clone)]
pub struct PolicyRecord {
    pub tenant: u64,
    pub build: u64,
    pub stats_text: String,
    pub daemon: Option<DaemonStats>,
    pub ticks: u64,
    /// Every tick (traced runs only).
    pub tick_spans: Vec<TickSpan>,
    /// Fabric counters as of the tenant's last tick.
    pub fabric: FabricStats,
    pub inflight_peak: u64,
    pub checks: Tally,
}

/// Pass/fail counts of one invariant family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub rss_checked: u64,
    pub rss_failed: u64,
    pub fabric_checked: u64,
    pub fabric_failed: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.rss_checked += o.rss_checked;
        self.rss_failed += o.rss_failed;
        self.fabric_checked += o.fabric_checked;
        self.fabric_failed += o.fabric_failed;
    }

    /// Checks the engine-wide invariants that hold at any op boundary:
    /// mapped bytes equal the footprint breakdown (only when `full`, as
    /// the breakdown walks every leaf), and every fabric transaction ever
    /// begun is committed, aborted or still in flight.
    pub fn check(&mut self, engine: &Engine, full: bool) {
        if full {
            self.rss_checked += 1;
            if engine.rss_bytes() != engine.footprint_breakdown().total() {
                self.rss_failed += 1;
            }
        }
        let f = engine.fabric_stats();
        self.fabric_checked += 1;
        if f.begun != f.committed + f.aborted + engine.fabric().in_flight() as u64 {
            self.fabric_failed += 1;
        }
    }
}

/// Runs the invariant checks after each policy tick: the cheap ones
/// every tick, the residency walk at most once per `period_ns` of virtual
/// time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checker {
    pub tally: Tally,
    period_ns: u64,
    next_full_ns: u64,
}

impl Checker {
    pub fn new(period_ns: u64) -> Self {
        Self {
            period_ns,
            ..Self::default()
        }
    }

    pub fn after_tick(&mut self, engine: &Engine) {
        let full = engine.now_ns() >= self.next_full_ns;
        if full {
            self.next_full_ns = engine.now_ns() + self.period_ns;
        }
        self.tally.check(engine, full);
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking tenant poisons nothing the records depend on: each push
    // is a single append.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Sink {
    pub fn new(traced: bool, measure_from_ns: u64, check_period_ns: u64) -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            traced,
            measure_from_ns: AtomicU64::new(measure_from_ns),
            check_period_ns,
            builds: AtomicU64::new(0),
            boundary: Mutex::new(None),
            workloads: Mutex::new(Vec::new()),
            policies: Mutex::new(Vec::new()),
        })
    }

    pub fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Moves the start of the measured phase (before any op reaches it).
    pub fn set_measure_from(&self, ns: u64) {
        self.measure_from_ns.store(ns, Ordering::Relaxed);
    }

    /// Host instant of the first op in the measured phase, if one ran.
    pub fn boundary(&self) -> Option<Instant> {
        *lock(&self.boundary)
    }

    /// Wraps a freshly built tenant for a runner's `build` closure;
    /// `build_start` is when its construction began.
    pub fn wrap(
        self: &Arc<Self>,
        tenant: u64,
        build_start: Instant,
        t: Tenant,
    ) -> (Engine, Box<dyn Workload>, Box<dyn PolicyHook>) {
        let build_ns = build_start.elapsed().as_nanos() as u64;
        // Relaxed: the counter only hands out distinct ids.
        let build = self.builds.fetch_add(1, Ordering::Relaxed);
        let w = ProbedWorkload {
            inner: t.workload,
            sink: Arc::clone(self),
            rec: WorkloadRecord {
                tenant,
                build,
                initialized: false,
                thread: std::thread::current().id(),
                build_start_ns: self.offset_ns(build_start),
                build_ns,
                init_start_ns: 0,
                init_ns: 0,
                end_ns: 0,
                ops: 0,
                accesses: 0,
                measured_accesses: 0,
                accesses_after_init: 0,
                gen_ns: 0,
            },
            in_measure: false,
        };
        let p = ProbedPolicy {
            inner: t.policy,
            sink: Arc::clone(self),
            tenant,
            build,
            ticks: 0,
            tick_spans: Vec::new(),
            fabric: FabricStats::default(),
            inflight_peak: 0,
            checker: Checker::new(self.check_period_ns),
        };
        (t.engine, Box::new(w), Box::new(p))
    }

    /// The records of every tenant the runner ran, each list sorted by
    /// tenant.
    pub fn take(&self) -> (Vec<WorkloadRecord>, Vec<PolicyRecord>) {
        let mut w = std::mem::take(&mut *lock(&self.workloads));
        let mut p = std::mem::take(&mut *lock(&self.policies));
        w.retain(|r| r.initialized);
        let ran: BTreeSet<u64> = w.iter().map(|r| r.build).collect();
        p.retain(|r| ran.contains(&r.build));
        w.sort_by_key(|r| r.tenant);
        p.sort_by_key(|r| r.tenant);
        (w, p)
    }
}

/// Times and counts one tenant's `Workload`.
struct ProbedWorkload {
    inner: Box<dyn Workload>,
    sink: Arc<Sink>,
    rec: WorkloadRecord,
    in_measure: bool,
}

impl Workload for ProbedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, engine: &mut Engine) {
        let t0 = Instant::now();
        self.inner.init(engine);
        self.rec.init_ns = t0.elapsed().as_nanos() as u64;
        self.rec.init_start_ns = self.sink.offset_ns(t0);
        self.rec.initialized = true;
        self.rec.accesses_after_init = engine.stats().accesses;
    }

    fn next_op(&mut self, now_ns: u64, accesses: &mut Vec<Access>) -> Option<u64> {
        let out = if self.sink.traced {
            let t0 = Instant::now();
            let out = self.inner.next_op(now_ns, accesses);
            self.rec.gen_ns += t0.elapsed().as_nanos() as u64;
            out
        } else {
            self.inner.next_op(now_ns, accesses)
        };
        if out.is_some() {
            let n = accesses.len() as u64;
            self.rec.ops += 1;
            self.rec.accesses += n;
            if !self.in_measure && now_ns >= self.sink.measure_from_ns.load(Ordering::Relaxed) {
                self.in_measure = true;
                let mut b = lock(&self.sink.boundary);
                b.get_or_insert_with(Instant::now);
            }
            if self.in_measure {
                self.rec.measured_accesses += n;
            }
        }
        out
    }

    fn footprint(&self) -> FootprintInfo {
        self.inner.footprint()
    }
}

impl Drop for ProbedWorkload {
    fn drop(&mut self) {
        self.rec.end_ns = self.sink.offset_ns(Instant::now());
        lock(&self.sink.workloads).push(self.rec.clone());
    }
}

/// Times one tenant's policy ticks and checks engine invariants after
/// each.
struct ProbedPolicy {
    inner: AnyPolicy,
    sink: Arc<Sink>,
    tenant: u64,
    build: u64,
    ticks: u64,
    tick_spans: Vec<TickSpan>,
    fabric: FabricStats,
    inflight_peak: u64,
    checker: Checker,
}

impl PolicyHook for ProbedPolicy {
    fn next_due_ns(&self) -> u64 {
        self.inner.hook_ref().next_due_ns()
    }

    fn tick(&mut self, engine: &mut Engine) {
        let before = engine.fabric().in_flight() as u64;
        if self.sink.traced {
            let t0 = Instant::now();
            self.inner.hook().tick(engine);
            let dur_ns = t0.elapsed().as_nanos() as u64;
            self.tick_spans.push(TickSpan {
                start_ns: self.sink.offset_ns(t0),
                dur_ns,
            });
        } else {
            self.inner.hook().tick(engine);
        }
        self.ticks += 1;
        let after = engine.fabric().in_flight() as u64;
        self.inflight_peak = self.inflight_peak.max(before).max(after);
        self.checker.after_tick(engine);
        self.fabric = engine.fabric_stats();
    }

    fn policy_name(&self) -> &str {
        self.inner.hook_ref().policy_name()
    }
}

impl Drop for ProbedPolicy {
    fn drop(&mut self) {
        let rec = PolicyRecord {
            tenant: self.tenant,
            build: self.build,
            stats_text: self.inner.stats_text(),
            daemon: self.inner.daemon_stats(),
            ticks: self.ticks,
            tick_spans: std::mem::take(&mut self.tick_spans),
            fabric: self.fabric,
            inflight_peak: self.inflight_peak,
            checks: self.checker.tally,
        };
        lock(&self.sink.policies).push(rec);
    }
}
