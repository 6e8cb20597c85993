//! Shared experiment machinery: engine construction at evaluation scale,
//! paired baseline/Thermostat runs, and the knobs every harness binary
//! understands.
//!
//! Environment overrides (useful for quick smoke runs):
//!
//! * `THERMO_SCALE` — footprint divisor vs the paper's Table 2 (default 16);
//! * `THERMO_DURATION_SECS` — virtual seconds per measured run (default 120);
//! * `THERMO_PERIOD_SECS` — Thermostat sampling period (default 3; the
//!   paper's 30s compressed 10x together with the run length).

use thermo_sim::{
    run_for_instrumented, Engine, LatencyHistogram, NoPolicy, PolicyHook, RunOutcome, SimConfig,
};
use thermo_util::rng::count_from_env;
use thermo_workloads::{AppConfig, AppId};
use thermostat::{Daemon, DaemonStats, PeriodRecord, ThermostatConfig};

/// Evaluation-scale parameters shared by all harness binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalParams {
    /// Footprint divisor vs the paper (Table 2).
    pub scale: u64,
    /// Measured run length, virtual ns.
    pub duration_ns: u64,
    /// Thermostat sampling period, virtual ns.
    pub sampling_period_ns: u64,
    /// Tolerable slowdown, percent.
    pub tolerable_slowdown_pct: f64,
    /// YCSB read percentage.
    pub read_pct: u8,
    /// Seed for both workload and policy randomness.
    pub seed: u64,
    /// Transparent huge pages enabled (Table 1 turns them off).
    pub thp: bool,
    /// Track exact access counts (Figure 2 / hardware-counter ablations).
    pub track_true_access: bool,
}

impl EvalParams {
    /// Paper-shaped defaults with environment overrides applied
    /// (`THERMO_SCALE`, `THERMO_DURATION_SECS`, `THERMO_PERIOD_SECS`).
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and its value, when one of them is set
    /// but is not a non-negative decimal integer.
    pub fn from_env() -> Self {
        let scale = count_from_env("THERMO_SCALE").unwrap_or(16);
        let duration = count_from_env("THERMO_DURATION_SECS").unwrap_or(120);
        let period = count_from_env("THERMO_PERIOD_SECS").unwrap_or(3);
        Self {
            scale,
            duration_ns: duration * 1_000_000_000,
            sampling_period_ns: period * 1_000_000_000,
            tolerable_slowdown_pct: 3.0,
            read_pct: 95,
            seed: 0xa5_2017,
            thp: true,
            track_true_access: false,
        }
    }

    /// Fixed smoke-scale parameters for the golden-artifact regression
    /// harness (`golden` binary, determinism tests).
    ///
    /// Deliberately ignores the `THERMO_*` environment overrides: golden
    /// expectations are only comparable when every run uses the exact
    /// same scale, duration, and seed. Small enough that the full
    /// fig5–fig10 + tab2–tab4 sweep stays in CI smoke-test territory,
    /// large enough that each run completes several sampling periods.
    pub fn smoke() -> Self {
        Self {
            scale: 512,
            duration_ns: 1_500_000_000,
            sampling_period_ns: 250_000_000,
            tolerable_slowdown_pct: 3.0,
            read_pct: 95,
            seed: 0xa5_2017,
            thp: true,
            track_true_access: false,
        }
    }

    /// Fixed full evaluation-scale parameters for the opt-in second
    /// golden tier (`scripts/golden.sh check --full`, ROADMAP item 2):
    /// the 1/16 scale and timing the figure binaries default to, but
    /// frozen like [`EvalParams::smoke`] so full-tier goldens stay
    /// comparable across machines. Roughly 80x the smoke duration at 32x
    /// the footprint — affordable only because the registry fans out
    /// across the `thermo-exec` pool; not part of default CI, and its
    /// goldens are blessed separately under `goldens/full/`.
    pub fn full() -> Self {
        Self {
            scale: 16,
            duration_ns: 120_000_000_000,
            sampling_period_ns: 3_000_000_000,
            tolerable_slowdown_pct: 3.0,
            read_pct: 95,
            seed: 0xa5_2017,
            thp: true,
            track_true_access: false,
        }
    }

    /// Simulator configuration sized for `app` at this scale.
    ///
    /// The TLB and LLC scale with the footprint (DESIGN.md §1): the
    /// footprint-to-TLB-reach and footprint-to-LLC ratios are what put the
    /// machine in the paper's regime, so halving the footprint must halve
    /// the caches too. `SimConfig::paper_defaults` already encodes the
    /// reference scale of 16.
    pub fn sim_config(&self, app: AppId) -> SimConfig {
        self.sim_config_sized((app.paper_rss_bytes() + app.paper_file_bytes()) / self.scale)
    }

    /// [`EvalParams::sim_config`] for an explicit demand-paged footprint
    /// in bytes — the entry point for scenario tenants, whose phased
    /// workloads declare absolute region sizes instead of Table-2
    /// footprints divided by the scale. Cache geometry still shrinks
    /// with `self.scale` so scenario runs live in the same regime as the
    /// registry apps at the same evaluation scale.
    pub fn sim_config_sized(&self, footprint: u64) -> SimConfig {
        // Headroom so demand paging and split/migrate churn never OOM; the
        // slow tier must hold any achievable cold fraction.
        let fast = footprint + footprint / 2 + (64 << 20);
        let slow = footprint + (64 << 20);
        let mut cfg = SimConfig::paper_defaults(fast, slow);
        if self.scale != 16 {
            let shrink = |entries: usize, floor: usize, ways: usize| -> usize {
                let e = ((entries as u64 * 16 / self.scale) as usize).max(floor);
                e.div_ceil(ways) * ways
            };
            cfg.tlb.l1_small = thermo_vm::TlbGeometry::new(shrink(32, 8, 4), 4);
            cfg.tlb.l1_huge = thermo_vm::TlbGeometry::new(shrink(16, 4, 4), 4);
            cfg.tlb.l2 = thermo_vm::TlbGeometry::new(shrink(128, 16, 8), 8);
            let llc_bytes = ((4u64 << 20) * 16 / self.scale).max(256 << 10);
            cfg.llc.size_bytes = llc_bytes / (64 * 16) * (64 * 16); // keep set geometry valid
        }
        cfg.thp_enabled = self.thp;
        cfg.track_true_access = self.track_true_access;
        cfg
    }

    /// Thermostat configuration for this evaluation.
    pub fn thermostat_config(&self) -> ThermostatConfig {
        ThermostatConfig {
            tolerable_slowdown_pct: self.tolerable_slowdown_pct,
            sampling_period_ns: self.sampling_period_ns,
            seed: self.seed ^ 0xdaeb,
            ..ThermostatConfig::paper_defaults()
        }
    }

    /// Workload configuration for this evaluation.
    pub fn app_config(&self) -> AppConfig {
        AppConfig {
            scale: self.scale,
            seed: self.seed,
            read_pct: self.read_pct,
        }
    }
}

// Serialized into every experiment artifact so golden checks can verify
// the expectation file and the fresh run used the same parameters.
thermo_util::json_struct!(EvalParams {
    scale,
    duration_ns,
    sampling_period_ns,
    tolerable_slowdown_pct,
    read_pct,
    seed,
    thp,
    track_true_access,
});

/// Everything a harness binary typically reports about one run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Application name.
    pub app: String,
    /// Run outcome (ops, virtual time).
    pub outcome: RunOutcome,
    /// Throughput, ops per virtual second.
    pub ops_per_sec: f64,
    /// Mean fraction of the footprint in slow memory over the measured
    /// window (0 for baseline runs).
    pub cold_fraction_mean: f64,
    /// Final cold fraction.
    pub cold_fraction_final: f64,
    /// Thermostat per-period records (empty for baseline runs).
    pub history: Vec<PeriodRecord>,
    /// Daemon statistics (zeros for baseline runs).
    pub daemon: DaemonStats,
    /// Migration bandwidth toward slow memory, MB/s.
    pub migration_mbps: f64,
    /// False-classification (back-to-fast) bandwidth, MB/s.
    pub false_class_mbps: f64,
    /// Slow-memory access events per second over the run.
    pub slow_access_rate: f64,
    /// Smoothed slow-memory access rate series (1s buckets, 30-bucket
    /// moving average — the Figure 3 curve).
    pub slow_rate_series: Vec<f64>,
    /// Mean per-operation latency, ns.
    pub mean_latency_ns: f64,
    /// 99th-percentile per-operation latency, ns (the paper's tail metric).
    pub p99_latency_ns: u64,
}

/// A policy a harness run can summarise: Thermostat's daemon brings its
/// per-period history and stats into the [`AppRun`], other policies
/// have none.
trait HarnessPolicy {
    fn hook(&mut self) -> &mut dyn PolicyHook;

    fn daemon(&self) -> Option<&Daemon> {
        None
    }
}

impl HarnessPolicy for NoPolicy {
    fn hook(&mut self) -> &mut dyn PolicyHook {
        self
    }
}

impl HarnessPolicy for Daemon {
    fn hook(&mut self) -> &mut dyn PolicyHook {
        self
    }

    fn daemon(&self) -> Option<&Daemon> {
        Some(self)
    }
}

impl HarnessPolicy for &mut dyn PolicyHook {
    fn hook(&mut self) -> &mut dyn PolicyHook {
        &mut **self
    }
}

/// The run body every harness run shares. Builds the engine from
/// `config`, then `app`'s workload, runs its `init`, and only then builds
/// the policy; runs for `p.duration_ns`, recording each op's latency, and
/// summarises the run.
fn run_app<P: HarnessPolicy>(
    app: AppId,
    p: &EvalParams,
    config: SimConfig,
    policy: impl FnOnce() -> P,
) -> (AppRun, Engine, P) {
    let mut engine = Engine::new(config);
    let mut workload = app.build(p.app_config());
    workload.init(&mut engine);
    let mut policy = policy();
    let mut hist = LatencyHistogram::new();
    let outcome = run_for_instrumented(
        &mut engine,
        workload.as_mut(),
        policy.hook(),
        p.duration_ns,
        &mut hist,
    );
    let elapsed = outcome.elapsed_ns().max(1);
    let ms = engine.migration_stats();
    let (history, daemon) = policy
        .daemon()
        .map_or_else(Default::default, |d| (d.history().to_vec(), d.stats()));
    let (mean, last) = if history.is_empty() {
        (0.0, 0.0)
    } else {
        let vals: Vec<f64> = history
            .iter()
            .map(|r| r.breakdown.cold_fraction())
            .collect();
        (
            vals.iter().sum::<f64>() / vals.len() as f64,
            *vals.last().expect("nonempty"),
        )
    };
    let slow_events = engine.slow_series().total();
    let run = AppRun {
        app: app.to_string(),
        outcome,
        ops_per_sec: outcome.ops_per_sec(),
        cold_fraction_mean: mean,
        cold_fraction_final: last,
        history,
        daemon,
        migration_mbps: ms.to_slow_mbps(elapsed),
        false_class_mbps: ms.back_to_fast_mbps(elapsed),
        slow_access_rate: slow_events as f64 / (elapsed as f64 / 1e9),
        slow_rate_series: engine.slow_series().smoothed_rates(30),
        mean_latency_ns: hist.mean_ns(),
        p99_latency_ns: hist.percentile_ns(99.0),
    };
    (run, engine, policy)
}

/// Runs `app` with no placement policy (the all-DRAM baseline every paper
/// number is measured against). Returns the run summary and the engine for
/// further inspection.
pub fn baseline_run(app: AppId, p: &EvalParams) -> (AppRun, Engine) {
    let (run, engine, _) = run_app(app, p, p.sim_config(app), || NoPolicy);
    (run, engine)
}

/// Runs `app` under the Thermostat daemon.
pub fn thermostat_run(app: AppId, p: &EvalParams) -> (AppRun, Engine, Daemon) {
    thermostat_run_with(app, p, p.thermostat_config())
}

/// Runs the baseline and Thermostat flavours of `app` as two parallel
/// jobs on the `thermo-exec` pool (worker count from `THERMO_JOBS`,
/// default available parallelism).
///
/// Each flavour is an independent engine seeded from `p` exactly as in
/// the serial [`baseline_run`]/[`thermostat_run`] path — the pool's
/// per-job seeds are deliberately unused so artifacts stay byte-identical
/// to the serial goldens — and the pair merges in fixed job-id order
/// (baseline first), so the result is independent of worker count.
pub fn paired_runs(app: AppId, p: &EvalParams) -> (AppRun, (AppRun, Engine, Daemon)) {
    /// Either flavour's output, boxed so the job result stays small.
    enum Half {
        Base(Box<(AppRun, Engine)>),
        Thermo(Box<(AppRun, Engine, Daemon)>),
    }
    let jobs: Vec<_> = (0..2u8)
        .map(|k| {
            move |_ctx: &thermo_exec::JobCtx| {
                if k == 0 {
                    Half::Base(Box::new(baseline_run(app, p)))
                } else {
                    Half::Thermo(Box::new(thermostat_run(app, p)))
                }
            }
        })
        .collect();
    let out = thermo_exec::run_jobs(jobs, &thermo_exec::ExecConfig::from_env(p.seed))
        .unwrap_or_else(|e| panic!("paired run for {app} failed: {e}"));
    let mut base = None;
    let mut thermo = None;
    for half in out {
        match half {
            Half::Base(b) => base = Some(b.0),
            Half::Thermo(t) => thermo = Some(*t),
        }
    }
    (
        base.expect("job 0 is the baseline"),
        thermo.expect("job 1 is the thermostat run"),
    )
}

/// Runs `app` under a daemon built from an explicit configuration (used by
/// the ablation harnesses).
pub fn thermostat_run_with(
    app: AppId,
    p: &EvalParams,
    config: ThermostatConfig,
) -> (AppRun, Engine, Daemon) {
    run_app(app, p, p.sim_config(app), || Daemon::new(config))
}

/// Runs `app` under the Thermostat daemon with the migration fabric
/// enabled at the given configuration (the `fab_bw`/`fab_abort`
/// experiments). Identical to [`thermostat_run`] except that demotions go
/// through transactional `BeginMigrate`/`CommitMigrate` ops paced by the
/// fabric's finite link bandwidth.
pub fn thermostat_fabric_run(
    app: AppId,
    p: &EvalParams,
    fabric: thermo_sim::FabricConfig,
) -> (AppRun, Engine, Daemon) {
    let mut config = p.sim_config(app);
    config.fabric = fabric;
    run_app(app, p, config, || Daemon::new(p.thermostat_config()))
}

/// Runs `app` under an arbitrary policy hook.
pub fn policy_run(app: AppId, p: &EvalParams, policy: &mut dyn PolicyHook) -> (AppRun, Engine) {
    let (run, engine, _) = run_app(app, p, p.sim_config(app), || policy);
    (run, engine)
}

/// Computes the slowdown of `run` vs `baseline` as a percentage.
pub fn slowdown_pct(run: &AppRun, baseline: &AppRun) -> f64 {
    // Same duration budget, so compare throughput (ops completed per
    // virtual second).
    (baseline.ops_per_sec / run.ops_per_sec - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> EvalParams {
        EvalParams {
            scale: 512,
            duration_ns: 2_000_000_000,
            sampling_period_ns: 300_000_000,
            tolerable_slowdown_pct: 3.0,
            read_pct: 95,
            seed: 7,
            thp: true,
            track_true_access: false,
        }
    }

    #[test]
    fn baseline_and_thermostat_complete() {
        let p = tiny();
        let (base, _) = baseline_run(AppId::Redis, &p);
        assert!(base.outcome.ops > 0);
        assert_eq!(base.cold_fraction_final, 0.0);
        let (run, _, daemon) = thermostat_run(AppId::Redis, &p);
        assert!(run.outcome.ops > 0);
        assert!(daemon.stats().periods > 0);
    }

    #[test]
    fn slowdown_of_identical_runs_is_zero() {
        let p = tiny();
        let (a, _) = baseline_run(AppId::WebSearch, &p);
        let (b, _) = baseline_run(AppId::WebSearch, &p);
        assert!(
            slowdown_pct(&b, &a).abs() < 1e-9,
            "same-seed runs must match exactly"
        );
    }

    #[test]
    fn thp_off_is_slower() {
        let p = tiny();
        let (on, _) = baseline_run(AppId::Redis, &p);
        let off_p = EvalParams { thp: false, ..p };
        let (off, _) = baseline_run(AppId::Redis, &off_p);
        assert!(on.ops_per_sec > off.ops_per_sec, "THP must help Redis");
    }
}
