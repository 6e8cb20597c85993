//! Metric definitions and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of what a run
//! prints; the tests hold `BENCHMARK.json` at the repository root to the
//! same names, units, directions and bounds.

use crate::rep::{Layers, Rep};
use crate::stats::median;

/// A metric's name, unit, better direction and (end-to-end only) the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// Printed by every untraced run.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("maccess_per_s", "Maccess/s", true, 0.24),
    e2e("setup_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.05),
    e2e("pass_frac", "ratio", true, 0.01),
];

/// Printed by every traced run, on every workload; a layer a workload
/// does not use reads 0.
pub const PER_LAYER: [MetricDef; 47] = [
    layer("setup.build_s", "s", false),
    layer("setup.init_s", "s", false),
    layer("setup.warmup_s", "s", false),
    layer("gen.ops", "count", true),
    layer("gen.self_s", "s", false),
    layer("gen.ns_per_op", "ns", false),
    layer("access.count", "count", true),
    layer("access.self_s", "s", false),
    layer("access.ns_per_access", "ns", false),
    layer("tlb.miss_ratio", "ratio", false),
    layer("walk.count", "count", false),
    layer("llc.miss_ratio", "ratio", false),
    layer("tier.slow_frac", "ratio", false),
    layer("trap.faults", "count", false),
    layer("minor_faults", "count", false),
    layer("fabric.begun", "count", false),
    layer("fabric.commit_frac", "ratio", true),
    layer("fabric.write_aborts", "count", false),
    layer("fabric.congestion_events", "count", false),
    layer("fabric.contended_miss_frac", "ratio", false),
    layer("fabric.inflight_peak", "count", false),
    layer("policy.ticks", "count", false),
    layer("policy.self_s", "s", false),
    layer("policy.us_per_tick", "us", false),
    layer("policy.share", "ratio", false),
    layer("daemon.pages_sampled", "count", false),
    layer("daemon.pages_demoted", "count", true),
    layer("daemon.promote_frac", "ratio", false),
    layer("sim.kernel_ms", "ms", false),
    layer("cosched.residual_s", "s", false),
    layer("cosched.residual_ns_per_access", "ns", false),
    layer("arbiter.grants", "count", false),
    layer("arbiter.reclaims", "count", false),
    layer("arbiter.defers", "count", false),
    layer("pressure.spill_faults", "count", false),
    layer("pressure.reclaimed_mb", "MiB", false),
    layer("pressure.promoted_mb", "MiB", false),
    layer("exec.jobs", "count", true),
    layer("exec.busy_s", "s", false),
    layer("exec.busy_frac", "ratio", true),
    layer("exec.tail_s", "s", false),
    layer("sim.accesses", "count", true),
    layer("sim.cold_frac", "ratio", true),
    layer("sim.slowdown_pct", "%", false),
    layer("sim.digest", "hash", true),
    layer("trace.explained_frac", "ratio", true),
    layer("trace.overhead_frac", "ratio", false),
];

/// A measured value: counts print as integers, everything else with all
/// its digits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Count(u64),
    Real(f64),
}

impl Value {
    fn json(self) -> String {
        match self {
            Value::Count(n) => n.to_string(),
            // Rust's shortest round-trip form never uses an exponent.
            Value::Real(x) if x.is_finite() => format!("{x}"),
            Value::Real(_) => "0".into(),
        }
    }
}

/// The run's verdict and metrics, printed as the last stdout line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(MetricDef, Value)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    v.json(),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn med(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Pass fraction of `checks` passed out of `attempted`.
pub fn pass_frac(attempted: u64, failed: u64) -> f64 {
    ratio((attempted - failed) as f64, attempted as f64)
}

/// The end-to-end metrics of untraced `reps`.
pub fn end_to_end(reps: &[&Rep], peak_rss_mb: f64, pass: f64) -> Vec<(MetricDef, Value)> {
    let values = [
        med(reps, |r| r.measured_accesses as f64 / r.measured_s / 1e6),
        med(reps, |r| r.setup_s),
        peak_rss_mb,
        pass,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| (*d, Value::Real(v)))
        .collect()
}

/// The per-layer metrics of `traced` reps; `untraced` reps of the same
/// seed give the tracing overhead.
pub fn per_layer(traced: &[&Rep], untraced: &[&Rep]) -> Vec<(MetricDef, Value)> {
    let first = traced[0];
    let l = |f: fn(&Layers) -> f64| med(traced, |r| f(&r.layers));
    let t = &first.tenants;
    let sum = |f: fn(&crate::rep::TenantResult) -> u64| t.iter().map(f).sum::<u64>();
    let s = |f: fn(&thermo_sim::EngineStats) -> u64| t.iter().map(|x| f(&x.stats)).sum::<u64>();
    let fab = |f: fn(&thermo_sim::FabricStats) -> u64| t.iter().map(|x| f(&x.fabric)).sum::<u64>();
    let dmn = |f: fn(&thermostat::DaemonStats) -> u64| {
        t.iter()
            .filter_map(|x| x.daemon.as_ref())
            .map(f)
            .sum::<u64>()
    };
    let ly = &first.layers;
    let accesses = s(|x| x.accesses);
    let mib = |b: u64| b as f64 / f64::from(1u32 << 20);
    use Value::{Count as C, Real as R};
    let values = [
        R(l(|x| x.build_s)),
        R(l(|x| x.init_s)),
        R(l(|x| x.warmup_s)),
        C(ly.gen_ops),
        R(l(|x| x.gen_s)),
        R(l(|x| ratio(x.gen_s * 1e9, x.gen_ops as f64))),
        C(ly.accesses),
        R(l(|x| x.access_s.unwrap_or(0.0))),
        R(l(|x| {
            ratio(x.access_s.unwrap_or(0.0) * 1e9, x.accesses as f64)
        })),
        R(ratio(s(|x| x.walks) as f64, accesses as f64)),
        C(s(|x| x.walks)),
        R(ratio(
            s(|x| x.llc_misses) as f64,
            s(|x| x.llc_hits + x.llc_misses) as f64,
        )),
        R(ratio(
            s(|x| x.slow_tier_accesses) as f64,
            s(|x| x.fast_tier_accesses + x.slow_tier_accesses) as f64,
        )),
        C(s(|x| x.slow_trap_faults + x.fast_trap_faults)),
        C(s(|x| x.minor_faults_small + x.minor_faults_huge)),
        C(fab(|f| f.begun)),
        R(ratio(fab(|f| f.committed) as f64, fab(|f| f.begun) as f64)),
        C(fab(|f| f.write_aborts)),
        C(fab(|f| f.congestion_events)),
        R(ratio(
            fab(|f| f.contended_misses) as f64,
            s(|x| x.llc_misses) as f64,
        )),
        C(t.iter().map(|x| x.inflight_peak).max().unwrap_or(0)),
        C(ly.policy_ticks),
        R(l(|x| x.policy_s)),
        R(l(|x| ratio(x.policy_s * 1e6, x.policy_ticks as f64))),
        R(l(|x| ratio(x.policy_s, x.available_s))),
        C(dmn(|d| d.pages_sampled)),
        C(dmn(|d| d.pages_demoted)),
        R(ratio(
            dmn(|d| d.pages_promoted) as f64,
            dmn(|d| d.pages_demoted) as f64,
        )),
        R(s(|x| x.kernel_time_ns) as f64 / 1e6),
        R(l(|x| x.residual_s)),
        R(l(|x| ratio(x.residual_s * 1e9, x.accesses as f64))),
        C(first.arbiter[0]),
        C(first.arbiter[1]),
        C(first.arbiter[2]),
        C(sum(|x| x.pressure.slow_fallback_faults)),
        R(mib(sum(|x| x.pressure.reclaimed_bytes))),
        R(mib(sum(|x| x.pressure.promoted_bytes))),
        C(ly.exec_jobs),
        R(l(|x| x.exec_busy_s)),
        R(l(|x| x.exec_busy_frac)),
        R(l(|x| x.exec_tail_s)),
        C(accesses),
        R(ratio(
            sum(|x| x.breakdown.cold()) as f64,
            sum(|x| x.breakdown.total()) as f64,
        )),
        R(t.iter().map(|x| x.slowdown_pct).sum::<f64>() / t.len().max(1) as f64),
        // 53 bits, so the value is exact as a JSON (double) number.
        C(first.digest >> 11),
        R(l(|x| ratio(x.explained_s, x.available_s))),
        R(ratio(med(traced, |r| r.wall_s), med(untraced, |r| r.wall_s)) - 1.0),
    ];
    PER_LAYER.iter().copied().zip(values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermo_util::json::{parse, Value as J};

    fn benchmark_json() -> J {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_list(list: &J, defs: &[MetricDef]) {
        let items = list.as_arr().expect("metric list");
        assert_eq!(items.len(), defs.len());
        for (item, d) in items.iter().zip(defs) {
            assert_eq!(item.get("name").and_then(J::as_str), Some(d.name));
            assert_eq!(
                item.get("unit").and_then(J::as_str),
                Some(d.unit),
                "{}",
                d.name
            );
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                item.get("better").and_then(J::as_str),
                Some(better),
                "{}",
                d.name
            );
            assert_eq!(item.get("bound").and_then(J::as_f64), d.bound, "{}", d.name);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let b = benchmark_json();
        check_list(b.get("end_to_end").expect("end_to_end"), &END_TO_END);
        check_list(b.get("per_layer").expect("per_layer"), &PER_LAYER);
        let names: Vec<&str> = b
            .get("workloads")
            .and_then(J::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(J::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::WorkloadId::ALL.map(|w| w.name()).to_vec();
        assert_eq!(names, ours);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let o = Outcome {
            attempted: 9,
            failed: 0,
            metrics: vec![
                (END_TO_END[0], Value::Real(4.25)),
                (PER_LAYER[3], Value::Count(12)),
            ],
        };
        let j = parse(&o.json_line()).expect("result line is JSON");
        assert_eq!(j.get("correct").and_then(J::as_bool), Some(true));
        assert_eq!(j.get("attempted").and_then(J::as_u64), Some(9));
        assert_eq!(j.get("failed").and_then(J::as_u64), Some(0));
        let m = j.get("metrics").unwrap();
        let e = m.get("maccess_per_s").unwrap();
        assert_eq!(e.get("value").and_then(J::as_f64), Some(4.25));
        assert_eq!(e.get("unit").and_then(J::as_str), Some("Maccess/s"));
        assert_eq!(
            m.get("gen.ops").unwrap().get("value").and_then(J::as_u64),
            Some(12)
        );
    }

    #[test]
    fn pass_frac_counts_failures_against_attempts() {
        assert_eq!(pass_frac(8, 0), 1.0);
        assert_eq!(pass_frac(8, 2), 0.75);
        assert_eq!(pass_frac(0, 0), 0.0);
    }
}
