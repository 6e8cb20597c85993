//! Steadiness report: two interleaved sets of untraced runs of the same
//! code, compared metric by metric.
//!
//! Host speed on a shared virtual machine drifts by more than 10% within
//! a minute, so sets compared in blocks differ by the drift alone. Here
//! round `r` runs every workload once for set A and once for set B with
//! seed `seed + r`, alternating which set goes first. Each run is a full
//! untraced run at full size in its own processes, exactly as a single
//! invocation makes it.

use crate::cli::SteadyArgs;
use crate::report::END_TO_END;
use crate::stats::{median, quartiles, spread};
use crate::workloads::WorkloadId;
use std::collections::BTreeMap;

fn fmt_set(v: &[f64]) -> String {
    match (median(v), quartiles(v), spread(v)) {
        (Some(m), Some((q1, q3)), Some(s)) => {
            format!("{m:>10.4} [{q1:>9.4} {q3:>9.4}] {:>6.2}%", s * 100.0)
        }
        _ => "-".into(),
    }
}

pub fn run(s: &SteadyArgs) -> i32 {
    // (workload, metric) -> [set A values, set B values]
    let mut sets: BTreeMap<(usize, &str), [Vec<f64>; 2]> = BTreeMap::new();
    let mut failures = 0;
    for r in 0..s.rounds {
        let seed = s.seed.wrapping_add(r);
        for (wi, w) in WorkloadId::ALL.iter().enumerate() {
            let order = if (r as usize + wi).is_multiple_of(2) {
                [0, 1]
            } else {
                [1, 0]
            };
            for set in order {
                let args: Vec<String> = [
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &s.seconds.to_string(),
                    "--trace",
                    "0",
                ]
                .map(String::from)
                .to_vec();
                match crate::child::run(&args) {
                    Ok(c) if c.correct => {
                        let m = c.metrics;
                        let line: Vec<String> = END_TO_END
                            .iter()
                            .filter_map(|d| Some(format!("{}={:.4}", d.name, m.get(d.name)?)))
                            .collect();
                        println!(
                            "round {r} set {} {} seed {seed}: {}",
                            ["A", "B"][set],
                            w.name(),
                            line.join(" ")
                        );
                        for d in &END_TO_END {
                            if let Some(v) = m.get(d.name) {
                                sets.entry((wi, d.name)).or_default()[set].push(*v);
                            }
                        }
                    }
                    Ok(c) => {
                        failures += 1;
                        println!(
                            "round {r} set {} {} seed {seed}: FAILED {} of {} checks",
                            ["A", "B"][set],
                            w.name(),
                            c.failed,
                            c.attempted
                        );
                    }
                    Err(e) => {
                        failures += 1;
                        println!(
                            "round {r} set {} {} seed {seed}: FAILED {e}",
                            ["A", "B"][set],
                            w.name()
                        );
                    }
                }
            }
        }
    }
    println!(
        "\n{:<24} {:<14} {:>38} {:>38} {:>8} {:>6}",
        "workload",
        "metric",
        "A median [q1 q3] spread",
        "B median [q1 q3] spread",
        "B vs A",
        "bound"
    );
    for ((wi, name), [a, b]) in &sets {
        let d = END_TO_END
            .iter()
            .find(|d| d.name == *name)
            .expect("known metric");
        let diff = match (median(a), median(b)) {
            (Some(ma), Some(mb)) if ma != 0.0 => format!("{:+.2}%", (mb / ma - 1.0) * 100.0),
            _ => "-".into(),
        };
        println!(
            "{:<24} {:<14} {:>38} {:>38} {:>8} {:>6}",
            WorkloadId::ALL[*wi].name(),
            name,
            fmt_set(a),
            fmt_set(b),
            diff,
            d.bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    i32::from(failures > 0)
}
