//! Drives the built `perfbench` binary: the rejection paths, and a tiny
//! run of every workload, untraced and traced.

use std::process::{Command, Output};
use thermo_util::json::{parse, Value};

const WORKLOADS: [&str; 4] = [
    "tpcc_scan",
    "cassandra_write_fabric",
    "storm_cosched",
    "fleet_sharded",
];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("spawn perfbench")
}

/// The result line (the last stdout line), parsed.
fn result(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

fn metric<'a>(r: &'a Value, name: &str) -> &'a Value {
    r.get("metrics")
        .and_then(|m| m.get(name))
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn value(r: &Value, name: &str) -> f64 {
    metric(r, name)
        .get("value")
        .and_then(Value::as_f64)
        .expect("numeric value")
}

fn metric_names(r: &Value) -> Vec<&str> {
    match r.get("metrics") {
        Some(Value::Obj(m)) => m.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("no metrics object"),
    }
}

#[test]
fn malformed_inputs_are_rejected_by_name_without_a_result() {
    let cases: [(&[&str], &str); 12] = [
        (&["--workload", "nope"], "UnknownWorkload"),
        (&["--workload", "tpcc_scan", "--seed", "12x"], "BadSeed"),
        (&["--workload", "tpcc_scan", "--seed", "-3"], "BadSeed"),
        (&["--seed", "1"], "MissingWorkload"),
        (&["--workload", "tpcc_scan", "--trace", "yes"], "BadTrace"),
        (&["--workload", "tpcc_scan", "--seconds", "0"], "BadSeconds"),
        (
            &["--workload", "tpcc_scan", "--frobnicate", "1"],
            "UnknownFlag",
        ),
        (
            &["--workload", "tpcc_scan", "--trace-out", "s.jsonl"],
            "TraceOutWithoutTrace",
        ),
        (
            &["measure", "--workload", "tpcc_scan", "--trace", "1"],
            "UnknownFlag",
        ),
        (&["measure", "--workload", "nope"], "UnknownWorkload"),
        (&["steady", "--workload", "tpcc_scan"], "UnknownFlag"),
        (&["steady", "--size", "tiny"], "UnknownFlag"),
    ];
    for (args, name) in cases {
        let out = perfbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(name), "{args:?}: stderr {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn every_workload_prints_each_end_to_end_metric_with_its_unit() {
    let units = [
        ("maccess_per_s", "Maccess/s"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MiB"),
        ("pass_frac", "ratio"),
    ];
    for w in WORKLOADS {
        let out = perfbench(&[
            "--workload",
            w,
            "--size",
            "tiny",
            "--seconds",
            "1",
            "--seed",
            "5",
        ]);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let r = result(&out);
        assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true), "{w}");
        assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0), "{w}");
        assert!(r.get("attempted").and_then(Value::as_u64) >= Some(1), "{w}");
        assert_eq!(metric_names(&r), units.map(|(n, _)| n).to_vec(), "{w}");
        for (name, unit) in units {
            let m = metric(&r, name);
            assert_eq!(
                m.get("unit").and_then(Value::as_str),
                Some(unit),
                "{w} {name}"
            );
            assert!(value(&r, name) > 0.0, "{w} {name} is not positive");
        }
        assert_eq!(value(&r, "pass_frac"), 1.0, "{w}");
    }
}

#[test]
fn a_measuring_process_runs_a_warming_and_a_timed_repetition() {
    let out = perfbench(&["measure", "--workload", "tpcc_scan", "--size", "tiny"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("# rep ")).count(),
        2
    );
    assert!(stdout.lines().any(|l| l.starts_with("# digest ")));
    assert!(
        !stdout.contains("# process "),
        "a measuring process must not start processes"
    );
    assert_eq!(value(&result(&out), "pass_frac"), 1.0);
}

#[test]
fn traced_runs_attribute_each_layer_to_the_workload_that_uses_it() {
    let mut policy_share = Vec::new();
    for w in WORKLOADS {
        let out = perfbench(&[
            "--workload",
            w,
            "--size",
            "tiny",
            "--seconds",
            "1",
            "--trace",
            "1",
        ]);
        assert!(
            out.status.success(),
            "{w}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let r = result(&out);
        assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true), "{w}");
        assert_eq!(metric_names(&r).len(), 47, "{w}");
        let explained = value(&r, "trace.explained_frac");
        assert!(explained > 0.0 && explained <= 1.0, "{w}: {explained}");
        let on = |name: &str| value(&r, name) != 0.0;
        assert_eq!(
            on("arbiter.grants") || on("arbiter.reclaims"),
            w == "storm_cosched",
            "{w}"
        );
        assert_eq!(on("cosched.residual_s"), w == "storm_cosched", "{w}");
        assert_eq!(on("exec.jobs"), w == "fleet_sharded", "{w}");
        assert_eq!(on("exec.busy_s"), w == "fleet_sharded", "{w}");
        if w == "tpcc_scan" || w == "fleet_sharded" {
            assert!(!on("fabric.begun") && !on("fabric.write_aborts"), "{w}");
        }
        if w == "cassandra_write_fabric" {
            assert!(on("fabric.begun"), "{w}");
        }
        policy_share.push(value(&r, "policy.share"));
    }
    assert!(policy_share.iter().all(|&s| s > 0.0), "{policy_share:?}");
}

#[test]
fn trace_out_writes_spans_with_parents() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans.jsonl");
    let path_s = path.to_str().expect("utf-8 path");
    let out = perfbench(&[
        "--workload",
        "storm_cosched",
        "--size",
        "tiny",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--trace-out",
        path_s,
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("spans written");
    let mut names = std::collections::BTreeSet::new();
    for line in text.lines() {
        let v = parse(line).expect("span line is JSON");
        let span = v.get("span").expect("span");
        let name = span.get("name").and_then(Value::as_str).expect("name");
        if name != "rep" {
            assert!(
                span.get("parent").and_then(Value::as_u64).is_some(),
                "{line}"
            );
        }
        names.insert(name.to_string());
    }
    for n in ["rep", "tenant", "build", "init", "tick", "gen"] {
        assert!(names.contains(n), "no {n} span");
    }
}
