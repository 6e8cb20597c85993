//! End-to-end gate for the golden-artifact harness: the committed
//! goldens must match a live smoke run byte for byte, a perturbed policy
//! constant must demonstrably fail the check, and any drift at all must
//! fail it with a report that names the diverging field.

use std::path::PathBuf;

use thermo_bench::experiments;
use thermo_bench::golden::{canonical_json, check_artifact, golden_dir};
use thermo_bench::{EvalParams, ExperimentArtifact};
use thermo_util::json::{parse, to_string_pretty, Value};

fn smoke_artifact(id: &str) -> ExperimentArtifact {
    let exp = experiments::by_id(id).expect("registered experiment");
    (exp.run)(&EvalParams::smoke())
}

/// Scratch golden tree under `target/`, one per test so parallel tests
/// never collide.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/golden-gate")
        .join(name);
    std::fs::create_dir_all(&dir).expect("create scratch golden dir");
    dir
}

#[test]
fn committed_goldens_match_a_live_smoke_run() {
    // The same check `scripts/golden.sh check fig5` performs, run
    // in-process: a stale golden tree fails `cargo test`, not just CI.
    let artifact = smoke_artifact("fig5");
    check_artifact(&artifact, &golden_dir())
        .unwrap_or_else(|report| panic!("committed fig5 golden diverged:\n{report}"));
}

#[test]
fn perturbed_policy_constant_fails_the_gate() {
    // Nudge the paper's 3% tolerable-slowdown target — the policy
    // constant the whole classification pipeline keys off — and the
    // committed golden must reject the run.
    let exp = experiments::by_id("fig5").expect("registered experiment");
    let params = EvalParams {
        tolerable_slowdown_pct: 6.0,
        ..EvalParams::smoke()
    };
    let artifact = (exp.run)(&params);
    let report = check_artifact(&artifact, &golden_dir())
        .expect_err("doubled slowdown target must diverge from the golden");
    assert!(
        report.contains("tolerable_slowdown_pct"),
        "mismatch report should name the perturbed constant:\n{report}"
    );
    assert!(
        report.contains("fig5"),
        "mismatch report should name the experiment:\n{report}"
    );
}

/// Returns the artifact's canonical JSON with `runs[0].<field>` (an f64)
/// scaled by `factor`.
fn with_scaled_run_field(artifact: &ExperimentArtifact, field: &str, factor: f64) -> String {
    let mut v = parse(&canonical_json(artifact)).expect("artifact reparses");
    let Value::Obj(top) = &mut v else {
        panic!("artifact is an object")
    };
    let runs = top
        .iter_mut()
        .find(|(k, _)| k == "runs")
        .map(|(_, v)| v)
        .expect("runs field");
    let Value::Arr(runs) = runs else {
        panic!("runs is an array")
    };
    let Value::Obj(run0) = &mut runs[0] else {
        panic!("run is an object")
    };
    let slot = run0
        .iter_mut()
        .find(|(k, _)| k == field)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("run field {field}"));
    let f = slot.as_f64().expect("field is numeric");
    *slot = Value::F64(f * factor);
    let mut s = to_string_pretty(&v);
    s.push('\n');
    s
}

#[test]
fn any_drift_fails_and_names_the_field() {
    let artifact = smoke_artifact("fig6");
    let dir = scratch_dir("drift");
    let write = |text: String| {
        std::fs::write(dir.join("fig6.json"), text).expect("write scratch golden");
    };

    write(canonical_json(&artifact));
    check_artifact(&artifact, &dir).expect("the artifact's own bytes pass");

    // 1% throughput drift is a failure like any other, named by field.
    write(with_scaled_run_field(&artifact, "ops_per_sec", 1.01));
    let report = check_artifact(&artifact, &dir).expect_err("1% drift must fail");
    assert!(report.contains("ops_per_sec"), "{report}");

    // An off-by-one daemon counter names its exact path.
    let perturbed = canonical_json(&artifact).replacen("\"periods\": ", "\"periods\": 1", 1);
    assert_ne!(perturbed, canonical_json(&artifact), "perturbation applied");
    write(perturbed);
    let report = check_artifact(&artifact, &dir).expect_err("integer drift must fail");
    assert!(report.contains(".periods: expected 1"), "{report}");

    // Equal values in other bytes still fail, naming the line.
    write(canonical_json(&artifact).replacen("\n  ", "\n   ", 1));
    let report = check_artifact(&artifact, &dir).expect_err("reformatted golden must fail");
    assert!(report.contains("line 2: "), "{report}");
    assert!(report.contains("same values, different bytes"), "{report}");
}

#[test]
fn missing_golden_points_at_bless() {
    let artifact = smoke_artifact("fig7");
    let dir = scratch_dir("missing");
    let err = check_artifact(&artifact, &dir).expect_err("no golden present: check must fail");
    assert!(err.contains("golden.sh bless fig7"), "{err}");
}
