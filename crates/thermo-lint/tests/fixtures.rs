//! Fixture tests: each known-bad snippet in `tests/fixtures/` must produce
//! exactly the expected `(lint, line, col)` findings when linted under a
//! synthetic workspace path that puts it in the relevant scope. The files
//! live in a subdirectory so cargo never compiles them — they are data.

use thermo_lint::{lint_source, Finding};

/// The `(lint, line, col)` identity of every finding, sorted.
fn keys(findings: &[Finding]) -> Vec<(String, u32, u32)> {
    let mut keys: Vec<_> = findings
        .iter()
        .map(|f| (f.lint.clone(), f.line, f.col))
        .collect();
    keys.sort();
    keys
}

fn expect(fixture: &str, rel_path: &str, want: &[(&str, u32, u32)]) {
    let findings = lint_source(rel_path, fixture);
    let mut want: Vec<(String, u32, u32)> = want
        .iter()
        .map(|(l, n, c)| (l.to_string(), *n, *c))
        .collect();
    want.sort();
    assert_eq!(
        keys(&findings),
        want,
        "unexpected findings for {rel_path}: {findings:#?}"
    );
}

#[test]
fn d1_unordered_iteration() {
    expect(
        include_str!("fixtures/d1_unordered.rs"),
        "crates/thermo-sim/src/fixture.rs",
        &[
            ("unordered_iteration", 2, 23),
            ("unordered_iteration", 6, 13),
            ("unordered_iteration", 10, 33),
            ("unordered_iteration", 12, 23),
        ],
    );
}

#[test]
fn d1_out_of_scope_in_infra_crate() {
    // The same file under thermo-util (infrastructure) is out of D1 scope.
    expect(
        include_str!("fixtures/d1_unordered.rs"),
        "crates/thermo-util/src/fixture.rs",
        &[],
    );
}

#[test]
fn d2_ambient_nondeterminism() {
    expect(
        include_str!("fixtures/d2_ambient.rs"),
        "crates/thermo-sim/src/fixture.rs",
        &[
            ("ambient_nondeterminism", 2, 16),
            ("ambient_nondeterminism", 4, 24),
            ("ambient_nondeterminism", 6, 21),
            ("ambient_nondeterminism", 7, 20),
            ("ambient_nondeterminism", 8, 16),
        ],
    );
}

#[test]
fn d2_allowlisted_in_bench() {
    expect(
        include_str!("fixtures/d2_ambient.rs"),
        "crates/thermo-bench/src/fixture.rs",
        &[],
    );
}

#[test]
fn d3_rng_containment() {
    expect(
        include_str!("fixtures/d3_rng.rs"),
        "crates/thermostat/src/fixture.rs",
        &[("rng_containment", 6, 9), ("rng_containment", 10, 23)],
    );
}

#[test]
fn d3_decide_rs_is_the_legal_draw_site() {
    // Draw methods are legal in decide.rs; so is seed derivation.
    expect(
        include_str!("fixtures/d3_rng.rs"),
        "crates/thermostat/src/daemon/decide.rs",
        &[],
    );
}

#[test]
fn fabric_retry_loops_stay_deterministic() {
    // Linted under the real fabric module path: the fabric's abort/retry
    // backoff must stay inside D2 (no ambient clocks) and D3 (no ad-hoc
    // RNG draws) scope — a jittered retry loop is flagged on both counts.
    expect(
        include_str!("fixtures/fab_retry.rs"),
        "crates/thermo-sim/src/fabric.rs",
        &[
            ("ambient_nondeterminism", 8, 30),
            ("rng_containment", 9, 22),
        ],
    );
}

#[test]
fn s1_seam_enforcement() {
    expect(
        include_str!("fixtures/s1_seam.rs"),
        "crates/thermo-kstaled/src/fixture.rs",
        &[
            ("seam_enforcement", 6, 12),
            ("seam_enforcement", 7, 15),
            ("seam_enforcement", 9, 16),
        ],
    );
}

#[test]
fn s1_out_of_scope_outside_policy_crates() {
    // The engine crate itself implements these entry points.
    expect(
        include_str!("fixtures/s1_seam.rs"),
        "crates/thermo-sim/src/fixture.rs",
        &[],
    );
}

#[test]
fn e1_panic_in_worker() {
    expect(
        include_str!("fixtures/e1_panic.rs"),
        "crates/thermo-bench/src/fixture.rs",
        &[
            ("panic_in_worker", 7, 36),
            ("panic_in_worker", 9, 21),
            ("panic_in_worker", 20, 48),
        ],
    );
}

#[test]
fn e2_completion_order_merge_in_executor_crate() {
    expect(
        include_str!("fixtures/e2_exec_order.rs"),
        "crates/thermo-exec/src/fixture.rs",
        &[
            ("completion_order_merge", 4, 31),
            ("completion_order_merge", 12, 8),
            ("completion_order_merge", 16, 8),
            ("completion_order_merge", 20, 22),
        ],
    );
}

#[test]
fn e2_out_of_scope_outside_executor() {
    // Channels elsewhere are governed by the crates' own seams; E2 is
    // specifically the executor merge-discipline lint.
    expect(
        include_str!("fixtures/e2_exec_order.rs"),
        "crates/thermo-sim/src/fixture.rs",
        &[],
    );
}

#[test]
fn pragma_suppression_and_validation() {
    expect(
        include_str!("fixtures/pragma.rs"),
        "crates/thermo-sim/src/fixture.rs",
        &[
            // line 7: the trailing pragma on line 5 reaches lines 5-6 only.
            ("unordered_iteration", 7, 5),
            // line 10's pragma lacks a reason → rejected, and line 11 stays.
            ("bad_pragma", 10, 1),
            ("unordered_iteration", 11, 23),
            // line 13 names an unknown lint → rejected twice (unknown name,
            // then no known lint left), and line 14 stays.
            ("bad_pragma", 13, 1),
            ("bad_pragma", 13, 1),
            ("unordered_iteration", 14, 13),
        ],
    );
}

#[test]
fn stale_pragma_is_a_finding() {
    // A syntactically valid pragma that suppresses nothing has outlived
    // the code it excused — it is itself flagged, at the pragma.
    expect(
        include_str!("fixtures/pragma_stale.rs"),
        "crates/thermo-sim/src/fixture.rs",
        &[("bad_pragma", 2, 1)],
    );
}

#[test]
fn r1_dropped_receipt() {
    // Line 4's `let _ =` is a finding; line 6's is excused by the pragma
    // on line 5 (which is therefore used, not stale).
    expect(
        include_str!("fixtures/r1_receipt.rs"),
        "crates/thermo-sim/src/fixture.rs",
        &[("dropped_receipt", 4, 20)],
    );
}

#[test]
fn r1_out_of_scope_in_infra_crate() {
    // Under thermo-util R1 is off — which strands the line-5 pragma with
    // nothing to suppress, so the stale-pragma pass flags it.
    expect(
        include_str!("fixtures/r1_receipt.rs"),
        "crates/thermo-util/src/fixture.rs",
        &[("bad_pragma", 5, 5)],
    );
}

#[test]
fn t1_rng_taint_in_decide() {
    // Tainted tail (line 5) and tainted return (line 10) leak; the inline
    // pragma on line 14 excuses `legacy_probe`; `draw_*`/`*_seed` egress
    // names, call-argument consumption, and pub(crate) fns are clean.
    expect(
        include_str!("fixtures/t1_taint.rs"),
        "crates/thermo-kstaled/src/decide.rs",
        &[("rng_taint", 5, 5), ("rng_taint", 10, 5)],
    );
}

#[test]
fn t1_is_off_in_infra_crates() {
    // thermo-util is the RNG's own home; the taint pass is off there and
    // the inline pragma on line 14 is reported stale.
    expect(
        include_str!("fixtures/t1_taint.rs"),
        "crates/thermo-util/src/decide.rs",
        &[("bad_pragma", 14, 22)],
    );
}

#[test]
fn x1_wildcard_arm_in_plan_op_dispatch() {
    // Only the `_ =>` arm inside `apply_op` fires; `Err(_)` patterns and
    // wildcard arms in other fns are clean.
    expect(
        include_str!("fixtures/x1_wildcard.rs"),
        "crates/thermo-sim/src/engine/plan.rs",
        &[("plan_op_exhaustiveness", 10, 13)],
    );
}

#[test]
fn good_file_is_clean_under_strictest_scope() {
    // A policy-crate path enables D1+D2+D3+S1+E1+R1+T1 simultaneously.
    expect(
        include_str!("fixtures/good.rs"),
        "crates/thermostat/src/fixture.rs",
        &[],
    );
}

#[test]
fn messages_carry_hints_files_and_families() {
    let findings = lint_source(
        "crates/thermo-sim/src/fixture.rs",
        include_str!("fixtures/d1_unordered.rs"),
    );
    for f in &findings {
        assert_eq!(f.file, "crates/thermo-sim/src/fixture.rs");
        assert_eq!(f.family, "D1");
        assert!(!f.message.is_empty() && !f.hint.is_empty());
    }
}
