// Fixture: R1 wildcard-bound receipts, linted under an artifact-crate path.
// rustc rejects a receipt dropped as a statement; `let _ =` it accepts.
fn tick(engine: &mut Engine, plan: &PolicyPlan) {
    let _ = engine.memory_view(&[], 1); // line 4: finding
    // thermo-lint: allow(dropped_receipt, reason = "fixture: deliberate drop")
    let _ = engine.apply_plan(plan); // line 6: suppressed by the pragma above
}
