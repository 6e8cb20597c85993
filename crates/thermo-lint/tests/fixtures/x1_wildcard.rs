// Fixture: X1 wildcard arms. `apply_op` matches PlanOp exhaustively except
// for a `_ =>` arm (line 10), which would absorb a new variant silently.
impl Engine {
    fn apply_op(&mut self, op: &PlanOp) -> OpOutcome {
        match op {
            PlanOp::Poison { vpn } => match self.poison_page(*vpn) {
                Ok(()) => OpOutcome::Done,
                Err(_) => OpOutcome::DemoteOom, // `Err(_)` is a pattern, not an arm
            },
            _ => OpOutcome::Done,
        }
    }

    fn describe(op: &PlanOp) -> &'static str {
        match op {
            PlanOp::Poison { .. } => "poison",
            _ => "other", // not a PlanOp dispatch fn: ok
        }
    }
}
