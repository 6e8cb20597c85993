//! The v2 lint families (DESIGN.md §16). R1 scans the flat token
//! stream; X1 and T1 walk fn items over token trees.
//!
//! * **R1 `dropped_receipt`** — an `apply_plan`/`memory_view` result bound
//!   to the `_` wildcard. `PlanReceipt` and `MemoryView` are `#[must_use]`
//!   and the workspace denies `unused_must_use`, so rustc rejects a receipt
//!   dropped as a statement; a wildcard binding is the discard it accepts.
//! * **X1 `plan_op_exhaustiveness`** — a `_ =>` arm inside `apply_op`.
//!   It matches `PlanOp` exhaustively, so rustc names a new variant's
//!   missing arm; a wildcard arm would absorb it silently.
//! * **T1 `rng_taint`** — intraprocedural taint: values produced by
//!   seed-derivation or `draw_*` calls (and, inside `decide.rs`, raw RNG
//!   draw methods) must not flow out of a bare-`pub` fn through `return`
//!   or its tail expression, unless the fn itself is sanctioned egress
//!   (named `draw_*` or `*_seed`). This upgrades D3 from "where may a
//!   draw appear" to "where may the drawn *value* go": decide.rs exports
//!   decisions, not entropy.
//!
//! The taint pass is deliberately conservative in both directions and
//! deterministic: bindings via `let name = …` and `name = …` propagate,
//! tuple/struct destructuring over-taints the first bound name, passing
//! a tainted value as a call argument counts as consumption, and a tail
//! expression ending in a block (`if`/`match`) is not scanned. Every
//! escape it cannot see is still bounded by D3's draw-site containment.

use crate::lexer::{Token, TokenKind};
use crate::lints::{Finding, RNG_DRAW_METHODS};
use crate::tree::{self, Flat, Tree, Vis};

/// Methods whose results are engine receipts/snapshots (R1).
const RECEIPT_METHODS: [&str; 3] = ["apply_plan", "memory_view", "memory_view_uncharged"];

/// The exhaustive `PlanOp` match that must not grow a wildcard arm (X1).
const PLAN_OP_MATCH_FN: &str = "apply_op";

/// Seed-derivation fns whose results are taint sources everywhere (T1).
const TAINT_SEED_FNS: [&str; 2] = ["derive_stream_seed", "splitmix64"];

/// R1: `let _ = ….apply_plan(…);` (or `.memory_view(…)`). Runs on the flat
/// (cfg-test-stripped) token stream. A receipt dropped as a statement is
/// rustc's job (`#[must_use]` plus the workspace's `unused_must_use =
/// "deny"`); a `let _` binding is the discard rustc accepts silently.
pub fn lint_dropped_receipt(tokens: &[Token], file: &str, findings: &mut Vec<Finding>) {
    let punct = |k: usize, c: char| tokens.get(k).is_some_and(|t| t.kind == TokenKind::Punct(c));
    let ident = |k: usize| tokens.get(k).and_then(|t| t.kind.ident());
    for i in 0..tokens.len() {
        if ident(i) != Some("let") || ident(i + 1) != Some("_") || !punct(i + 2, '=') {
            continue;
        }
        // The bound value is a receipt call when the statement's last
        // top-level group, right before its `;`, is `.<method>( … )`.
        // `last_open` starts at the `=`, so a value with no call never matches.
        let mut depth = 0i32;
        let mut last_open = i + 2;
        for k in i + 3..tokens.len() {
            match tokens[k].kind {
                TokenKind::Punct('(') => {
                    if depth == 0 {
                        last_open = k;
                    }
                    depth += 1;
                }
                TokenKind::Punct('[' | '{') => depth += 1,
                TokenKind::Punct(')' | ']' | '}') => depth -= 1,
                TokenKind::Punct(';') if depth == 0 => {
                    let at = &tokens[last_open - 1];
                    let method = at.kind.ident().unwrap_or_default();
                    if punct(k - 1, ')')
                        && punct(last_open - 2, '.')
                        && RECEIPT_METHODS.contains(&method)
                    {
                        findings.push(Finding::new(
                            file,
                            at.line,
                            at.col,
                            "dropped_receipt",
                            format!(
                                "`{method}` result bound to `_`: the wildcard discards the receipt without inspecting any outcome"
                            ),
                            "bind it to a name and check it (e.g. debug_assert every OpOutcome is Done), or allow(dropped_receipt) with a reason",
                        ));
                    }
                    break;
                }
                _ => {}
            }
        }
    }
}

/// X1: a `_ =>` arm inside a fn named `apply_op`, an exhaustive match
/// over `PlanOp`, so rustc already rejects a new variant that lacks an
/// arm there — unless a wildcard arm absorbs it.
pub fn lint_plan_op_wildcard(trees: &[Tree], file: &str, findings: &mut Vec<Finding>) {
    tree::walk_items(trees, &mut |f| {
        if f.name != PLAN_OP_MATCH_FN {
            return;
        }
        let Some(body) = f.body else { return };
        let mut flat = Vec::new();
        tree::flatten(&body.children, &mut flat);
        for w in flat.windows(3) {
            if w[0].ident() == Some("_") && w[1].is_punct('=') && w[2].is_punct('>') {
                let (line, col) = w[0].pos();
                findings.push(Finding::new(
                    file,
                    line,
                    col,
                    "plan_op_exhaustiveness",
                    format!(
                        "wildcard `_ =>` arm in `{}`: a new PlanOp variant would compile without its own arm",
                        f.name
                    ),
                    "name every variant so rustc's exhaustiveness check flags a new op's missing arm",
                ));
            }
        }
    });
}

/// T1: per-fn taint scan. `is_decide` widens the source set to raw RNG
/// draw methods (legal to *call* there, still illegal to *export*).
pub fn lint_rng_taint(trees: &[Tree], file: &str, is_decide: bool, findings: &mut Vec<Finding>) {
    tree::walk_items(trees, &mut |f| {
        if f.vis != Vis::Pub || sanctioned_egress(f.name) {
            return;
        }
        let Some(body) = f.body else { return };
        let mut flat = Vec::new();
        tree::flatten(&body.children, &mut flat);
        taint_scan(&flat, f.name, file, is_decide, findings);
    });
}

/// Fns allowed to return entropy: the sanctioned egress naming scheme.
fn sanctioned_egress(name: &str) -> bool {
    name.starts_with("draw_") || name.ends_with("_seed")
}

fn taint_scan(
    flat: &[Flat<'_>],
    fn_name: &str,
    file: &str,
    is_decide: bool,
    findings: &mut Vec<Finding>,
) {
    let mut taint: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut seg_start = 0usize;
    let mut i = 0usize;
    while i <= flat.len() {
        let boundary = match flat.get(i) {
            None => true,
            Some(f) => f.is_punct(';') || f.is_brace_boundary(),
        };
        if boundary {
            let seg = &flat[seg_start..i];
            let is_tail = i == flat.len();
            process_segment(seg, is_tail, fn_name, file, is_decide, &mut taint, findings);
            seg_start = i + 1;
        }
        i += 1;
    }
}

fn process_segment(
    seg: &[Flat<'_>],
    is_tail: bool,
    fn_name: &str,
    file: &str,
    is_decide: bool,
    taint: &mut std::collections::BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    if seg.is_empty() {
        return;
    }
    let sink = |findings: &mut Vec<Finding>, line: u32, col: u32, how: &str| {
        findings.push(Finding::new(
            file,
            line,
            col,
            "rng_taint",
            format!(
                "RNG-derived value flows out of pub fn `{fn_name}` via {how}: decide.rs exports decisions, not entropy"
            ),
            "return a decision (index, bool, plan) computed from the draw, or mark sanctioned egress by naming the fn draw_*/*_seed, or allow(rng_taint) with a reason",
        ));
    };
    // `return <expr>` anywhere in the segment (match arms put it mid-seg).
    if let Some(r) = seg.iter().position(|f| f.ident() == Some("return")) {
        if expr_tainted(&seg[r + 1..], taint, is_decide) {
            let (line, col) = seg[r].pos();
            sink(findings, line, col, "`return`");
        }
        return;
    }
    // `let [mut] name [: T] = rhs` — bind or clear.
    if seg[0].ident() == Some("let") {
        let name = seg
            .iter()
            .skip(1)
            .filter_map(|f| f.ident())
            .find(|id| *id != "mut");
        let eq = top_level_eq(seg);
        if let Some(name) = name {
            let tainted = eq.is_some_and(|e| expr_tainted(&seg[e + 1..], taint, is_decide));
            if tainted {
                taint.insert(name.to_string());
            } else {
                taint.remove(name);
            }
        }
        return;
    }
    // `name = rhs` — simple reassignment at segment head.
    if seg.len() >= 3 {
        if let Some(name) = seg[0].ident() {
            if seg[1].is_punct('=') && !seg[2].is_punct('=') {
                if expr_tainted(&seg[2..], taint, is_decide) {
                    taint.insert(name.to_string());
                } else {
                    taint.remove(name);
                }
                return;
            }
        }
    }
    if is_tail && expr_tainted(seg, taint, is_decide) {
        let (line, col) = seg[0].pos();
        sink(findings, line, col, "its tail expression");
    }
}

/// Position of the first top-level `=` (not `==`/`=>`/compound-assign).
fn top_level_eq(seg: &[Flat<'_>]) -> Option<usize> {
    seg.iter().enumerate().position(|(i, f)| {
        f.is_punct('=')
            && !seg
                .get(i + 1)
                .is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
            && !(i > 0 && "=<>!+-*/%&|^".chars().any(|c| seg[i - 1].is_punct(c)))
    })
}

/// True when the expression window produces a tainted value: it calls a
/// taint source, or names a tainted binding in value position.
///
/// Anything inside a *call's* argument group is consumption, not flow —
/// `pick(s, n)` launders `s` into a decision — so both tainted idents
/// and nested sources are muted there. Grouping parens (`(s)`, tuples)
/// still count: they forward the value unchanged.
fn expr_tainted(
    window: &[Flat<'_>],
    taint: &std::collections::BTreeSet<String>,
    is_decide: bool,
) -> bool {
    // Per open paren group: was it a call-argument group?
    let mut stack: Vec<bool> = Vec::new();
    let mut muted_depth = 0usize;
    for (k, f) in window.iter().enumerate() {
        if let Flat::Open(g) = f {
            if g.delim == '(' {
                let is_call = k > 0
                    && (window[k - 1].ident().is_some()
                        || matches!(window[k - 1], Flat::Close(p) if p.delim != '{'));
                stack.push(is_call);
                muted_depth += usize::from(is_call);
            }
            continue;
        }
        if let Flat::Close(g) = f {
            if g.delim == '(' {
                if let Some(was_call) = stack.pop() {
                    muted_depth -= usize::from(was_call);
                }
            }
            continue;
        }
        let Some(id) = f.ident() else { continue };
        let calls = window.get(k + 1).is_some_and(Flat::opens_paren);
        let prev_dot = k > 0 && window[k - 1].is_punct('.');
        if muted_depth > 0 {
            continue;
        }
        if calls
            && (TAINT_SEED_FNS.contains(&id) || id.starts_with("draw_") || id.ends_with("_seed"))
        {
            return true;
        }
        if is_decide && calls && prev_dot && RNG_DRAW_METHODS.contains(&id) {
            return true;
        }
        if taint.contains(id) {
            // Skip path segments (`x::`), field accesses (`.x`), and
            // struct-literal field names (`x:` but not `x::`).
            let prev_colon = k > 0 && window[k - 1].is_punct(':');
            let next_colon = window.get(k + 1).is_some_and(|n| n.is_punct(':'));
            let next2_colon = window.get(k + 2).is_some_and(|n| n.is_punct(':'));
            let field_name = next_colon && !next2_colon;
            if !prev_dot && !prev_colon && !field_name {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_r1(src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        lint_dropped_receipt(&lex(src).tokens, "x.rs", &mut out);
        out
    }

    fn run_t1(src: &str, is_decide: bool) -> Vec<Finding> {
        let mut out = Vec::new();
        lint_rng_taint(&tree::build(&lex(src).tokens), "x.rs", is_decide, &mut out);
        out
    }

    #[test]
    fn wildcard_bound_receipts_are_findings() {
        let src = "
            fn f(engine: &mut Engine, plan: &PolicyPlan) {
                let _ = engine.apply_plan(plan);
                let _ = engine.memory_view(&ranges(), 1);
                let _ = (engine.apply_plan(plan), 1);
                let _ = engine.apply_plan(plan).outcomes();
                let receipt = engine.apply_plan(plan);
            }
        ";
        let found = run_r1(src);
        assert_eq!(found.len(), 2, "{found:#?}");
        assert_eq!((found[0].line, found[0].col), (3, 32));
        assert_eq!(found[1].line, 4);
    }

    #[test]
    fn taint_flows_through_lets_to_return_and_tail() {
        let src = "
            pub fn leak_tail(base: u64) -> u64 {
                let s = derive_stream_seed(base, 1);
                s
            }
            pub fn leak_return(base: u64) -> u64 {
                let s = splitmix64(base);
                let t = s + 1;
                return t;
            }
        ";
        let found = run_t1(src, false);
        assert_eq!(found.len(), 2, "{found:#?}");
    }

    #[test]
    fn consumption_and_sanctioned_names_are_clean() {
        let src = "
            pub fn decide(base: u64, n: usize) -> usize {
                let s = derive_stream_seed(base, 1);
                pick(s, n)
            }
            pub fn draw_value(base: u64) -> u64 {
                derive_stream_seed(base, 2)
            }
            pub fn stream_seed(base: u64) -> u64 {
                derive_stream_seed(base, 3)
            }
            fn private_leak(base: u64) -> u64 {
                derive_stream_seed(base, 4)
            }
            pub(crate) fn restricted_leak(base: u64) -> u64 {
                derive_stream_seed(base, 5)
            }
        ";
        let found = run_t1(src, false);
        assert!(found.is_empty(), "{found:#?}");
    }

    #[test]
    fn draw_methods_are_sources_only_in_decide() {
        let src = "
            pub fn probe(rng: &mut SmallRng, n: usize) -> usize {
                rng.gen_range(0..n)
            }
        ";
        assert_eq!(run_t1(src, true).len(), 1);
        assert!(run_t1(src, false).is_empty());
    }

    #[test]
    fn untainting_reassignment_clears() {
        let src = "
            pub fn fixed(base: u64) -> u64 {
                let mut s = derive_stream_seed(base, 1);
                s = 7;
                s
            }
        ";
        assert!(run_t1(src, false).is_empty());
    }
}
