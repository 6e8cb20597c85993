//! The lint families: token-stream pattern matches over one source file.
//!
//! Each family guards one determinism property the golden-artifact gate
//! relies on (DESIGN.md §11):
//!
//! | lint                     | family | property                                   |
//! |--------------------------|--------|--------------------------------------------|
//! | `unordered_iteration`    | D1     | artifact paths iterate ordered maps only   |
//! | `ambient_nondeterminism` | D2     | sim state is a pure function of the seed   |
//! | `rng_containment`        | D3     | policy RNG draws live in `decide.rs` only  |
//! | `seam_enforcement`       | S1     | policies speak `MemoryView`/`PolicyPlan`   |
//! | `panic_in_worker`        | E1     | job closures don't panic without a pragma  |
//! | `completion_order_merge` | E2     | executor merges by job id, never arrival   |
//! | `dropped_receipt`        | R1     | no receipt/view bound to `_`               |
//! | `plan_op_exhaustiveness` | X1     | no `_ =>` arm in the `PlanOp` matches      |
//! | `rng_taint`              | T1     | entropy values stay behind decide.rs       |
//!
//! D1–D3, S1, E1, E2 are token-stream pattern matches; R1/X1/T1 live
//! in [`crate::flow`] — see DESIGN.md §16 for the per-family rationale,
//! including which half of R1 and X1 rustc enforces instead.
//!
//! An additional internal lint, `bad_pragma`, fires on malformed
//! suppression pragmas (unknown lint name, missing reason) — and, since
//! the stale-pragma pass, on *valid* pragmas that suppress nothing — so
//! a typo can never silently disable a real check and a suppression can
//! never outlive the code it excused.
//!
//! E2 covers the executor's merge discipline (DESIGN.md §9): results
//! must be indexed and merged by stable job id. Any channel-receive in
//! executor code is the canonical way to accidentally merge in
//! *completion* order — which varies with which worker claimed what —
//! so E2 bans the recv family there outright.

use crate::lexer::{lex, PragmaComment, Token, TokenKind};

/// Canonical lint names, in family order.
pub const LINT_NAMES: [&str; 10] = [
    "unordered_iteration",
    "ambient_nondeterminism",
    "rng_containment",
    "seam_enforcement",
    "panic_in_worker",
    "completion_order_merge",
    "dropped_receipt",
    "plan_op_exhaustiveness",
    "rng_taint",
    "bad_pragma",
];

/// Short family code for a lint name (shown in reports).
pub fn family_code(lint: &str) -> &'static str {
    match lint {
        "unordered_iteration" => "D1",
        "ambient_nondeterminism" => "D2",
        "rng_containment" => "D3",
        "seam_enforcement" => "S1",
        "panic_in_worker" => "E1",
        "completion_order_merge" => "E2",
        "dropped_receipt" => "R1",
        "plan_op_exhaustiveness" => "X1",
        "rng_taint" => "T1",
        _ => "P0",
    }
}

/// Resolves a pragma lint name (canonical or alias) to its canonical name.
fn canonical_lint(name: &str) -> Option<&'static str> {
    match name {
        // `panic` is the issue-text shorthand for the worker-panic lint.
        "panic" => Some("panic_in_worker"),
        other => LINT_NAMES
            .iter()
            .find(|l| **l == other)
            .copied()
            .filter(|l| *l != "bad_pragma"),
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Canonical lint name.
    pub lint: String,
    /// Short family code (`D1`, `R1`, …), derived from the lint name.
    pub family: String,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

thermo_util::json_struct!(Finding {
    file,
    line,
    col,
    lint,
    family,
    message,
    hint
});

impl Finding {
    /// Builds a finding, deriving the family code from the lint name.
    pub fn new(
        file: &str,
        line: u32,
        col: u32,
        lint: &str,
        message: String,
        hint: &str,
    ) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            col,
            lint: lint.to_string(),
            family: family_code(lint).to_string(),
            message,
            hint: hint.to_string(),
        }
    }
}

/// Which lint families apply to a file, derived from its workspace path.
///
/// The scoping encodes the workspace's architecture (DESIGN.md §11):
///
/// * **Artifact crates** (everything that computes or merges experiment
///   state) must iterate ordered maps — D1. The two infrastructure crates
///   `thermo-util` (codec/bench harness) and `thermo-lint` itself are
///   exempt by omission, though neither uses hash maps today.
/// * **D2** applies everywhere except the wall-clock reporting paths:
///   the `thermo-bench` crate (prints per-experiment timings) — everything
///   else must run on virtual time only.
/// * **D3** confines RNG draws in the simulation and policy crates to
///   `decide.rs` modules; `thermo-util`/`thermo-exec` internals (the RNG
///   and the seed-deriving pool) are the only other legal homes. Workload
///   crates draw from seeded streams by design and are out of scope.
/// * **S1** applies to the policy crates only.
/// * **E1** applies everywhere a `JobCtx` closure can appear.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Crate name (`thermo-sim`, …; the root package is `thermostat-suite`).
    pub crate_name: String,
    /// D1 applies.
    pub artifact: bool,
    /// D2 applies (not a wall-clock reporting path).
    pub ambient: bool,
    /// D3 applies to `rng.<draw>()` method calls (policy/sim crate, and
    /// this file is not a `decide.rs`).
    pub rng: bool,
    /// D3 applies to seed-derivation free functions (everywhere outside
    /// `thermo-util`/`thermo-exec` internals and `decide.rs`).
    pub rng_fns: bool,
    /// S1 applies.
    pub seam: bool,
    /// E2 applies (executor code: merge discipline is job-id order).
    pub exec: bool,
    /// R1 applies (artifact crates touch engine receipts).
    pub receipt: bool,
    /// T1 applies (everywhere outside the sanctioned RNG home,
    /// `thermo-util`, and the linter itself).
    pub taint: bool,
    /// This file is a `decide.rs` (T1 treats raw draw methods as
    /// sources there; D3 exempts it from draw-site findings).
    pub is_decide: bool,
}

/// Crates whose state can reach a golden artifact (D1 scope).
const ARTIFACT_CRATES: [&str; 11] = [
    "thermo-mem",
    "thermo-vm",
    "thermo-trap",
    "thermo-sim",
    "thermo-kstaled",
    "thermostat",
    "thermo-workloads",
    "thermo-scenario",
    "thermo-bench",
    "thermo-exec",
    "thermostat-suite",
];

/// Crates whose RNG draws must stay inside `decide.rs` modules (D3 scope).
const RNG_SCOPED_CRATES: [&str; 3] = ["thermo-sim", "thermostat", "thermo-kstaled"];

/// Policy crates that must speak only the engine seam (S1 scope).
const POLICY_CRATES: [&str; 2] = ["thermostat", "thermo-kstaled"];

/// Paths (prefix match) where wall-clock reads are legitimate: bench
/// reporting. `scripts/` is listed for completeness should it ever grow
/// Rust sources.
const AMBIENT_ALLOWED_PREFIXES: [&str; 2] = ["crates/thermo-bench/", "scripts/"];

/// Engine mechanism entry points policies may not name (S1). Policies get
/// the same effects through `PolicyPlan` ops applied by `apply_plan`.
const SEAM_FORBIDDEN: [&str; 9] = [
    "scan_and_clear_accessed",
    "read_accessed",
    "clear_accessed_set",
    "migrate_page",
    "migrate_split_huge",
    "split_huge",
    "collapse_huge",
    "poison_page",
    "unpoison_page",
];

/// RNG draw methods (`rng.<method>(…)`) counted as draws by D3 (and as
/// taint sources by T1 inside `decide.rs`).
pub(crate) const RNG_DRAW_METHODS: [&str; 8] = [
    "gen",
    "gen_range",
    "gen_bool",
    "next_u32",
    "next_u64",
    "fill_bytes",
    "shuffle",
    "choose",
];

/// Seed-derivation free functions (D3): legal only inside
/// `thermo-util`/`thermo-exec` (the pool derives per-job seeds) and
/// `decide.rs` modules — ad-hoc seed splitting anywhere else forks the
/// workspace's single seed-stream discipline.
const RNG_SEED_FNS: [&str; 2] = ["derive_stream_seed", "splitmix64"];

/// Draw-like free functions (D3), scoped like the draw methods (workload
/// crates call these from seeded streams by design).
const RNG_DRAW_FNS: [&str; 1] = ["zipf_rank"];

/// Ambient nondeterminism sources (D2): bare identifiers…
const AMBIENT_IDENTS: [&str; 3] = ["Instant", "SystemTime", "UNIX_EPOCH"];

/// …and `<root>::`-qualified crate paths (`rand::…`, `getrandom::…`).
const AMBIENT_CRATE_PATHS: [&str; 3] = ["rand", "getrandom", "chrono"];

impl Scope {
    /// Derives the scope for a workspace-relative path.
    pub fn for_path(rel_path: &str) -> Self {
        let rel = rel_path.replace('\\', "/");
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("thermostat-suite")
            .to_string();
        let is_decide = rel.ends_with("/decide.rs") || rel == "decide.rs";
        let rng_internal = matches!(crate_name.as_str(), "thermo-util" | "thermo-exec");
        Scope {
            artifact: ARTIFACT_CRATES.contains(&crate_name.as_str()),
            ambient: !AMBIENT_ALLOWED_PREFIXES.iter().any(|p| rel.starts_with(p)),
            rng: RNG_SCOPED_CRATES.contains(&crate_name.as_str()) && !is_decide,
            rng_fns: !rng_internal && !is_decide,
            seam: POLICY_CRATES.contains(&crate_name.as_str()),
            exec: crate_name == "thermo-exec",
            receipt: ARTIFACT_CRATES.contains(&crate_name.as_str()),
            taint: !matches!(crate_name.as_str(), "thermo-util" | "thermo-lint"),
            is_decide,
            crate_name,
        }
    }
}

/// Channel-receive methods (`.recv()`-family) counted as completion-order
/// merges by E2 when they appear in executor code.
const RECV_METHODS: [&str; 3] = ["recv", "try_recv", "recv_timeout"];

/// A parsed, validated suppression pragma.
#[derive(Debug)]
pub(crate) struct Pragma {
    line: u32,
    col: u32,
    lints: Vec<&'static str>,
}

/// Parses pragma comments; malformed ones become `bad_pragma` findings.
///
/// Grammar: `// thermo-lint: allow(<lint>[, <lint>…], reason = "…")` —
/// the reason is mandatory, so every suppression documents *why* the
/// invariant does not apply at that site.
fn parse_pragmas(
    comments: &[PragmaComment],
    file: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for c in comments {
        let bad = |msg: &str| {
            Finding::new(
                file,
                c.line,
                c.col,
                "bad_pragma",
                format!("{msg}: `{}`", c.text),
                "write `// thermo-lint: allow(<lint>, reason = \"…\")`",
            )
        };
        let Some(args) = c
            .text
            .strip_prefix("allow(")
            .and_then(|r| r.trim_end().strip_suffix(')'))
        else {
            findings.push(bad("unrecognized thermo-lint pragma"));
            continue;
        };
        let mut lints = Vec::new();
        let mut reason = false;
        // Split on top-level commas; the reason string never contains one
        // we care about because everything after `reason =` is accepted.
        let mut rest = args;
        loop {
            let (head, tail) = match rest.split_once(',') {
                Some((h, t)) => (h.trim(), Some(t.trim())),
                None => (rest.trim(), None),
            };
            if let Some(r) = head.strip_prefix("reason") {
                let r = r.trim_start();
                if let Some(q) = r.strip_prefix('=') {
                    let q = q.trim();
                    if q.len() > 2 && q.starts_with('"') && q.ends_with('"') {
                        reason = true;
                    }
                }
                // The reason may itself contain commas; stop splitting.
                break;
            }
            match canonical_lint(head) {
                Some(l) => lints.push(l),
                None => {
                    findings.push(bad(&format!("unknown lint `{head}` in pragma")));
                }
            }
            match tail {
                Some(t) => rest = t,
                None => break,
            }
        }
        if lints.is_empty() {
            findings.push(bad("pragma names no known lint"));
            continue;
        }
        if !reason {
            findings.push(bad("suppression without a reason"));
            continue;
        }
        pragmas.push(Pragma {
            line: c.line,
            col: c.col,
            lints,
        });
    }
    pragmas
}

/// Removes tokens inside `#[cfg(test)]`-gated items (and skips attribute
/// contents generally, so `#[derive(Hash)]` never looks like code).
///
/// This is the "lightweight item resolver": it only understands enough
/// item structure to find where a gated item ends — the next `;` at
/// brace/paren depth zero, or the close of the item's first `{ … }` block.
pub(crate) fn strip_cfg_test(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind == TokenKind::Punct('#') {
            // Inner attribute `#![…]`: skip the bracket group only.
            let (attr_start, is_inner) = match tokens.get(i + 1).map(|t| &t.kind) {
                Some(TokenKind::Punct('!'))
                    if matches!(
                        tokens.get(i + 2).map(|t| &t.kind),
                        Some(TokenKind::Punct('['))
                    ) =>
                {
                    (i + 2, true)
                }
                Some(TokenKind::Punct('[')) => (i + 1, false),
                _ => {
                    out.push(tokens[i].clone());
                    i += 1;
                    continue;
                }
            };
            // Find the matching `]`.
            let mut depth = 0i32;
            let mut j = attr_start;
            let mut is_cfg_test = false;
            let mut attr_idents: Vec<&str> = Vec::new();
            while j < tokens.len() {
                match &tokens[j].kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenKind::Ident(s) => attr_idents.push(s),
                    _ => {}
                }
                j += 1;
            }
            if !is_inner
                && attr_idents.first() == Some(&"cfg")
                && attr_idents.iter().any(|s| *s == "test")
            {
                is_cfg_test = true;
            }
            i = j + 1; // past the `]` (attribute tokens are always dropped)
            if !is_cfg_test {
                continue;
            }
            // Skip any further attributes on the same item…
            while i < tokens.len() && tokens[i].kind == TokenKind::Punct('#') {
                let mut d = 0i32;
                let mut entered = false;
                while i < tokens.len() {
                    match tokens[i].kind {
                        TokenKind::Punct('[') => {
                            d += 1;
                            entered = true;
                        }
                        TokenKind::Punct(']') => d -= 1,
                        _ => {}
                    }
                    i += 1;
                    if entered && d == 0 {
                        break;
                    }
                }
            }
            // …then the gated item itself.
            let mut depth = 0i32;
            while i < tokens.len() {
                match tokens[i].kind {
                    TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => {
                        depth += 1;
                    }
                    TokenKind::Punct(')') | TokenKind::Punct(']') => depth -= 1,
                    TokenKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    TokenKind::Punct(';') if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// One file's analysis: findings before pragma suppression and its parsed
/// pragmas. Produced per file and merged by [`finish`], which applies
/// suppression with stale-pragma accounting, and sorts.
#[derive(Debug)]
pub struct FileAnalysis {
    file: String,
    findings: Vec<Finding>,
    pragmas: Vec<Pragma>,
}

/// Runs every per-file lint pass on one source file. Pragma suppression
/// is *not* applied here — [`finish`] needs the raw findings to decide
/// which pragmas are stale.
pub fn analyze_source(rel_path: &str, source: &str) -> FileAnalysis {
    let scope = Scope::for_path(rel_path);
    let file = rel_path.replace('\\', "/");
    let lexed = lex(source);
    let mut findings = Vec::new();
    let pragmas = parse_pragmas(&lexed.pragmas, &file, &mut findings);
    let tokens = strip_cfg_test(&lexed.tokens);

    let push = |findings: &mut Vec<Finding>,
                line: u32,
                col: u32,
                lint: &str,
                message: String,
                hint: &str| {
        findings.push(Finding::new(&file, line, col, lint, message, hint));
    };

    for (idx, tok) in tokens.iter().enumerate() {
        let Some(ident) = tok.kind.ident() else {
            continue;
        };
        let prev_is_dot = idx > 0 && tokens[idx - 1].kind == TokenKind::Punct('.');
        let next_is_path = tokens.get(idx + 1).map(|t| &t.kind) == Some(&TokenKind::Punct(':'))
            && tokens.get(idx + 2).map(|t| &t.kind) == Some(&TokenKind::Punct(':'));

        // D1: unordered iteration sources in artifact crates.
        if scope.artifact && (ident == "HashMap" || ident == "HashSet") {
            push(
                &mut findings,
                tok.line,
                tok.col,
                "unordered_iteration",
                format!("`{ident}` in an artifact-producing crate: iteration order is nondeterministic per process"),
                "use BTreeMap/BTreeSet so every iteration (and any JSON emitted from it) is ordered",
            );
        }

        // D2: ambient nondeterminism sources.
        if scope.ambient {
            if AMBIENT_IDENTS.contains(&ident) {
                push(
                    &mut findings,
                    tok.line,
                    tok.col,
                    "ambient_nondeterminism",
                    format!("`{ident}` reads wall-clock state: simulation output must be a pure function of the seed"),
                    "use the engine's virtual clock; wall-clock belongs only in thermo-bench reporting paths",
                );
            } else if AMBIENT_CRATE_PATHS.contains(&ident) && next_is_path {
                push(
                    &mut findings,
                    tok.line,
                    tok.col,
                    "ambient_nondeterminism",
                    format!("`{ident}::` path: external entropy sources are banned by the hermetic-build policy"),
                    "use thermo_util::rng seeded streams instead",
                );
            } else if ident == "thread"
                && next_is_path
                && tokens.get(idx + 3).and_then(|t| t.kind.ident()) == Some("current")
            {
                push(
                    &mut findings,
                    tok.line,
                    tok.col,
                    "ambient_nondeterminism",
                    "`thread::current()` exposes scheduling identity: results must not depend on which worker ran".to_string(),
                    "derive per-job identity from JobCtx (job_id/seed), never from the OS thread",
                );
            }
        }

        // D3: RNG draws outside decide.rs, and ad-hoc seed derivation
        // outside the pool internals.
        let is_call = tokens.get(idx + 1).map(|t| &t.kind) == Some(&TokenKind::Punct('('));
        let rng_draw = (prev_is_dot && RNG_DRAW_METHODS.contains(&ident))
            || (RNG_DRAW_FNS.contains(&ident) && is_call);
        if (scope.rng && rng_draw) || (scope.rng_fns && RNG_SEED_FNS.contains(&ident) && is_call) {
            push(
                &mut findings,
                tok.line,
                tok.col,
                "rng_containment",
                format!("RNG draw `{ident}` outside a decide.rs module: draw sites and their historical order are part of the golden contract"),
                "move the draw into the crate's decide.rs (pure helpers, called in historical draw order), or let thermo-exec derive per-job seeds",
            );
        }

        // E2: completion-order merge hazards in executor code — receiving
        // from a channel yields results in arrival order, which varies
        // with which worker claimed what; the executor contract is job-id order.
        if scope.exec
            && ((prev_is_dot && RECV_METHODS.contains(&ident)) || (ident == "mpsc" && next_is_path))
        {
            push(
                &mut findings,
                tok.line,
                tok.col,
                "completion_order_merge",
                format!("`{ident}` in executor code merges results in completion order, which varies with which worker claimed what"),
                "index results into a slot keyed by stable job id and merge slots in id order",
            );
        }

        // S1: policy crates naming engine mechanism entry points.
        if scope.seam && SEAM_FORBIDDEN.contains(&ident) {
            push(
                &mut findings,
                tok.line,
                tok.col,
                "seam_enforcement",
                format!("policy crate names engine mechanism entry point `{ident}`"),
                "read state via Engine::memory_view and mutate via apply_plan(PolicyPlan) only",
            );
        }
    }

    lint_job_closures(&tokens, &file, &mut findings);
    if scope.receipt {
        crate::flow::lint_dropped_receipt(&tokens, &file, &mut findings);
    }

    // The fn-scoped passes run over the token-tree parse of the same
    // (attribute- and test-stripped) token stream.
    let trees = crate::tree::build(&tokens);
    crate::flow::lint_plan_op_wildcard(&trees, &file, &mut findings);
    if scope.taint {
        crate::flow::lint_rng_taint(&trees, &file, scope.is_decide, &mut findings);
    }

    FileAnalysis {
        file,
        findings,
        pragmas,
    }
}

/// Merges per-file analyses into the final finding list: applies pragma
/// suppression (a pragma reaches its own line and the following line, so
/// both trailing and stand-alone-comment placement work), flags valid
/// pragmas that suppressed nothing as stale, and sorts.
pub fn finish(analyses: Vec<FileAnalysis>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for analysis in analyses {
        // `used` marks pragmas that suppressed at least one finding.
        let mut pragmas: Vec<(Pragma, bool)> =
            analysis.pragmas.into_iter().map(|p| (p, false)).collect();
        for f in analysis.findings {
            let mut suppressed = false;
            if f.lint != "bad_pragma" {
                // Scan every pragma (no short-circuit): a pragma that
                // covers an already-suppressed finding is not stale.
                for (p, used) in pragmas.iter_mut() {
                    if (f.line == p.line || f.line == p.line + 1)
                        && p.lints.contains(&f.lint.as_str())
                    {
                        *used = true;
                        suppressed = true;
                    }
                }
            }
            if !suppressed {
                findings.push(f);
            }
        }
        for (p, used) in pragmas {
            if !used {
                findings.push(Finding::new(
                    &analysis.file,
                    p.line,
                    p.col,
                    "bad_pragma",
                    format!(
                        "stale pragma: allow({}) suppresses no finding on line {} or {}",
                        p.lints.join(", "),
                        p.line,
                        p.line + 1
                    ),
                    "the code it excused is gone — delete the pragma",
                ));
            }
        }
    }

    findings.sort();
    findings
}

/// Lints a set of files given as (workspace-relative path, source) pairs,
/// including stale-pragma accounting.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    finish(
        files
            .iter()
            .map(|(rel, src)| analyze_source(rel, src))
            .collect(),
    )
}

/// Lints one source file.
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    finish(vec![analyze_source(rel_path, source)])
}

/// E1: `unwrap`/`expect`/`panic!`-family calls inside a closure whose
/// parameter list names `JobCtx` (the thermo-exec job shape). A panicking
/// job aborts the whole batch with `ExecError::JobPanicked`, so such calls
/// must be deliberate — i.e. carry an allow-pragma with a reason.
fn lint_job_closures(tokens: &[Token], file: &str, findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].kind != TokenKind::Punct('|') {
            i += 1;
            continue;
        }
        // Candidate closure parameter list: scan ahead for the closing `|`
        // within a short window, with no statement/block structure between.
        let mut j = i + 1;
        let mut names_jobctx = false;
        let mut closes = None;
        while j < tokens.len() && j - i < 32 {
            match &tokens[j].kind {
                TokenKind::Punct('|') => {
                    closes = Some(j);
                    break;
                }
                TokenKind::Punct('{') | TokenKind::Punct('}') | TokenKind::Punct(';') => break,
                TokenKind::Ident(s) if s == "JobCtx" => names_jobctx = true,
                _ => {}
            }
            j += 1;
        }
        let Some(close) = closes else {
            i += 1;
            continue;
        };
        if !names_jobctx {
            i = close; // re-examine the closing `|` as a potential opener
            continue;
        }
        // Closure body: a braced block, or a single expression ending at
        // the first `,` or `)` at depth zero.
        let body_start = close + 1;
        let mut depth = 0i32;
        let mut k = body_start;
        let braced = tokens.get(k).map(|t| &t.kind) == Some(&TokenKind::Punct('{'));
        while k < tokens.len() {
            match tokens[k].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                    if depth == 0 {
                        break; // end of enclosing expression
                    }
                    depth -= 1;
                    if braced && depth == 0 {
                        k += 1;
                        break;
                    }
                }
                TokenKind::Punct(',') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        for t in &tokens[body_start..k.min(tokens.len())] {
            let Some(ident) = t.kind.ident() else {
                continue;
            };
            let panicky = matches!(ident, "unwrap" | "expect")
                || matches!(ident, "panic" | "unreachable" | "todo" | "unimplemented");
            if panicky {
                findings.push(Finding::new(
                    file,
                    t.line,
                    t.col,
                    "panic_in_worker",
                    format!(
                        "`{ident}` inside a JobCtx closure: a panicking job aborts the whole thermo-exec batch"
                    ),
                    "return the error from the job, or annotate with // thermo-lint: allow(panic_in_worker, reason = \"…\")",
                ));
            }
        }
        i = k.max(close + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_derivation() {
        let s = Scope::for_path("crates/thermo-sim/src/engine/mod.rs");
        assert_eq!(s.crate_name, "thermo-sim");
        assert!(s.artifact && s.ambient && s.rng && !s.seam);

        let s = Scope::for_path("crates/thermostat/src/daemon/decide.rs");
        assert!(s.seam && !s.rng, "decide.rs is the legal draw site");

        let s = Scope::for_path("crates/thermo-bench/src/experiments.rs");
        assert!(!s.ambient, "bench wall-clock reporting is allowlisted");

        let s = Scope::for_path("src/lib.rs");
        assert_eq!(s.crate_name, "thermostat-suite");
        assert!(s.artifact);

        let s = Scope::for_path("crates/thermo-scenario/src/phased.rs");
        assert!(s.artifact, "scenario streams reach goldens (D1)");
        assert!(!s.rng, "scenario crate draws freely outside decide.rs");
        let s = Scope::for_path("crates/thermo-scenario/src/decide.rs");
        assert!(!s.rng_fns, "decide.rs is the legal seed-derivation site");
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "
            use std::collections::BTreeMap;
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                fn f() { let m: HashMap<u32, u32> = HashMap::new(); }
            }
            fn live() {}
        ";
        let findings = lint_source("crates/thermo-sim/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn derive_hash_is_not_a_finding() {
        let src = "#[derive(Hash, PartialEq)]\nstruct S;\n";
        assert!(lint_source("crates/thermo-sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn pragma_without_reason_is_rejected() {
        let src = "// thermo-lint: allow(unordered_iteration)\nuse std::collections::HashMap;\n";
        let findings = lint_source("crates/thermo-sim/src/x.rs", src);
        let lints: Vec<&str> = findings.iter().map(|f| f.lint.as_str()).collect();
        assert!(lints.contains(&"bad_pragma"), "{findings:?}");
        assert!(
            lints.contains(&"unordered_iteration"),
            "invalid pragma must not suppress: {findings:?}"
        );
    }

    #[test]
    fn panic_alias_resolves() {
        assert_eq!(canonical_lint("panic"), Some("panic_in_worker"));
        assert_eq!(canonical_lint("bad_pragma"), None);
        assert_eq!(canonical_lint("nope"), None);
    }
}
