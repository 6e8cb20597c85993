//! `thermo-lint`: in-tree static analysis enforcing the workspace's
//! determinism and seam invariants (DESIGN.md §11).
//!
//! The golden-artifact gate proves that a given tree produces byte-identical
//! experiment artifacts; this crate proves the *code shape* that makes that
//! possible hasn't rotted. It is a dependency-free, hand-rolled pass in the
//! spirit of `thermo-util`'s hermetic philosophy: a small Rust lexer
//! ([`lexer`]), a lightweight item skipper (so `#[cfg(test)]` code is out of
//! scope), a brace-matched token-tree layer with fn-item recognition
//! (`tree`), and ten lint families ([`lints`]).
//!
//! Token-stream families:
//!
//! * **D1 `unordered_iteration`** — `HashMap`/`HashSet` in artifact crates.
//! * **D2 `ambient_nondeterminism`** — wall-clock/thread-identity/entropy
//!   sources outside the bench-reporting allowlist.
//! * **D3 `rng_containment`** — RNG draws outside `decide.rs`; ad-hoc seed
//!   derivation outside the pool internals.
//! * **S1 `seam_enforcement`** — policy crates naming engine mechanism
//!   entry points instead of the `MemoryView`/`PolicyPlan` seam.
//! * **E1 `panic_in_worker`** — panicking calls inside thermo-exec job
//!   closures without an allow-pragma, and (in the executor crate) inside
//!   the Chase-Lev steal path itself.
//! * **E2 `completion_order_merge`** — channel receives in executor code,
//!   which merge results in completion order instead of stable job-id
//!   order and so break byte-identity across `THERMO_JOBS` settings.
//!
//! The v2 families (`flow`, DESIGN.md §16). R1 and X1 are the halves of
//! two invariants that rustc cannot check; rustc enforces the rest:
//!
//! * **R1 `dropped_receipt`** — an `apply_plan`/`memory_view` result bound
//!   to `_`. A receipt dropped as a statement already fails to compile
//!   (`#[must_use]` plus the workspace's `unused_must_use = "deny"`).
//! * **X1 `plan_op_exhaustiveness`** — a `_ =>` arm in `local_window` or
//!   `apply_op`, which would let a new `PlanOp` variant slip past rustc's
//!   exhaustiveness check.
//! * **A1 `atomic_ordering`** — `Ordering::Relaxed` on the Chase-Lev
//!   deque's `head`/`tail` in executor steal paths.
//! * **T1 `rng_taint`** — seed/draw values must not escape through
//!   non-decide public fns (intraprocedural taint, sanctioned `draw_*` /
//!   `*_seed` egress names).
//!
//! The workspace walk fans per-file analysis out through `thermo-exec`
//! and merges findings in path order, so reports are byte-stable for any
//! `THERMO_JOBS` value. Violations that predate the linter live in
//! `goldens/lint-baseline.json`: the CI gate fails on *new* findings while
//! grandfathered ones stay visible (and are expected to be counted down
//! to zero). Intentional exceptions are annotated in-source:
//!
//! ```text
//! // thermo-lint: allow(ambient_nondeterminism, reason = "bench harness measures wall-clock by design")
//! ```
//!
//! A suppression must keep earning its place: a valid pragma that
//! suppresses nothing is itself a `bad_pragma` finding (stale pragma).

#![warn(missing_docs)]

pub mod lexer;
pub mod lints;

mod flow;
mod tree;

pub use lints::{
    analyze_source, family_code, finish, lint_files, lint_source, FileAnalysis, Finding, Scope,
    LINT_NAMES,
};

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use thermo_util::json::{self, FromJson, ToJson, Value};

/// Collects the workspace's lint subjects under `root`, in sorted order:
/// every `.rs` file below `crates/*/src` and the root package's `src/`.
///
/// Test code is out of scope by construction: integration-test directories
/// (`crates/*/tests`, `tests/`) are never visited, files named `tests.rs`
/// (the `#[cfg(test)] mod tests;` out-of-line pattern) are skipped, and
/// inline `#[cfg(test)]` items are stripped during linting.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        collect_rs(&dir.join("src"), &mut files)?;
    }
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "tests") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs")
            && !path.file_name().is_some_and(|n| n == "tests.rs")
        {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every workspace source under `root`; findings come back sorted by
/// `(file, line, col, lint, …)` so output (and `--json`) is byte-stable.
///
/// Per-file analysis fans out through the thermo-exec work-stealing pool
/// (`THERMO_JOBS` workers); results merge in stable path order, so the
/// report is byte-identical for every worker count.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    lint_workspace_with(root, thermo_exec::jobs_from_env())
}

/// [`lint_workspace`] with an explicit worker count.
pub fn lint_workspace_with(root: &Path, workers: usize) -> io::Result<Vec<Finding>> {
    let mut sources = Vec::new();
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path)?;
        sources.push((rel, source));
    }
    let jobs: Vec<_> = sources
        .into_iter()
        .map(|(rel, source)| move |_ctx: &thermo_exec::JobCtx| lints::analyze_source(&rel, &source))
        .collect();
    let analyses = thermo_exec::run_jobs(jobs, &thermo_exec::ExecConfig::new(workers, 0))
        .map_err(|e| io::Error::new(io::ErrorKind::Other, e.to_string()))?;
    Ok(lints::finish(analyses))
}

/// Per-lint finding counts, in canonical lint order (then any unknowns).
pub fn counts_by_lint(findings: &[Finding]) -> Vec<(String, usize)> {
    let mut map: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *map.entry(f.lint.as_str()).or_insert(0) += 1;
    }
    let mut out = Vec::new();
    for name in LINT_NAMES {
        if let Some(n) = map.remove(name) {
            out.push((name.to_string(), n));
        }
    }
    for (name, n) in map {
        out.push((name.to_string(), n));
    }
    out
}

/// Report format version: bumped when the finding shape changes (v2 added
/// `col` and `family` fields and the flow-aware lint families).
pub const REPORT_VERSION: u64 = 2;

/// Serializes findings as the machine-readable JSON report (the same shape
/// the baseline file uses), pretty-printed with a trailing newline.
pub fn findings_json(findings: &[Finding]) -> String {
    let v = Value::Obj(vec![
        ("version".to_string(), Value::U64(REPORT_VERSION)),
        (
            "findings".to_string(),
            Value::Arr(findings.iter().map(ToJson::to_json).collect()),
        ),
    ]);
    let mut s = json::to_string_pretty(&v);
    s.push('\n');
    s
}

/// The grandfathered-violation baseline (`goldens/lint-baseline.json`).
pub mod baseline {
    use super::*;

    /// Result of comparing fresh findings against a baseline.
    #[derive(Debug, Default)]
    pub struct Comparison {
        /// Findings not present in the baseline — these fail the gate.
        pub new: Vec<Finding>,
        /// Findings also present in the baseline (grandfathered).
        pub grandfathered: Vec<Finding>,
        /// Baseline entries no longer found — fixed; the baseline should
        /// be re-blessed to count them down.
        pub stale: Vec<Finding>,
    }

    /// Loads a baseline file (same JSON shape [`findings_json`] writes).
    pub fn load(path: &Path) -> Result<Vec<Finding>, String> {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        parse(&text).map_err(|e| format!("baseline {}: {e}", path.display()))
    }

    /// Parses baseline JSON text.
    pub fn parse(text: &str) -> Result<Vec<Finding>, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let arr = v
            .get("findings")
            .and_then(Value::as_arr)
            .ok_or("missing `findings` array")?;
        arr.iter()
            .map(|f| Finding::from_json(f).map_err(|e| e.to_string()))
            .collect()
    }

    /// A finding's identity for baseline matching. The message is excluded
    /// so wording tweaks don't un-grandfather old entries; line/column are
    /// included so a baseline survives only as long as the file around it
    /// is untouched — editing a grandfathered site forces a fix or an
    /// explicit re-bless.
    fn key(f: &Finding) -> (&str, &str, u32, u32) {
        (f.lint.as_str(), f.file.as_str(), f.line, f.col)
    }

    /// Splits `findings` into new vs. grandfathered, and reports stale
    /// baseline entries.
    pub fn compare(findings: &[Finding], baseline: &[Finding]) -> Comparison {
        let base: std::collections::BTreeSet<_> = baseline.iter().map(key).collect();
        let seen: std::collections::BTreeSet<_> = findings.iter().map(key).collect();
        let mut cmp = Comparison::default();
        for f in findings {
            if base.contains(&key(f)) {
                cmp.grandfathered.push(f.clone());
            } else {
                cmp.new.push(f.clone());
            }
        }
        for b in baseline {
            if !seen.contains(&key(b)) {
                cmp.stale.push(b.clone());
            }
        }
        cmp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(lint: &str, file: &str, line: u32) -> Finding {
        Finding::new(file, line, 7, lint, "m".into(), "h")
    }

    #[test]
    fn baseline_roundtrip_and_compare() {
        let base = vec![f("seam_enforcement", "crates/x/src/a.rs", 10)];
        let text = findings_json(&base);
        let parsed = baseline::parse(&text).unwrap();
        assert_eq!(parsed, base);

        let findings = vec![
            f("seam_enforcement", "crates/x/src/a.rs", 10),
            f("unordered_iteration", "crates/x/src/b.rs", 3),
        ];
        let cmp = baseline::compare(&findings, &parsed);
        assert_eq!(cmp.grandfathered.len(), 1);
        assert_eq!(cmp.new.len(), 1);
        assert_eq!(cmp.new[0].lint, "unordered_iteration");
        assert!(cmp.stale.is_empty());

        let cmp = baseline::compare(&[], &parsed);
        assert_eq!(cmp.stale.len(), 1);
    }

    #[test]
    fn findings_json_is_byte_stable() {
        let findings = vec![
            f("unordered_iteration", "a.rs", 1),
            f("seam_enforcement", "b.rs", 2),
        ];
        assert_eq!(findings_json(&findings), findings_json(&findings.clone()));
    }
}
