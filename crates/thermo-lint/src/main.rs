//! The `thermo-lint` binary: walks `crates/*/src` (plus the root package's
//! `src/`), reports invariant violations with `file:line:col`, lint name,
//! and a fix hint, and gates against the grandfathered baseline.
//!
//! ```text
//! thermo-lint [--root DIR] [--json] [--baseline FILE] [--write-baseline FILE] [FILE…]
//! ```
//!
//! * `--root DIR` — workspace root (default: the current directory).
//! * `--baseline FILE` — compare against a grandfathered baseline; only
//!   *new* findings fail the gate (exit 1). Without a baseline, any
//!   finding fails.
//! * `--write-baseline FILE` — bless the current findings as the new
//!   baseline (exits 0).
//! * `--json` — machine-readable report on stdout (byte-stable ordering,
//!   same shape as the baseline file) for CI diffing.
//! * `FILE…` — lint only these files (workspace-relative), e.g. for
//!   editor integration; the baseline gate still applies.
//!
//! Exit codes: 0 clean, 1 violations, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use thermo_lint::{baseline, counts_by_lint, family_code, findings_json, Finding};

struct Args {
    root: PathBuf,
    json: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    files: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        baseline: None,
        write_baseline: None,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => args.root = it.next().ok_or("--root needs a directory")?.into(),
            "--json" => args.json = true,
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a file")?.into());
            }
            "--write-baseline" => {
                args.write_baseline =
                    Some(it.next().ok_or("--write-baseline needs a file")?.into());
            }
            "--help" | "-h" => {
                return Err(
                    "usage: thermo-lint [--root DIR] [--json] [--baseline FILE] \
                     [--write-baseline FILE] [FILE…]"
                        .to_string(),
                );
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => args.files.push(other.to_string()),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let findings: Vec<Finding> = if args.files.is_empty() {
        thermo_lint::lint_workspace(&args.root).map_err(|e| format!("walk failed: {e}"))?
    } else {
        // Explicit files go through the same per-file passes, stale-pragma
        // accounting and sort as the workspace walk.
        let mut sources = Vec::new();
        for rel in &args.files {
            let path = args.root.join(rel);
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            sources.push((rel.clone(), source));
        }
        thermo_lint::lint_files(&sources)
    };

    if let Some(path) = &args.write_baseline {
        std::fs::write(path, findings_json(&findings))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "thermo-lint: blessed {} finding(s) into {}",
            findings.len(),
            path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let base = match &args.baseline {
        Some(p) => baseline::load(p)?,
        None => Vec::new(),
    };
    let cmp = baseline::compare(&findings, &base);

    if args.json {
        print!("{}", findings_json(&findings));
    } else {
        report_human(&cmp);
    }
    Ok(if cmp.new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn report_human(cmp: &baseline::Comparison) {
    for f in &cmp.new {
        println!(
            "{}:{}:{}: [{}/{}] {}",
            f.file,
            f.line,
            f.col,
            family_code(&f.lint),
            f.lint,
            f.message
        );
        println!("    hint: {}", f.hint);
    }
    let all: Vec<Finding> = cmp
        .new
        .iter()
        .chain(cmp.grandfathered.iter())
        .cloned()
        .collect();
    if all.is_empty() && cmp.stale.is_empty() {
        println!("thermo-lint: clean (0 findings)");
        return;
    }
    println!("per-lint counts:");
    for (lint, n) in counts_by_lint(&all) {
        let grandfathered = cmp.grandfathered.iter().filter(|f| f.lint == lint).count();
        println!(
            "    {:<10} {:<24} {:>3} ({} grandfathered)",
            family_code(&lint),
            lint,
            n,
            grandfathered
        );
    }
    println!(
        "thermo-lint: {} new, {} grandfathered (baseline), {} stale baseline entr{}",
        cmp.new.len(),
        cmp.grandfathered.len(),
        cmp.stale.len(),
        if cmp.stale.len() == 1 { "y" } else { "ies" }
    );
    for s in &cmp.stale {
        println!(
            "    stale: {}:{}:{} [{}] — fixed; re-bless to count the baseline down",
            s.file, s.line, s.col, s.lint
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("thermo-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
