//! Runs `perfbench` itself as a child process and reads its result.

use std::collections::BTreeMap;
use std::process::Command;
use thermo_util::json::{parse, Value};

/// What one child run printed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildRun {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// The `sim.digest` every repetition of the child printed, hex.
    pub digest: Option<String>,
}

/// Runs this executable with `args`, waits for it, and parses its result
/// line (the last stdout line) and its `# digest` line.
pub fn run(args: &[String]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = parse(last).map_err(|e| format!("{} without a result line: {e}", out.status))?;
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    let count = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    Ok(ChildRun {
        correct: out.status.success() && v.get("correct").and_then(Value::as_bool) == Some(true),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: metrics
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        digest: stdout
            .lines()
            .find_map(|l| l.strip_prefix("# digest "))
            .map(str::to_string),
    })
}
