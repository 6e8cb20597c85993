//! Golden-artifact comparison, plus the bless/check plumbing used by the
//! `golden` binary and `scripts/golden.sh`.
//!
//! The simulation is a pure function of the seed and `thermo_util::json`
//! output is byte-stable (see `tests/determinism.rs`), so an unchanged
//! tree reproduces checked-in expectations byte for byte, and that is
//! the check: a fresh artifact's canonical JSON must equal the golden
//! file's bytes. When it does not, an exact structural walk of the two
//! documents names the diverging fields and the first diverging period,
//! because a byte offset into a 2000-line artifact names nothing.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::artifact::ExperimentArtifact;
use thermo_util::json::{parse, to_string_pretty, ToJson, Value};

/// One structural divergence between expectation and actual.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Dotted path of the diverging field (e.g. `runs[1].history[2].demoted`).
    pub path: String,
    /// Expected value (from the golden), rendered compactly.
    pub expected: String,
    /// Actual value (from the fresh run), rendered compactly.
    pub actual: String,
    /// Why it diverged (type mismatch, beyond band, missing, ...).
    pub reason: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected {}, got {} ({})",
            self.path, self.expected, self.actual, self.reason
        )
    }
}

/// Structurally compares `actual` against `expected`, returning every
/// divergence (empty = match). Object key order is ignored; every other
/// value must be equal.
pub fn diff_values(expected: &Value, actual: &Value) -> Vec<Mismatch> {
    let mut out = Vec::new();
    walk("$", expected, actual, &mut out);
    out
}

fn short(v: &Value) -> String {
    let s = thermo_util::json::to_string(v);
    if s.len() <= 48 {
        return s;
    }
    let mut end = 47;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

fn push(out: &mut Vec<Mismatch>, path: &str, e: &Value, a: &Value, reason: impl Into<String>) {
    out.push(Mismatch {
        path: path.to_string(),
        expected: short(e),
        actual: short(a),
        reason: reason.into(),
    });
}

fn walk(path: &str, e: &Value, a: &Value, out: &mut Vec<Mismatch>) {
    match (e, a) {
        (Value::Obj(ef), Value::Obj(af)) => {
            for (k, ev) in ef {
                match a.get(k) {
                    Some(av) => walk(&format!("{path}.{k}"), ev, av, out),
                    None => push(
                        out,
                        &format!("{path}.{k}"),
                        ev,
                        &Value::Null,
                        "missing field",
                    ),
                }
            }
            for (k, av) in af {
                if e.get(k).is_none() {
                    push(
                        out,
                        &format!("{path}.{k}"),
                        &Value::Null,
                        av,
                        "unexpected field",
                    );
                }
            }
        }
        (Value::Arr(ea), Value::Arr(aa)) => {
            if ea.len() != aa.len() {
                push(
                    out,
                    path,
                    e,
                    a,
                    format!("array length {} vs {}", ea.len(), aa.len()),
                );
            }
            for (i, (ev, av)) in ea.iter().zip(aa).enumerate() {
                walk(&format!("{path}[{i}]"), ev, av, out);
            }
        }
        _ => {
            if e != a {
                push(out, path, e, a, "value mismatch");
            }
        }
    }
}

/// Index of the first period that diverges, extracted from a mismatch
/// path like `$.runs[1].history[7].demoted`.
fn first_diverging_period(mismatches: &[Mismatch]) -> Option<(usize, String)> {
    mismatches
        .iter()
        .filter_map(|m| {
            let (_, rest) = m.path.split_once("history[")?;
            let (idx, _) = rest.split_once(']')?;
            Some((idx.parse::<usize>().ok()?, m.path.clone()))
        })
        .min()
}

/// Renders a human-readable mismatch report for one experiment, naming
/// the first diverging period when the divergence is in a run history.
pub fn render_mismatch_report(id: &str, mismatches: &[Mismatch]) -> String {
    let mut out = format!(
        "golden mismatch for `{id}`: {} field(s) diverge\n",
        mismatches.len()
    );
    if let Some((period, path)) = first_diverging_period(mismatches) {
        out.push_str(&format!(
            "  first diverging period: #{period} (at {path})\n"
        ));
    }
    const SHOW: usize = 20;
    for m in mismatches.iter().take(SHOW) {
        out.push_str(&format!("  - {m}\n"));
    }
    if mismatches.len() > SHOW {
        out.push_str(&format!("  … and {} more\n", mismatches.len() - SHOW));
    }
    out.push_str(&format!(
        "  (intentional change? re-bless with `scripts/golden.sh bless {id}`)"
    ));
    out
}

/// Directory holding the checked-in golden expectations. Overridable via
/// `THERMO_GOLDEN_DIR`; defaults to `<repo root>/goldens`.
pub fn golden_dir() -> PathBuf {
    std::env::var_os("THERMO_GOLDEN_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("goldens")
        })
}

/// Canonical golden serialization of an artifact: pretty-printed JSON
/// with a trailing newline, round-tripped through the parser so the
/// in-memory and on-disk forms compare identically.
pub fn canonical_json(artifact: &ExperimentArtifact) -> String {
    let mut s = to_string_pretty(&artifact.to_json());
    s.push('\n');
    s
}

/// Checks a freshly produced artifact against `goldens/<id>.json`: its
/// [`canonical_json`] must equal the file's bytes. Returns `Ok(())` on
/// match, or the rendered mismatch report.
pub fn check_artifact(artifact: &ExperimentArtifact, dir: &Path) -> Result<(), String> {
    let id = &artifact.report.id;
    let path = dir.join(format!("{id}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "no golden for `{id}` at {} ({e}); bless it with `scripts/golden.sh bless {id}`",
            path.display()
        )
    })?;
    let fresh = canonical_json(artifact);
    if text == fresh {
        return Ok(());
    }
    let expected =
        parse(&text).map_err(|e| format!("golden {} is not valid JSON: {e}", path.display()))?;
    let actual = parse(&fresh).expect("artifact JSON reparses");
    let mut mismatches = diff_values(&expected, &actual);
    if mismatches.is_empty() {
        // Equal values in different bytes: field order or number format.
        let line = text
            .lines()
            .zip(fresh.lines())
            .take_while(|(g, f)| g == f)
            .count();
        let at = |s: &str| s.lines().nth(line).unwrap_or("").trim().to_string();
        mismatches.push(Mismatch {
            path: format!("line {}", line + 1),
            expected: at(&text),
            actual: at(&fresh),
            reason: "same values, different bytes".into(),
        });
    }
    Err(render_mismatch_report(id, &mismatches))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn identical_values_match() {
        let v = obj(vec![
            ("a", Value::U64(1)),
            ("b", Value::F64(0.5)),
            ("c", Value::Arr(vec![Value::Str("x".into())])),
        ]);
        assert!(diff_values(&v, &v.clone()).is_empty());
    }

    #[test]
    fn any_numeric_drift_is_a_mismatch() {
        for (e, a) in [
            (Value::U64(3), Value::U64(4)),
            (Value::F64(1000.0), Value::F64(1000.000001)),
        ] {
            let ms = diff_values(
                &obj(vec![("ops_per_sec", e)]),
                &obj(vec![("ops_per_sec", a)]),
            );
            assert_eq!(ms.len(), 1);
            assert_eq!(ms[0].path, "$.ops_per_sec");
        }
    }

    #[test]
    fn missing_and_unexpected_fields_are_reported() {
        let e = obj(vec![("a", Value::U64(1)), ("b", Value::U64(2))]);
        let a = obj(vec![("a", Value::U64(1)), ("z", Value::U64(9))]);
        let ms = diff_values(&e, &a);
        let reasons: Vec<&str> = ms.iter().map(|m| m.reason.as_str()).collect();
        assert!(reasons.contains(&"missing field"));
        assert!(reasons.contains(&"unexpected field"));
    }

    #[test]
    fn array_length_and_type_mismatches() {
        let e = Value::Arr(vec![Value::U64(1), Value::U64(2)]);
        let a = Value::Arr(vec![Value::U64(1)]);
        let ms = diff_values(&e, &a);
        assert!(ms[0].reason.contains("array length"));
        let ms = diff_values(&Value::Bool(true), &Value::U64(1));
        assert_eq!(ms.len(), 1, "bool vs number is a type mismatch");
    }

    #[test]
    fn report_names_first_diverging_period() {
        let ms = vec![
            Mismatch {
                path: "$.runs[1].history[7].demoted".into(),
                expected: "3".into(),
                actual: "4".into(),
                reason: "value mismatch".into(),
            },
            Mismatch {
                path: "$.runs[1].history[2].promoted".into(),
                expected: "0".into(),
                actual: "1".into(),
                reason: "value mismatch".into(),
            },
        ];
        let report = render_mismatch_report("fig8", &ms);
        assert!(report.contains("first diverging period: #2"), "{report}");
        assert!(report.contains("golden mismatch for `fig8`"));
        assert!(report.contains("bless"));
    }

    #[test]
    fn object_key_order_is_ignored() {
        let e = obj(vec![("a", Value::U64(1)), ("b", Value::U64(2))]);
        let a = obj(vec![("b", Value::U64(2)), ("a", Value::U64(1))]);
        assert!(diff_values(&e, &a).is_empty());
    }
}
