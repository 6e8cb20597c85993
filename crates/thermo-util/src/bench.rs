//! A tiny Criterion-shaped bench harness for `harness = false` bench
//! targets.
//!
//! Mirrors the subset of the `criterion` API the workspace's benches use
//! ([`Criterion::bench_function`], [`Criterion::benchmark_group`],
//! [`Bencher::iter`]/[`Bencher::iter_batched`], [`black_box`], and the
//! [`criterion_group!`](crate::criterion_group!)/
//! [`criterion_main!`](crate::criterion_main!) macros) so the bench
//! sources migrate with an import swap.
//!
//! Measurement: a short warmup, then `sample_size` timed iterations with
//! per-iteration samples, reported as one parseable line per bench —
//! `bench <name> median <m> µs (mean <x> σ <s> min <a> max <b>, <n>
//! iters)` — in every mode, including the `THERMO_BENCH_FAST=1` smoke
//! mode CI uses (single-shot there, so σ = 0).
//!
//! With `THERMO_BENCH_JSON=path`, the
//! [`criterion_main!`](crate::criterion_main!) epilogue writes every
//! bench's [`BenchStats`] to `path` as a machine-readable baseline.
//! `scripts/ci.sh` gates on the median of several such files against
//! `goldens/bench-baseline.json`; this harness compares nothing itself.
//!
//! The harness reads wall-clock time, which thermo-util's `clippy.toml`
//! bans (D2, DESIGN.md §11); each read carries an `#[expect]`.

use std::sync::Mutex;
#[expect(
    clippy::disallowed_types,
    reason = "the bench harness exists to measure wall-clock; timings never enter golden artifacts"
)]
use std::time::{Duration, Instant};

use crate::json_struct;

pub use std::hint::black_box;

/// `THERMO_BENCH_FAST`: unset or `0` is off, a positive count is on.
///
/// # Panics
///
/// Panics, naming the variable and its value, when it is set but is not a
/// count (`false`, `no` or an empty value).
fn fast_mode() -> bool {
    crate::rng::count_from_env("THERMO_BENCH_FAST").is_some_and(|n| n > 0)
}

/// Results of every bench run so far in this process, drained by
/// [`finalize`] from the `criterion_main!` epilogue.
static RESULTS: Mutex<Vec<BenchStats>> = Mutex::new(Vec::new());

/// Summary statistics for one bench's timed iterations, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Bench name (`group/name` inside groups).
    pub name: String,
    /// Timed iterations (excludes the warmup).
    pub iters: u64,
    /// Median iteration time, ns.
    pub median_ns: f64,
    /// Mean iteration time, ns.
    pub mean_ns: f64,
    /// Population standard deviation, ns (0 for a single sample).
    pub stddev_ns: f64,
    /// Fastest iteration, ns.
    pub min_ns: f64,
    /// Slowest iteration, ns.
    pub max_ns: f64,
    /// The full per-rep sample distribution, sorted ascending, ns.
    /// Everything the summary fields are computed from, so baseline
    /// consumers can run their own significance tests instead of
    /// trusting median/σ alone.
    pub samples_ns: Vec<f64>,
}

// Hand-written instead of `json_struct!` so `samples_ns` is optional on
// decode: baselines written before the field existed (and the smoke
// baselines CI has checked in) must keep loading, defaulting to an
// empty distribution.
impl crate::json::ToJson for BenchStats {
    fn to_json(&self) -> crate::json::Value {
        crate::json::Value::Obj(vec![
            ("name".to_string(), self.name.to_json()),
            ("iters".to_string(), self.iters.to_json()),
            ("median_ns".to_string(), self.median_ns.to_json()),
            ("mean_ns".to_string(), self.mean_ns.to_json()),
            ("stddev_ns".to_string(), self.stddev_ns.to_json()),
            ("min_ns".to_string(), self.min_ns.to_json()),
            ("max_ns".to_string(), self.max_ns.to_json()),
            ("samples_ns".to_string(), self.samples_ns.to_json()),
        ])
    }
}

impl crate::json::FromJson for BenchStats {
    fn from_json(v: &crate::json::Value) -> Result<Self, crate::json::JsonError> {
        use crate::json::FromJson;
        let field = |name: &str| {
            v.get(name).ok_or_else(|| {
                crate::json::JsonError::new(format!("BenchStats: missing field `{name}`"))
            })
        };
        Ok(BenchStats {
            name: FromJson::from_json(field("name")?)?,
            iters: FromJson::from_json(field("iters")?)?,
            median_ns: FromJson::from_json(field("median_ns")?)?,
            mean_ns: FromJson::from_json(field("mean_ns")?)?,
            stddev_ns: FromJson::from_json(field("stddev_ns")?)?,
            min_ns: FromJson::from_json(field("min_ns")?)?,
            max_ns: FromJson::from_json(field("max_ns")?)?,
            samples_ns: match v.get("samples_ns") {
                Some(s) => FromJson::from_json(s)?,
                None => Vec::new(),
            },
        })
    }
}

impl BenchStats {
    /// Computes the summary from raw per-iteration samples.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty.
    pub fn from_samples(name: &str, samples: &[Duration]) -> Self {
        assert!(!samples.is_empty(), "bench produced no samples");
        let mut ns: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e9).collect();
        ns.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let n = ns.len();
        let median = if n % 2 == 1 {
            ns[n / 2]
        } else {
            (ns[n / 2 - 1] + ns[n / 2]) / 2.0
        };
        let mean = ns.iter().sum::<f64>() / n as f64;
        let var = ns.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        Self {
            name: name.to_string(),
            iters: n as u64,
            median_ns: median,
            mean_ns: mean,
            stddev_ns: var.sqrt(),
            min_ns: ns[0],
            max_ns: ns[n - 1],
            samples_ns: ns,
        }
    }

    /// The uniform one-line report, identical in shape across normal and
    /// smoke mode so CI output is always machine-parseable.
    pub fn report_line(&self) -> String {
        format!(
            "bench {:<40} median {:>12.3} µs (mean {:.3} σ {:.3} min {:.3} max {:.3}, {} iters)",
            self.name,
            self.median_ns / 1e3,
            self.mean_ns / 1e3,
            self.stddev_ns / 1e3,
            self.min_ns / 1e3,
            self.max_ns / 1e3,
            self.iters
        )
    }
}

/// The baseline file format written via `THERMO_BENCH_JSON` (and read by
/// `benchagg`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchBaseline {
    /// Every bench's statistics, in execution order.
    pub benches: Vec<BenchStats>,
}

json_struct!(BenchBaseline { benches });

/// Epilogue run by [`criterion_main!`](crate::criterion_main!): writes
/// the optional baseline JSON and returns the process exit code (0 = ok,
/// 1 = the file could not be written).
pub fn finalize() -> i32 {
    let benches = std::mem::take(&mut *RESULTS.lock().expect("bench results lock"));
    let Some(path) = std::env::var_os("THERMO_BENCH_JSON") else {
        return 0;
    };
    let mut text = crate::json::encode_pretty(&BenchBaseline { benches });
    text.push('\n');
    match std::fs::write(&path, text) {
        Ok(()) => {
            eprintln!("[bench baseline written to {}]", path.to_string_lossy());
            0
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", path.to_string_lossy());
            1
        }
    }
}

/// Top-level bench context handed to every registered bench function.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(name, self.sample_size, f);
        self
    }

    /// Opens a named group; benches inside share the group's settings.
    pub fn benchmark_group(&mut self, name: impl std::fmt::Display) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _c: self,
            name: name.to_string(),
            sample_size,
        }
    }
}

/// A named collection of benchmarks with shared settings.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per bench in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs a benchmark within the group (reported as `group/name`).
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, name), self.sample_size, f);
        self
    }

    /// Ends the group (accepted for API compatibility; nothing to flush).
    pub fn finish(self) {}
}

/// Controls how `iter_batched` amortizes setup; only the per-iteration
/// flavour is used in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Run setup before every routine invocation.
    PerIteration,
    /// Accepted for compatibility; treated like `PerIteration`.
    SmallInput,
}

/// Timer handle passed to the bench closure.
pub struct Bencher {
    iters: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` over the configured number of iterations.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warmup (untimed).
        black_box(routine());
        for _ in 0..self.iters {
            #[expect(
                clippy::disallowed_types,
                reason = "timed bench iteration: wall-clock is the measurement"
            )]
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Times `routine` with a fresh `setup()` input each iteration;
    /// setup time is excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        for _ in 0..self.iters {
            let input = setup();
            #[expect(
                clippy::disallowed_types,
                reason = "timed bench iteration: wall-clock is the measurement"
            )]
            let start = Instant::now();
            black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }
}

fn run_one<F>(name: &str, sample_size: usize, f: F)
where
    F: FnOnce(&mut Bencher),
{
    let iters = if fast_mode() { 1 } else { sample_size.max(1) };
    let mut b = Bencher {
        iters,
        samples: Vec::with_capacity(iters),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("bench {name:<40} (no measurement)");
        return;
    }
    let stats = BenchStats::from_samples(name, &b.samples);
    println!("{}", stats.report_line());
    RESULTS.lock().expect("bench results lock").push(stats);
}

/// Declares a bench group function, Criterion-style:
/// `criterion_group!(benches, bench_a, bench_b);`
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($f:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::bench::Criterion::default();
            $($f(&mut c);)+
        }
    };
}

/// Declares the bench binary's `main`, Criterion-style:
/// `criterion_main!(benches);`
///
/// After all groups run, the epilogue writes the `THERMO_BENCH_JSON`
/// baseline, if set, and exits non-zero when it cannot.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            std::process::exit($crate::bench::finalize());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_routine() {
        let count = std::cell::Cell::new(0u32);
        let mut c = Criterion::default();
        c.bench_function("counting", |b| b.iter(|| count.set(count.get() + 1)));
        // Warmup + timed iterations (exact count depends on fast mode).
        let expected = if fast_mode() { 2 } else { 11 };
        assert_eq!(count.get(), expected);
    }

    #[test]
    fn group_sample_size_applies() {
        let count = std::cell::Cell::new(0u32);
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_function(format!("case-{}", 1), |b| {
            b.iter_batched(
                || 5u32,
                |x| count.set(count.get() + x),
                BatchSize::PerIteration,
            )
        });
        g.finish();
        let expected = if fast_mode() { 2 * 5 } else { 4 * 5 };
        assert_eq!(count.get(), expected);
    }

    fn stats(name: &str, median_us: f64) -> BenchStats {
        BenchStats {
            name: name.to_string(),
            iters: 5,
            median_ns: median_us * 1e3,
            mean_ns: median_us * 1e3,
            stddev_ns: 0.0,
            min_ns: median_us * 1e3,
            max_ns: median_us * 1e3,
            samples_ns: vec![median_us * 1e3],
        }
    }

    #[test]
    fn stats_from_samples() {
        let us = Duration::from_micros;
        let s = BenchStats::from_samples("s", &[us(3), us(1), us(2), us(10)]);
        assert_eq!(s.iters, 4);
        assert!((s.median_ns - 2_500.0).abs() < 1e-6, "{}", s.median_ns);
        assert!((s.mean_ns - 4_000.0).abs() < 1e-6);
        assert!((s.min_ns - 1_000.0).abs() < 1e-6);
        assert!((s.max_ns - 10_000.0).abs() < 1e-6);
        // Population σ of [1,2,3,10]ms: mean 4, var (9+4+1+36)/4 = 12.5.
        assert!((s.stddev_ns - 1e3 * 12.5f64.sqrt()).abs() < 1e-6);
        // The full distribution rides along, sorted ascending.
        assert_eq!(s.samples_ns, vec![1_000.0, 2_000.0, 3_000.0, 10_000.0]);
    }

    #[test]
    fn baseline_without_samples_field_still_decodes() {
        // Baselines written before per-rep distributions existed have no
        // `samples_ns` key; they must load with an empty distribution
        // rather than error, so checked-in baselines survive the format
        // extension.
        let legacy = r#"{"benches":[{"name":"a","iters":1,"median_ns":5.0,
            "mean_ns":5.0,"stddev_ns":0.0,"min_ns":5.0,"max_ns":5.0}]}"#;
        let file: BenchBaseline = crate::json::decode(legacy).expect("legacy decodes");
        assert_eq!(file.benches.len(), 1);
        assert!(file.benches[0].samples_ns.is_empty());
    }

    #[test]
    fn single_sample_has_zero_sigma_and_parseable_line() {
        // Smoke mode produces single-sample sets; the report line must
        // keep the full statistics shape (σ = 0), not skip them.
        let s = BenchStats::from_samples("solo", &[Duration::from_micros(7)]);
        assert_eq!(s.iters, 1);
        assert_eq!(s.stddev_ns, 0.0);
        assert_eq!(s.median_ns, s.mean_ns);
        let line = s.report_line();
        assert!(line.contains("median"), "{line}");
        assert!(line.contains("σ 0.000"), "{line}");
        assert!(line.contains("1 iters"), "{line}");
    }

    #[test]
    fn baseline_json_roundtrip() {
        let file = BenchBaseline {
            benches: vec![stats("a", 1.5)],
        };
        let text = crate::json::encode_pretty(&file);
        let back: BenchBaseline = crate::json::decode(&text).expect("decodes");
        assert_eq!(back, file);
    }
}
