//! `perfbench`: host-throughput benchmark of the tiered-memory simulator.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//!           [--size full|tiny] [--trace-out <file>]
//! perfbench steady [--rounds <n>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! An untraced run measures one workload (build, warm up, measure,
//! check) in a series of fresh processes (`perfbench measure`) within
//! `--seconds`, at least [`MIN_PROCESSES`] of them, and prints one JSON
//! result line last with the end-to-end metrics. A traced run
//! repeats in one process and prints the per-layer metrics. See
//! `README.md` beside this crate.

mod child;
mod cli;
mod probe;
mod rep;
mod report;
mod stats;
mod steady;
mod workloads;

use cli::{Command, MeasureArgs, RunArgs};
use rep::Rep;
use report::{Outcome, Value, END_TO_END, PER_LAYER};
use stats::median;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};
use workloads::{Plan, FLEET_WORKERS, SCAN_WORKERS};

/// Fewest processes an untraced run measures in.
const MIN_PROCESSES: usize = 3;

/// Most processes an untraced run starts, however short they are.
const MAX_PROCESSES: usize = 100;

/// Repetitions per measuring process: one to warm it, one timed.
const REPS_PER_PROCESS: u64 = 2;

/// Most repetitions a traced run makes, however short they are.
const MAX_REPS: usize = 200;

/// Named checks per repetition (see `rep::tally_checks`).
const CHECKS_PER_REP: u64 = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli::parse(&args) {
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
        Ok(Command::Run(run)) => run_workload(&run),
        Ok(Command::Measure(m)) => measure(&m),
        Ok(Command::Steady(s)) => steady::run(&s),
    };
    std::process::exit(code);
}

fn print_settings(a: &RunArgs, plan: &Plan) {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# perfbench workload={} seed={:#x} seconds={} trace={} size={} host_threads={host}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.size.name(),
    );
    match plan {
        Plan::Single(p) => println!(
            "# settings: app={} scale={} read_pct={} period_ns={} fabric={} link_bytes_per_s={} \
             warmup_ns={} measure_ns={} scan_workers={SCAN_WORKERS} runner=run_for",
            p.app,
            p.params.scale,
            p.params.read_pct,
            p.params.sampling_period_ns,
            p.fabric.is_some_and(|f| f.enabled),
            p.fabric.map_or(0, |f| f.link_bandwidth_bytes_per_sec),
            p.warmup_ns,
            p.measure_ns,
        ),
        Plan::Storm(p) => println!(
            "# settings: scenario={} tenants={} scale={} warmup_ns={} duration_ns={} \
             scan_workers={SCAN_WORKERS} sched_fuzz=none runner=run_tenants_coscheduled",
            p.spec.name,
            p.spec.n_tenants(),
            p.params.scale,
            p.warmup_ns,
            p.duration_ns,
        ),
        Plan::Fleet(p) => println!(
            "# settings: scenario={} tenants={} shards={} scale={} duration_ns={} \
             scan_workers={SCAN_WORKERS} exec_workers={FLEET_WORKERS} exec_fuzz=none \
             runner=run_tenants_sharded",
            p.spec.name,
            p.spec.n_tenants(),
            p.spec.n_tenants() * workloads::POLICY_NAMES.len(),
            p.params.scale,
            p.duration_ns,
        ),
    }
}

/// When an in-process run stops repeating.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// A measuring process: exactly [`REPS_PER_PROCESS`] repetitions.
    Process,
    /// A traced run: until the budget has passed.
    Budget(Duration),
}

/// Repeats `plan` in this process. Repetition 0 warms the fresh process
/// (page faults on a new heap, cold caches): it is checked but not timed.
/// Traced runs then alternate a traced and an untraced repetition of the
/// same inputs, ending on an untraced one, so the overhead and the digest
/// comparison use neighbours in time.
fn repeat(plan: &Plan, trace: bool, stop: Stop) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = trace && !reps.len().is_multiple_of(2);
        let r = rep::run(plan, traced);
        println!(
            "# rep {} traced={} wall_s={:.4} setup_s={:.4} measured_s={:.4} maccess_per_s={:.4} digest={:016x}",
            reps.len(),
            u8::from(traced),
            r.wall_s,
            r.setup_s,
            r.measured_s,
            r.measured_accesses as f64 / r.measured_s / 1e6,
            r.digest,
        );
        reps.push(r);
        let n = reps.len();
        let done = match stop {
            Stop::Process => n as u64 >= REPS_PER_PROCESS,
            Stop::Budget(budget) => n >= 3 && !n.is_multiple_of(2) && start.elapsed() >= budget,
        };
        if done || n >= MAX_REPS {
            return reps;
        }
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn evaluate(reps: &[Rep], trace: bool) -> Outcome {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for r in reps {
        for (name, ok) in &r.checks {
            attempted += 1;
            if !ok {
                failed += 1;
                println!("# check failed: {name}");
            }
        }
    }
    let first = reps[0].digest;
    let mut digest_check = |name: &str, traced: bool| {
        attempted += 1;
        if reps.iter().any(|r| r.traced == traced && r.digest != first) {
            failed += 1;
            println!("# check failed: {name}");
        }
    };
    digest_check("digest_repeats", false);
    if trace {
        digest_check("traced_digest_matches_untraced", true);
    }
    println!("# digest {first:016x}");
    // Repetition 0 warmed the process; time the rest when there are any.
    let timed = if reps.len() > 1 { &reps[1..] } else { reps };
    let untraced: Vec<&Rep> = timed.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = timed.iter().filter(|r| r.traced).collect();
    let metrics = if trace {
        report::per_layer(&traced, &untraced)
    } else {
        report::end_to_end(
            &untraced,
            peak_rss_mb(),
            report::pass_frac(attempted, failed),
        )
    };
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// An untraced run: measuring processes of [`REPS_PER_PROCESS`]
/// repetitions each, started one after another while the next is
/// expected (from the last one's duration) to end within the budget, so a
/// run takes about its budget and no more.
///
/// `maccess_per_s` is the slowest process's rate. On a shared host the
/// simulator runs at a steady contended speed with bursts of up to 2x
/// above it that last from seconds to a whole run; the slowest process
/// reads the steady speed, a median follows the bursts (README,
/// "Steadiness"). `setup_s` and `peak_rss_mb` (each process's `VmHWM`)
/// are medians over processes.
fn across_processes(a: &RunArgs) -> Outcome {
    let start = Instant::now();
    let budget = Duration::from_secs(a.seconds);
    let args: Vec<String> = [
        "measure",
        "--workload",
        a.workload.name(),
        "--seed",
        &a.seed.to_string(),
        "--size",
        a.size.name(),
    ]
    .map(String::from)
    .to_vec();
    println!(
        "# measuring in fresh processes of {REPS_PER_PROCESS} repetitions (the first untimed), \
         at least {MIN_PROCESSES}, within {} s",
        a.seconds
    );
    let mut attempted = 1u64;
    let mut failed = 0u64;
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut digests = BTreeSet::new();
    let mut processes = 0;
    let mut last = Duration::ZERO;
    while processes < MIN_PROCESSES
        || (start.elapsed() + last <= budget && processes < MAX_PROCESSES)
    {
        processes += 1;
        let began = Instant::now();
        let run = child::run(&args);
        last = began.elapsed();
        match run {
            Ok(c) => {
                println!(
                    "# process {processes}: {} digest={}",
                    c.metrics
                        .iter()
                        .map(|(k, v)| format!("{k}={v:.4}"))
                        .collect::<Vec<_>>()
                        .join(" "),
                    c.digest.as_deref().unwrap_or("none"),
                );
                attempted += c.attempted;
                failed += c.failed;
                digests.insert(c.digest);
                for d in &END_TO_END {
                    if let Some(v) = c.metrics.get(d.name) {
                        values.entry(d.name).or_default().push(*v);
                    }
                }
            }
            Err(e) => {
                println!("# process {processes} failed: {e}");
                attempted += CHECKS_PER_REP * REPS_PER_PROCESS;
                failed += CHECKS_PER_REP * REPS_PER_PROCESS;
            }
        }
    }
    if digests.len() != 1 || digests.contains(&None) {
        failed += 1;
        println!("# check failed: digest_repeats_across_processes");
    }
    let of = |name: &str| values.get(name).map_or(&[][..], Vec::as_slice);
    let pass = report::pass_frac(attempted, failed);
    let metrics = END_TO_END
        .iter()
        .map(|d| {
            let v = match d.name {
                "pass_frac" => Some(pass),
                "maccess_per_s" => of(d.name).iter().copied().reduce(f64::min),
                _ => median(of(d.name)),
            };
            (*d, Value::Real(v.unwrap_or(0.0)))
        })
        .collect();
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// The result of a run that panicked: every check failed.
fn panicked(trace: bool) -> Outcome {
    let defs: &[report::MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    let attempted = CHECKS_PER_REP + 1 + u64::from(trace);
    Outcome {
        attempted,
        failed: attempted,
        metrics: defs.iter().map(|d| (*d, Value::Real(0.0))).collect(),
    }
}

fn write_spans(path: &Path, reps: &[Rep]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, r) in reps.iter().enumerate().filter(|(_, r)| r.traced) {
        for line in &r.spans {
            writeln!(out, "{{\"rep\": {i}, \"span\": {line}}}")?;
        }
    }
    out.flush()
}

fn run_workload(a: &RunArgs) -> i32 {
    let plan = workloads::plan(a.workload, a.size, a.seed);
    print_settings(a, &plan);
    if !a.trace {
        return finish(&across_processes(a));
    }
    let budget = Stop::Budget(Duration::from_secs(a.seconds));
    in_process(&plan, true, budget, a.trace_out.as_deref())
}

/// One measuring process of an untraced run.
fn measure(m: &MeasureArgs) -> i32 {
    let plan = workloads::plan(m.workload, m.size, m.seed);
    in_process(&plan, false, Stop::Process, None)
}

/// Repeats `plan` in this process until `stop` and reports it; a panic
/// fails every check.
fn in_process(plan: &Plan, trace: bool, stop: Stop, trace_out: Option<&Path>) -> i32 {
    let outcome = match catch_unwind(AssertUnwindSafe(|| repeat(plan, trace, stop))) {
        Ok(reps) => {
            if let Some(path) = trace_out {
                if let Err(e) = write_spans(path, &reps) {
                    eprintln!("perfbench: TraceOut: cannot write {}: {e}", path.display());
                    return 2;
                }
            }
            evaluate(&reps, trace)
        }
        Err(_) => {
            println!("# run panicked: every check fails");
            panicked(trace)
        }
    };
    finish(&outcome)
}

/// Prints the metrics readably, then the result line; the exit code.
fn finish(outcome: &Outcome) -> i32 {
    for (d, v) in &outcome.metrics {
        let shown = match v {
            Value::Count(n) => n.to_string(),
            Value::Real(x) => format!("{x:.6}"),
        };
        println!("# {:<32} {shown:>20} {}", d.name, d.unit);
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        0
    } else {
        1
    }
}
