//! Golden-artifact regression checker.
//!
//! Re-runs every registry experiment (the 15 of
//! [`thermo_bench::experiments::ALL`]: fig5–fig10, tab2–tab4, tenants,
//! fab_bw, fab_abort, tenants_shared, scen_fleet and scen_storm) and
//! checks each artifact's canonical JSON against the bytes of its
//! checked-in expectation in `goldens/`; a mismatch report names the
//! diverging fields ([`thermo_bench::golden::check_artifact`]).
//!
//! Experiments run as parallel jobs on the `thermo-exec` pool —
//! `THERMO_JOBS` workers, default = available parallelism — and merge in
//! registry order, so the artifacts (and therefore the check verdict)
//! are byte-identical to a serial run; only the wall-clock changes, and
//! per-experiment + total wall-clock are printed so CI logs show the
//! speedup.
//!
//! ```console
//! $ golden check            # check all experiments, exit 1 on mismatch
//! $ golden check fig8 tab4  # just these ids
//! $ golden bless            # overwrite goldens with fresh artifacts
//! $ golden check --full     # opt-in full 1/16-scale tier (goldens/full/)
//! ```
//!
//! Two scales exist: the default smoke tier ([`EvalParams::smoke`],
//! goldens in `goldens/`, default CI) and the opt-in full tier
//! ([`EvalParams::full`], `--full` or `THERMO_GOLDEN_SCALE=full`,
//! goldens blessed separately under `goldens/full/`, release branches
//! only). Usually invoked through `scripts/golden.sh`. Set
//! `THERMO_GOLDEN_DIR` to point at an alternate golden tree.

use thermo_bench::experiments::{self, run_parallel, Experiment};
use thermo_bench::golden::{canonical_json, check_artifact, golden_dir};
use thermo_bench::EvalParams;

fn main() {
    let mut mode: Option<String> = None;
    let mut full = std::env::var("THERMO_GOLDEN_SCALE").is_ok_and(|v| v == "full");
    let mut ids: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => full = true,
            _ if mode.is_none() => mode = Some(arg),
            _ => ids.push(arg),
        }
    }
    let mode = mode.unwrap_or_else(|| "check".to_string());
    if !matches!(mode.as_str(), "check" | "bless") {
        eprintln!("usage: golden [check|bless] [--full] [id...]");
        std::process::exit(2);
    }
    let selected: Vec<&'static Experiment> = if ids.is_empty() {
        experiments::ALL.iter().collect()
    } else {
        ids.iter()
            .map(|id| {
                experiments::by_id(id).unwrap_or_else(|| {
                    eprintln!("unknown experiment id `{id}`; registered ids:");
                    for e in experiments::ALL {
                        eprintln!("  {}", e.id);
                    }
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let (params, dir, tier) = if full {
        (EvalParams::full(), golden_dir().join("full"), "full")
    } else {
        (EvalParams::smoke(), golden_dir(), "smoke")
    };
    let workers = thermo_exec::jobs_from_env();
    let total0 = std::time::Instant::now();
    let results = run_parallel(&selected, &params, workers);
    let total = total0.elapsed();

    let mut failures = 0usize;
    let mut serial_equiv = std::time::Duration::ZERO;
    for run in &results {
        serial_equiv += run.wall;
        match mode.as_str() {
            "bless" => {
                std::fs::create_dir_all(&dir)
                    .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
                let path = dir.join(format!("{}.json", run.id));
                std::fs::write(&path, canonical_json(&run.artifact))
                    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
                println!(
                    "blessed {} ({:.2}s)",
                    path.display(),
                    run.wall.as_secs_f64()
                );
            }
            _ => match check_artifact(&run.artifact, &dir) {
                Ok(()) => println!("golden ok: {} ({:.2}s)", run.id, run.wall.as_secs_f64()),
                Err(report) => {
                    eprintln!("{report}");
                    failures += 1;
                }
            },
        }
    }
    println!(
        "golden {tier} tier: {} experiment(s) in {:.2}s wall (sum of per-experiment wall {:.2}s, {} worker(s))",
        results.len(),
        total.as_secs_f64(),
        serial_equiv.as_secs_f64(),
        workers
    );
    if failures > 0 {
        eprintln!("golden check FAILED: {failures} experiment(s) diverged");
        std::process::exit(1);
    }
}
