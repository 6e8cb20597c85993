//! Deterministic parallel job execution for the Thermostat reproduction.
//!
//! The simulation stack is a pure function of its seed, and the golden
//! regression gate (`scripts/golden.sh`) depends on artifacts staying
//! byte-identical run over run. That rules out the usual "spray work onto
//! a thread pool and collect whatever finishes first" approach: scheduling
//! must never be observable in any output. This crate is the execution
//! substrate that makes parallelism safe under that constraint:
//!
//! * **Jobs are values.** A [`Job`] is consumed by [`Job::run`]; any
//!   `FnOnce(&JobCtx) -> T + Send` closure is a job via the blanket impl.
//! * **Stable job ids.** Jobs are numbered by their position in the batch
//!   (`0..n`); the id is the job's identity in errors and seeds.
//! * **Per-job seed derivation.** Each job receives
//!   `seed = derive_stream_seed(base_seed, job_id)`
//!   ([`thermo_util::rng::derive_stream_seed`], two splitmix64 rounds),
//!   giving every job a statistically disjoint random stream that depends
//!   only on `(base_seed, job_id)` — never on which worker ran it.
//! * **Self-scheduling from one counter.** Workers claim positions in a
//!   claim order from one shared counter (`fetch_add`) until the order
//!   runs out, so an idle worker always takes the next unclaimed job and
//!   a slow job never holds up the rest. Every job in the tree is coarse
//!   (a whole experiment, a tenant run), so this balances as well as
//!   per-worker stealing would, and it can never claim a job twice. The
//!   claim order changes only *which worker* runs a job — never its id,
//!   its seed, or its place in the merged output.
//! * **Merge strictly in job-id order.** Every job writes its result into
//!   a slot indexed by its id; [`run_jobs`] returns the slots in id order
//!   regardless of completion order, worker count, claim order, or OS
//!   scheduling, so downstream artifacts are byte-identical for
//!   `workers = 1` and `workers = 64`.
//! * **Claim-order fuzzing.** `THERMO_EXEC_FUZZ=<seed>` (see
//!   [`exec_fuzz_from_env`]) shuffles the claim order with a seeded
//!   Fisher–Yates draw — the executor mirror of `THERMO_SCHED_FUZZ`. The
//!   golden gate runs several seeds and asserts byte-identity, turning
//!   "scheduling is unobservable" from an argument into a tested property
//!   (`tests/exec_determinism.rs`).
//! * **Panic capture.** A panicking job never takes down a worker: the
//!   panic is caught, the remaining jobs still run (workers drain
//!   cleanly), and the batch fails with the lowest panicking job id and
//!   its message ([`ExecError::JobPanicked`]).
//!
//! Worker threads are plain `std::thread` + one atomic counter — no
//! external dependencies, per the workspace's hermetic-build policy.
//! Wall-clock time is intentionally absent from every type here: timing
//! belongs to the caller's logs, never to merged results (DESIGN.md §9).
//!
//! # Example
//!
//! ```
//! use thermo_exec::{run_jobs, ExecConfig, JobCtx};
//!
//! let cfg = ExecConfig::new(4, 0xa5_2017);
//! let jobs: Vec<_> = (0..8u64)
//!     .map(|i| move |ctx: &JobCtx| (i, ctx.seed))
//!     .collect();
//! let out = run_jobs(jobs, &cfg).unwrap();
//! // Outputs are in job-id order no matter which worker ran what.
//! assert_eq!(out.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
//!            (0..8).collect::<Vec<_>>());
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use thermo_util::rng::{derive_stream_seed, SeedableRng, SmallRng};

/// Per-job execution context handed to [`Job::run`].
///
/// Everything here is a pure function of the batch configuration and the
/// job's position — re-running the same batch reproduces the same
/// contexts, which is what keeps seeded jobs deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobCtx {
    /// This job's stable id: its index in the submitted batch.
    pub job_id: u64,
    /// This job's derived seed:
    /// `derive_stream_seed(base_seed, job_id)`. Jobs that need
    /// randomness must draw from a generator seeded with this value (or
    /// ignore it and carry their own fixed seed); they must never consult
    /// wall-clock time or thread identity.
    pub seed: u64,
}

/// A unit of work the pool can execute.
///
/// Implemented for any `FnOnce(&JobCtx) -> T + Send` closure, so most
/// call sites never name this trait. Implement it directly when a job
/// carries enough state that a named struct reads better.
pub trait Job: Send {
    /// The job's result type, sent back to the submitting thread.
    type Output: Send;

    /// Runs the job to completion, consuming it.
    fn run(self, ctx: &JobCtx) -> Self::Output;
}

impl<F, T> Job for F
where
    F: FnOnce(&JobCtx) -> T + Send,
    T: Send,
{
    type Output = T;

    fn run(self, ctx: &JobCtx) -> T {
        self(ctx)
    }
}

/// Batch execution configuration: worker count, the base seed every
/// per-job seed derives from, and the optional claim-order fuzz seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads (clamped to at least 1 and at most the job count).
    pub workers: usize,
    /// Base seed; job `i` runs with `derive_stream_seed(base_seed, i)`.
    pub base_seed: u64,
    /// Claim-order fuzz seed (`THERMO_EXEC_FUZZ`). `Some(s)` shuffles the
    /// order in which workers claim jobs with a stream seeded by `s`;
    /// results are byte-identical regardless — the knob exists so tests
    /// can *prove* that, not to change behavior.
    pub fuzz: Option<u64>,
}

impl ExecConfig {
    /// Explicit worker count and base seed, no fuzz.
    pub fn new(workers: usize, base_seed: u64) -> Self {
        Self {
            workers,
            base_seed,
            fuzz: None,
        }
    }

    /// Single-worker configuration (serial execution, same semantics).
    pub fn serial(base_seed: u64) -> Self {
        Self::new(1, base_seed)
    }

    /// Returns this configuration with the given claim-order fuzz seed.
    pub fn with_fuzz(self, fuzz: Option<u64>) -> Self {
        Self { fuzz, ..self }
    }

    /// Worker count and fuzz seed from the environment: `THERMO_JOBS`
    /// ([`jobs_from_env`]) and `THERMO_EXEC_FUZZ` ([`exec_fuzz_from_env`]).
    pub fn from_env(base_seed: u64) -> Self {
        Self::new(jobs_from_env(), base_seed).with_fuzz(exec_fuzz_from_env())
    }
}

/// Reads the worker count from `THERMO_JOBS` (any positive integer),
/// defaulting to [`std::thread::available_parallelism`] (1 if unknown)
/// when unset or `0`.
///
/// # Panics
///
/// Panics when the variable is set but is not a count (see
/// [`thermo_util::rng::count_from_env`]).
pub fn jobs_from_env() -> usize {
    thermo_util::rng::count_from_env("THERMO_JOBS")
        .filter(|&n| n > 0)
        .map_or_else(
            || thread::available_parallelism().map_or(1, |n| n.get()),
            |n| n as usize,
        )
}

/// Reads the claim-order fuzz seed from `THERMO_EXEC_FUZZ` (unset means
/// no fuzzing; decimal or `0x` hex, see
/// [`thermo_util::rng::parse_seed`]).
///
/// The executor mirror of `THERMO_SCHED_FUZZ`: the seed shuffles the
/// order in which workers claim jobs, and so which worker runs which job,
/// without touching job ids, per-job seeds, or merge order, so artifacts
/// must stay byte-identical for every value. `scripts/ci.sh` sweeps
/// several seeds against the golden registry to enforce exactly that.
///
/// # Panics
///
/// Panics when the variable is set but is not a seed.
pub fn exec_fuzz_from_env() -> Option<u64> {
    thermo_util::rng::seed_from_env("THERMO_EXEC_FUZZ")
}

/// Why a batch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A job panicked. All other jobs still ran to completion (workers
    /// claim until the order runs out regardless); the batch reports the
    /// lowest panicking job id so reruns reproduce the same error.
    JobPanicked {
        /// Stable id of the (lowest) panicking job.
        job_id: u64,
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::JobPanicked { job_id, message } => {
                write!(f, "job {job_id} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The order in which workers claim job ids: `0..n`, or under fuzz a
/// seeded Fisher–Yates shuffle of it, so every seed exercises a different
/// job-to-worker map — the point being that the map must not matter.
fn claim_order(n: usize, fuzz: Option<u64>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if let Some(seed) = fuzz {
        let mut rng = SmallRng::seed_from_u64(derive_stream_seed(seed, 0));
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    order
}

/// Per-job storage shared between the submitting thread and the workers:
/// the job itself (taken exactly once) and its output slot (written
/// exactly once, read after the scope joins).
struct JobSlot<J: Job> {
    job: Mutex<Option<J>>,
    output: Mutex<Option<Result<J::Output, String>>>,
}

/// One worker's loop: claim the next position in `order` from the shared
/// counter, run that job, store its output, until the order runs out.
///
/// `Relaxed` is enough for the counter: `fetch_add` hands out every
/// position exactly once under any ordering, the slot mutexes order the
/// hand-off of each job and its output between threads, and the scope
/// join orders the merge after every worker.
fn work<J: Job>(order: &[usize], next: &AtomicUsize, slots: &[JobSlot<J>], base_seed: u64) {
    while let Some(&id) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
        let job = slots[id]
            .job
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
            .expect("each claim position is handed out once");
        let ctx = JobCtx {
            job_id: id as u64,
            seed: derive_stream_seed(base_seed, id as u64),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| job.run(&ctx))).map_err(panic_message);
        *slots[id]
            .output
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(outcome);
    }
}

/// Runs `jobs` across `cfg.workers` threads and returns their outputs
/// **in job-id order** (index `i` of the result corresponds to `jobs[i]`).
///
/// The output is a pure function of `(jobs, cfg.base_seed)`: worker
/// count, claim order, completion order, and OS scheduling are all
/// unobservable, so two invocations with different
/// `cfg.workers` (or different `cfg.fuzz` seeds) merge to identical
/// results — the property the golden-artifact gate depends on (see
/// `thermo-bench/tests/exec_determinism.rs`).
///
/// A panicking job does not abort the batch: every remaining job still
/// runs, then the batch fails with the lowest panicking job id.
pub fn run_jobs<J: Job>(jobs: Vec<J>, cfg: &ExecConfig) -> Result<Vec<J::Output>, ExecError> {
    let n = jobs.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let workers = cfg.workers.clamp(1, n);
    let slots: Vec<JobSlot<J>> = jobs
        .into_iter()
        .map(|j| JobSlot {
            job: Mutex::new(Some(j)),
            output: Mutex::new(None),
        })
        .collect();
    let order = claim_order(n, cfg.fuzz);
    let next = AtomicUsize::new(0);

    if workers == 1 {
        // Serial fast path: same claim/run path, no threads.
        work(&order, &next, &slots, cfg.base_seed);
    } else {
        thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| work(&order, &next, &slots, cfg.base_seed));
            }
        });
    }

    // Merge strictly in job-id order: the single place scheduling
    // nondeterminism is erased.
    let mut out = Vec::with_capacity(n);
    let mut first_panic: Option<(u64, String)> = None;
    for (id, slot) in slots.into_iter().enumerate() {
        let outcome = slot
            .output
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .expect("every claimed job writes its output slot");
        match outcome {
            Ok(v) => out.push(v),
            Err(message) => {
                if first_panic.is_none() {
                    first_panic = Some((id as u64, message));
                }
            }
        }
    }
    match first_panic {
        Some((job_id, message)) => Err(ExecError::JobPanicked { job_id, message }),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn outputs_merge_in_job_id_order_despite_scheduling() {
        // Earlier jobs sleep longer, so with 4 workers completion order
        // is roughly the reverse of submission order — the merge must
        // hide that entirely.
        let jobs: Vec<_> = (0..8u64)
            .map(|i| {
                move |ctx: &JobCtx| {
                    thread::sleep(Duration::from_millis(8 - i));
                    ctx.job_id
                }
            })
            .collect();
        let out = run_jobs(jobs, &ExecConfig::new(4, 1)).unwrap();
        assert_eq!(out, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_count_is_unobservable() {
        let mk = |workers| {
            let jobs: Vec<_> = (0..16u64)
                .map(|i| move |ctx: &JobCtx| (i, ctx.seed))
                .collect();
            run_jobs(jobs, &ExecConfig::new(workers, 99)).unwrap()
        };
        let serial = mk(1);
        assert_eq!(serial, mk(3));
        assert_eq!(serial, mk(16));
        assert_eq!(serial, mk(64), "more workers than jobs is fine");
    }

    #[test]
    fn fuzz_seed_is_unobservable() {
        let mk = |fuzz| {
            let jobs: Vec<_> = (0..64u64)
                .map(|i| move |ctx: &JobCtx| (i, ctx.seed, ctx.job_id))
                .collect();
            run_jobs(jobs, &ExecConfig::new(4, 7).with_fuzz(fuzz)).unwrap()
        };
        let plain = mk(None);
        for seed in [0, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(
                plain,
                mk(Some(seed)),
                "fuzz seed {seed:#x} must be unobservable"
            );
        }
    }

    #[test]
    fn claims_drain_a_front_heavy_batch() {
        // All the work sits in the first quarter of the claim order; the
        // other workers must still drain everything and merge in order.
        // (This is a liveness/correctness test — timing is not asserted.)
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move |ctx: &JobCtx| {
                    if i < 8 {
                        thread::sleep(Duration::from_millis(3));
                    }
                    ctx.job_id * 2
                }
            })
            .collect();
        let out = run_jobs(jobs, &ExecConfig::new(8, 5)).unwrap();
        assert_eq!(out, (0..32).map(|i| i * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn per_job_seeds_are_derived_and_disjoint() {
        let base = 0xa5_2017;
        let jobs: Vec<_> = (0..32u64).map(|_| |ctx: &JobCtx| ctx.seed).collect();
        let seeds = run_jobs(jobs, &ExecConfig::new(4, base)).unwrap();
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(
                s,
                derive_stream_seed(base, i as u64),
                "job {i} seed must derive from (base, job_id) only"
            );
        }
        let unique: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len(), "per-job seeds must be distinct");
    }

    #[test]
    fn every_job_runs_exactly_once_under_fuzzed_claim_order() {
        use std::sync::atomic::AtomicU64;
        for seed in 0..16u64 {
            let runs: Vec<AtomicU64> = (0..48).map(|_| AtomicU64::new(0)).collect();
            let jobs: Vec<_> = (0..48usize)
                .map(|i| {
                    let runs = &runs;
                    move |_: &JobCtx| runs[i].fetch_add(1, Ordering::Relaxed)
                })
                .collect();
            run_jobs(jobs, &ExecConfig::new(6, 3).with_fuzz(Some(seed))).unwrap();
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(
                    r.load(Ordering::Relaxed),
                    1,
                    "job {i} must run exactly once (fuzz seed {seed})"
                );
            }
        }
    }

    #[test]
    fn panic_fails_batch_with_lowest_id_and_workers_drain() {
        let ran = Mutex::new(Vec::new());
        let jobs: Vec<_> = (0..8u64)
            .map(|i| {
                let ran = &ran;
                move |ctx: &JobCtx| {
                    if i == 5 || i == 3 {
                        panic!("boom {i}");
                    }
                    ran.lock().unwrap().push(ctx.job_id);
                    i
                }
            })
            .collect();
        let err = run_jobs(jobs, &ExecConfig::new(4, 0)).unwrap_err();
        assert_eq!(
            err,
            ExecError::JobPanicked {
                job_id: 3,
                message: "boom 3".into()
            },
            "batch reports the lowest panicking job id"
        );
        assert!(err.to_string().contains("job 3 panicked: boom 3"));
        // Workers claimed until the order ran out: every non-panicking job ran.
        let mut survivors = ran.lock().unwrap().clone();
        survivors.sort_unstable();
        assert_eq!(survivors, vec![0, 1, 2, 4, 6, 7]);
    }

    #[test]
    fn pool_is_reusable_after_a_panicking_batch() {
        let bad: Vec<fn(&JobCtx) -> u64> = vec![|_| panic!("first batch fails")];
        assert!(run_jobs(bad, &ExecConfig::new(2, 0)).is_err());
        let good: Vec<_> = (0..4u64).map(|i| move |_: &JobCtx| i * i).collect();
        assert_eq!(
            run_jobs(good, &ExecConfig::new(2, 0)).unwrap(),
            vec![0, 1, 4, 9]
        );
    }

    #[test]
    fn empty_batch_and_zero_workers_are_fine() {
        let none: Vec<fn(&JobCtx) -> u64> = Vec::new();
        assert_eq!(
            run_jobs(none, &ExecConfig::new(0, 0)).unwrap(),
            Vec::<u64>::new()
        );
        let one: Vec<_> = vec![|ctx: &JobCtx| ctx.job_id];
        assert_eq!(run_jobs(one, &ExecConfig::new(0, 0)).unwrap(), vec![0]);
    }

    #[test]
    fn jobs_may_borrow_the_submitting_scope() {
        // Scoped threads: jobs can capture references, not just 'static.
        let data = vec![10u64, 20, 30];
        let jobs: Vec<_> = (0..data.len())
            .map(|i| {
                let data = &data;
                move |_: &JobCtx| data[i] + 1
            })
            .collect();
        assert_eq!(
            run_jobs(jobs, &ExecConfig::new(2, 0)).unwrap(),
            vec![11, 21, 31]
        );
    }

    #[test]
    fn claim_order_is_the_identity_or_a_seeded_permutation() {
        for n in [1usize, 2, 7, 16, 33] {
            assert_eq!(claim_order(n, None), (0..n).collect::<Vec<_>>());
            for seed in [0, 9, u64::MAX] {
                let mut order = claim_order(n, Some(seed));
                order.sort_unstable();
                assert_eq!(order, (0..n).collect::<Vec<_>>(), "n {n}, seed {seed}");
            }
        }
        // A fuzz that never moves anything would make every fuzzed sweep
        // a rerun of the plain one.
        for n in [8usize, 16, 33] {
            assert!(
                (0..4u64).any(|seed| claim_order(n, Some(seed)) != claim_order(n, None)),
                "no fuzz seed reorders {n} jobs"
            );
        }
    }

    #[test]
    fn a_slow_job_never_holds_up_the_rest() {
        // On two workers, job 0 waits for every other job: a worker stuck
        // on it must not keep the others from being claimed.
        let n = 16;
        for fuzz in [None, Some(1), Some(2), Some(0xdead_beef)] {
            let done = AtomicUsize::new(0);
            let jobs: Vec<_> = (0..n)
                .map(|i| {
                    let done = &done;
                    move |_: &JobCtx| {
                        if i == 0 {
                            let start = std::time::Instant::now();
                            while done.load(Ordering::Acquire) < n - 1 {
                                assert!(
                                    start.elapsed() < Duration::from_secs(10),
                                    "job 0 waited 10 s for the rest (fuzz {fuzz:?})"
                                );
                                thread::sleep(Duration::from_millis(1));
                            }
                        } else {
                            done.fetch_add(1, Ordering::Release);
                        }
                        i
                    }
                })
                .collect();
            let out = run_jobs(jobs, &ExecConfig::new(2, 0).with_fuzz(fuzz)).unwrap();
            assert_eq!(out, (0..n).collect::<Vec<_>>());
        }
    }
}
