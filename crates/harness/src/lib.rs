//! # svf-harness — parallel experiment orchestration
//!
//! The paper's evaluation is a large matrix of *(workload × machine
//! configuration)* cycle simulations. This crate turns that matrix into an
//! orchestrated run:
//!
//! 1. **Expansion** — an [`Experiment`] expands into a deterministic list
//!    of [`Job`]s (`{program, config_label, config}` units, ids in
//!    definition order).
//! 2. **Execution** — a [`Harness`] groups the jobs by program and drains
//!    the groups across `std::thread` workers fed by a shared queue. Its
//!    one thread count (see [`Harness::with_threads`]) caps the workers at
//!    one per group and funds intra-batch timing fan-out with the rest.
//!    Program compilation is **memoized per session** — a harness, its
//!    clones and every run they make share one compile cache: the first
//!    group needing a [`ProgramSpec`] compiles it, every other sharer
//!    reuses the same `Arc<Program>` — a C-config × W-workload matrix
//!    performs W compilations, not C·W (see [`RunReport::compiles`]). A
//!    harness owns all of its run state; no process-global cache couples
//!    one harness to another. The *functional
//!    execution* is shared the same way: a group's jobs run as one
//!    **lockstep batch** over [`svf_cpu::run_lockstep_fanout`], so the
//!    emulator runs once per program instead of once per job, with
//!    bit-identical results. A single job is simply a batch of one. Work
//!    runs under `catch_unwind`, so one diverging simulation reports as
//!    [`JobOutcome::Failed`] instead of killing the run; a failing or
//!    panicking *compile* poisons only its cache entry, failing exactly
//!    the jobs that share the spec, all with the same message.
//! 3. **Reassembly** — results come back in job-id order, making parallel
//!    output bit-identical to serial output (every simulation is itself
//!    deterministic).
//! 4. **Sinks & resume** — with an output directory configured, each job's
//!    [`SimStats`](svf_cpu::SimStats) is written to
//!    `<out>/<experiment>/<job-key>.csv` (atomically — temp file + rename)
//!    the moment its batch finishes, closed by a fingerprint of what was
//!    simulated (program, configuration, sampling plan). Jobs whose result
//!    file exists under their own fingerprint are *resumed* (loaded, not
//!    re-simulated). This one store is the resume protocol for experiments
//!    and sweeps alike: interrupted long runs — including runs killed
//!    mid-flight — pick up where they stopped; delete the directory to
//!    force a clean rerun. A result file that is damaged, or stale (a
//!    different fingerprint under the same job key), is reported
//!    ([`JobError::CorruptResume`]) and the job re-runs, which repairs the
//!    file.
//! 5. **Fault tolerance** — every failure is classified as a [`JobError`]
//!    with principled retryability, and the [`RetryPolicy`] (see
//!    [`Harness::with_retries`] / [`Harness::with_timeout`]) bounds how
//!    hard the runner tries: retryable failures re-attempt with exponential
//!    backoff, and an optional per-attempt watchdog abandons hung attempts
//!    as [`JobError::Timeout`]. A batch that panics or hangs is
//!    **bisected**: the batch splits in half recursively until the
//!    offending job runs alone, and only such one-job batches retry. A job
//!    whose final failure is a panic or hang is *quarantined* in the
//!    harness's session (by the job's fingerprint) so later runs of that
//!    harness and its clones run it alone — survivors keep sharing streams.
//!    The deterministic `SVF_FAULT_PLAN` hook (see [`crate::fault`]), read
//!    when a harness is created, injects panics, I/O errors, hangs,
//!    truncated traces, and process aborts at chosen job ids to test all of
//!    this.
//!
//! 6. **Sampled simulation** — [`Harness::with_sample`] switches every
//!    batch to [`svf_cpu::run_sampled_fanout`]: the program runs
//!    functionally end to end and only the plan's measured intervals pay
//!    detailed cost, with the stratified whole-run estimate reported in
//!    the ordinary [`SimStats`] shape — so sinks, resume, retries, fault
//!    injection, and sweeps compose unchanged.
//!
//! A light observability surface rides along: per-job wall clock, and a
//! run-level progress line (jobs done/total, aggregate simulated Mcycles/s,
//! ETA, resumed/retried/timed-out/failed counts, and — for sampled runs —
//! the detailed vs fast-forwarded instruction split).
//!
//! # Example
//!
//! ```no_run
//! use svf_cpu::CpuConfig;
//! use svf_harness::{Experiment, Harness};
//! use svf_workloads::Scale;
//!
//! let exp = Experiment::matrix(
//!     "width-sweep",
//!     &[("4-wide", CpuConfig::wide4()), ("8-wide", CpuConfig::wide8())],
//!     Scale::Test,
//! );
//! let report = Harness::parallel().run(&exp);
//! for (bench, stats) in report.rows(2) {
//!     println!("{bench}: {} vs {} cycles", stats[0].cycles, stats[1].cycles);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod experiment;
mod fault;
mod job;
mod memo;
mod pool;
mod progress;
mod sink;
pub mod sweep;

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use svf_cpu::{CpuConfig, SampleSpec, SimStats};
use svf_isa::Program;

pub use error::{JobError, RetryPolicy};
pub use experiment::Experiment;
pub use job::{Job, JobOutcome, JobReport, ProgramSpec};
pub use memo::compile_count;
pub use pool::parallel_map;
use pool::ThreadBudget;
use sink::RunDir;
pub use sweep::{run_sweep, SweepOutcome, SweepPoint};

use progress::Progress;

/// Execution policy: how many threads the run may occupy, where results
/// go, whether to narrate, how hard to retry, and whether simulations run
/// sampled (detailed intervals over a functional fast-forward) instead of
/// fully detailed. A harness also owns its run state (compile cache,
/// quarantine, fault plan), which its clones share.
#[derive(Debug, Clone)]
pub struct Harness {
    threads: usize,
    out_dir: Option<PathBuf>,
    progress: bool,
    policy: RetryPolicy,
    sample: Option<SampleSpec>,
    session: Arc<Session>,
}

/// The run state one harness and its clones share across runs: the compile
/// cache, the lockstep quarantine (fingerprints of jobs whose final failure
/// was a divergence or hang), and the fault plan.
#[derive(Debug)]
struct Session {
    memo: memo::Memo,
    quarantine: Mutex<HashSet<u64>>,
    faults: fault::Plan,
}

impl Default for Harness {
    fn default() -> Harness {
        Harness::parallel()
    }
}

impl Harness {
    /// One thread per available hardware thread, no result sink, quiet, and
    /// a fresh session: an empty compile cache and quarantine, and the
    /// fault plan in `SVF_FAULT_PLAN` (none when unset).
    ///
    /// # Panics
    ///
    /// If `SVF_FAULT_PLAN` is malformed — a silently ignored plan would
    /// make a fault test vacuously green.
    #[must_use]
    pub fn parallel() -> Harness {
        Harness {
            threads: thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            out_dir: None,
            progress: false,
            policy: RetryPolicy::default(),
            sample: None,
            session: Arc::new(Session {
                memo: memo::Memo::default(),
                quarantine: Mutex::default(),
                faults: fault::Plan::from_env(),
            }),
        }
    }

    /// A single thread (the job queue still runs, panic isolation included).
    #[must_use]
    pub fn serial() -> Harness {
        Harness::parallel().with_threads(1)
    }

    /// Alias of [`Harness::with_threads`]: the harness keeps one thread
    /// count, which caps the job workers and funds timing fan-out.
    #[must_use]
    pub fn with_workers(self, workers: usize) -> Harness {
        self.with_threads(workers)
    }

    /// Sets the thread count (clamped to at least 1; defaults to the
    /// available hardware parallelism): the run occupies at most `total`
    /// threads, split between job-level workers and intra-batch timing
    /// fan-out so that `jobs × fanout ≤ total`. A run spawns
    /// `min(total, groups)` workers, one per program group at most;
    /// whatever they leave unused funds a spare pool that lockstep batches
    /// claim extra timing threads from ([`svf_cpu::run_lockstep_fanout`]),
    /// and a worker that drains the job queue donates its seat back so wide
    /// batches still in flight can borrow it. Results are bit-identical at
    /// any fanout (pinned by the workspace golden tests).
    #[must_use]
    pub fn with_threads(mut self, total: usize) -> Harness {
        self.threads = total.max(1);
        self
    }

    /// Enables the result sink: per-job CSVs under `<dir>/<experiment>/`,
    /// which also makes runs resumable.
    #[must_use]
    pub fn with_out_dir(mut self, dir: impl Into<PathBuf>) -> Harness {
        self.out_dir = Some(dir.into());
        self
    }

    /// Enables the live progress line on stderr.
    #[must_use]
    pub fn with_progress(mut self, on: bool) -> Harness {
        self.progress = on;
        self
    }

    /// Sets the per-attempt watchdog: an attempt exceeding `limit` is
    /// abandoned as [`JobError::Timeout`] (retryable, so a transient hang
    /// gets another chance). The abandoned attempt's thread leaks until
    /// its simulation finishes — a genuinely hung job never does useful
    /// work again, so that is the acceptable cost of not hanging the run.
    /// Lockstep batches get the limit scaled by batch width.
    #[must_use]
    pub fn with_timeout(mut self, limit: Duration) -> Harness {
        self.policy.timeout = Some(limit);
        self
    }

    /// Sets the total attempts per job for retryable failures (clamped to
    /// at least 1; see [`JobError::retryable`] for which failures qualify).
    #[must_use]
    pub fn with_retries(mut self, attempts: u32) -> Harness {
        self.policy.attempts = attempts.max(1);
        self
    }

    /// Replaces the whole retry policy (attempts, backoff, watchdog).
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Harness {
        self.policy = policy;
        self
    }

    /// Enables sampled simulation ([`svf_cpu::run_sampled`]): every job
    /// runs the program functionally end to end, pays detailed-simulation
    /// cost only inside the plan's measured intervals, and reports the
    /// stratified whole-run estimate as its [`SimStats`]. Composes with
    /// lockstep batching (the whole batch shares one sampled stream),
    /// retries, fault injection, and sweeps. The plan is part of every
    /// job's fingerprint, so sampled runs resume only sampled results of
    /// the same plan, and a full-detail result is never resumed as a
    /// sampled one (or the reverse).
    #[must_use]
    pub fn with_sample(mut self, spec: SampleSpec) -> Harness {
        self.sample = Some(spec);
        self
    }

    /// The configured thread count: the most job workers a run spawns, and
    /// the budget their spare seats fund timing fan-out from.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.threads
    }

    /// Replaces the session's fault plan (shared with this harness's
    /// clones) with `plan`, in `SVF_FAULT_PLAN` syntax; `""` disarms. The
    /// test seam: a plan set here fires only in runs of this harness and
    /// its clones, never in another harness running at the same time.
    ///
    /// # Panics
    ///
    /// If `plan` is malformed.
    #[doc(hidden)]
    #[must_use]
    pub fn with_fault_plan(self, plan: &str) -> Harness {
        self.session.faults.install(plan);
        self
    }

    /// Runs every job of `exp` and reassembles the reports in job-id order.
    ///
    /// # Panics
    ///
    /// Panics only if a result sink was requested but its directory cannot
    /// be created — results would silently stop being resumable otherwise.
    #[must_use]
    pub fn run(&self, exp: &Experiment) -> RunReport {
        let started = Instant::now();
        let compiles = self.session.memo.compiles();
        let sink = self.out_dir.as_deref().map(|root| {
            RunDir::create(root, &exp.name)
                .unwrap_or_else(|e| panic!("cannot create run dir under {}: {e}", root.display()))
        });
        let jobs = exp.jobs();
        let progress = Progress::new(&exp.name, jobs.len(), self.progress);
        // The scheduling unit is a *group*: all jobs sharing a program ride
        // one functional stream.
        let groups = group_jobs(jobs);
        // Workers are capped by the groups; whatever threads they leave
        // unused fund intra-batch timing fan-out.
        let workers = self.threads.clamp(1, groups.len().max(1));
        let budget = ThreadBudget::new(self.threads, workers);
        progress.set_parallelism(workers, 1);
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<JobReport>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let ctx = RunCtx {
            jobs,
            sink: sink.as_ref(),
            progress: &progress,
            policy: &self.policy,
            sample: self.sample.as_ref(),
            budget: &budget,
            session: &self.session,
        };
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        let Some(idxs) = groups.get(g) else { break };
                        run_group(&ctx, idxs, &slots);
                    }
                    // This worker is done for good: donate its seat so wide
                    // batches still in flight can widen their next claim.
                    budget.worker_exited();
                });
            }
        });
        let summary = progress.finish();
        RunReport {
            name: exp.name.clone(),
            jobs: slots
                .into_iter()
                .map(|s| s.into_inner().expect("report slot").expect("every job visited"))
                .collect(),
            wall: started.elapsed(),
            compiles: self.session.memo.compiles() - compiles,
            summary,
        }
    }
}

/// Partitions job indices into per-program scheduling groups (in
/// first-appearance order, members in id order).
fn group_jobs(jobs: &[Job]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_program: HashMap<memo::Key, usize> = HashMap::new();
    for (i, job) in jobs.iter().enumerate() {
        match by_program.entry(memo::key(&job.program)) {
            Entry::Occupied(e) => groups[*e.get()].push(i),
            Entry::Vacant(v) => {
                v.insert(groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// What every batch of one run shares: the job list, the run's policy,
/// sink, progress line and thread budget, and the harness's session.
struct RunCtx<'a> {
    jobs: &'a [Job],
    sink: Option<&'a RunDir>,
    progress: &'a Progress,
    policy: &'a RetryPolicy,
    sample: Option<&'a SampleSpec>,
    budget: &'a ThreadBudget,
    session: &'a Arc<Session>,
}

impl RunCtx<'_> {
    /// Job `i`'s [`Job::fingerprint`] under this run's sampling plan.
    fn fingerprint(&self, i: usize) -> u64 {
        self.jobs[i].fingerprint(self.sample)
    }

    fn quarantined(&self, i: usize) -> bool {
        self.session.quarantine.lock().expect("quarantine").contains(&self.fingerprint(i))
    }
}

/// Executes one scheduling group: resumes what the sink already holds
/// (re-running anything the sink reports as corrupt or stale), compiles
/// the program once (memoized) if anything is left, and runs the fresh
/// jobs as batches through [`run_batch`]. Quarantined and fault-planned
/// jobs run as batches of one, so their failure takes the per-job retry path instead of
/// poisoning a shared batch; the healthy rest rides one batch. Batches run
/// in order of their first job id, so a run killed mid-group (a planned
/// `abort`) leaves a reproducible set of stored results.
fn run_group(ctx: &RunCtx<'_>, idxs: &[usize], slots: &[Mutex<Option<JobReport>>]) {
    let jobs = ctx.jobs;
    let deliver = |i: usize, report: JobReport| {
        let (cycles, resumed, failed) = match &report.outcome {
            JobOutcome::Completed(s) => (s.cycles, false, false),
            JobOutcome::Resumed(_) => (0, true, false),
            JobOutcome::Failed(_) => (0, false, true),
        };
        ctx.progress.record(cycles, resumed, failed);
        *slots[i].lock().expect("report slot") = Some(report);
    };
    let mut fresh: Vec<usize> = Vec::new();
    for &i in idxs {
        match ctx.sink.map_or(Ok(None), |s| s.load_classified(&jobs[i], ctx.fingerprint(i))) {
            Ok(Some(stats)) => {
                deliver(i, report_for(&jobs[i], JobOutcome::Resumed(stats), Duration::ZERO));
            }
            Ok(None) => fresh.push(i),
            Err(e) => {
                // A damaged result file must not fail the job — re-running
                // the simulation rewrites (repairs) it.
                eprintln!("svf-harness: {}: {e}; re-running", jobs[i].key());
                fresh.push(i);
            }
        }
    }
    let Some(&first) = fresh.first() else { return };
    let program = match ctx.session.memo.compile(&jobs[first].program) {
        Ok(p) => p,
        // Compilation failed: every sharer fails with one message.
        Err(e) => {
            for i in fresh {
                deliver(i, report_for(&jobs[i], JobOutcome::Failed(e.clone()), Duration::ZERO));
            }
            return;
        }
    };
    let (solo, shared): (Vec<usize>, Vec<usize>) = fresh
        .into_iter()
        .partition(|&i| ctx.session.faults.planned(jobs[i].id) || ctx.quarantined(i));
    let mut batches: Vec<Vec<usize>> = solo.into_iter().map(|i| vec![i]).collect();
    if !shared.is_empty() {
        batches.push(shared);
    }
    batches.sort_unstable_by_key(|b| b[0]);
    for members in batches {
        let t0 = Instant::now();
        let results = run_batch(ctx, &program, &members);
        let wall = t0.elapsed() / u32::try_from(members.len()).unwrap_or(u32::MAX);
        for (i, result) in results {
            let outcome = match result {
                Ok(stats) => {
                    store_with_retry(ctx, i, &stats);
                    JobOutcome::Completed(stats)
                }
                Err(e) => JobOutcome::Failed(e),
            };
            deliver(i, report_for(&jobs[i], outcome, wall));
        }
    }
}

/// Simulates every member configuration over one shared stream of
/// `program`. A multi-member batch that panics or trips the (width-scaled)
/// watchdog is **bisected**: each half re-runs as its own batch,
/// recursively, so survivor halves keep sharing streams and one bad
/// configuration costs `O(log n)` re-batches. A one-member batch is a
/// leaf: retryable failures re-attempt with backoff until the policy's
/// attempt budget runs out, and a *final* divergence or hang quarantines
/// the job so it never rides a shared batch again in this session.
fn run_batch(
    ctx: &RunCtx<'_>,
    program: &Arc<Program>,
    members: &[usize],
) -> Vec<(usize, Result<SimStats, JobError>)> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let e = match attempt_batch(ctx, program, members) {
            Ok(stats) => return members.iter().copied().zip(stats.into_iter().map(Ok)).collect(),
            Err(e) => e,
        };
        let &[i] = members else {
            let (a, b) = members.split_at(members.len() / 2);
            let mut out = run_batch(ctx, program, a);
            out.extend(run_batch(ctx, program, b));
            return out;
        };
        if e.retryable() && attempt < ctx.policy.attempts.max(1) {
            ctx.progress.record_retry();
            thread::sleep(ctx.policy.backoff_before(attempt + 1));
            continue;
        }
        if matches!(e, JobError::Panic(_) | JobError::Timeout { .. }) {
            ctx.session.quarantine.lock().expect("quarantine").insert(ctx.fingerprint(i));
        }
        return vec![(i, Err(e))];
    }
}

/// One attempt at a batch, panic-caught, under the watchdog if the policy
/// sets one (scaled by width: N jobs ride one stream). A fault the
/// session's plan holds for a member fires inside the attempt, so injected
/// failures traverse exactly the machinery a real one would. With a sampling plan
/// the batch rides one sampled stream ([`svf_cpu::run_sampled_fanout`]).
/// The batch borrows spare budget threads for the attempt and returns them
/// before any retry or bisection; a panic on any timing thread surfaces
/// here with its original payload.
fn attempt_batch(
    ctx: &RunCtx<'_>,
    program: &Arc<Program>,
    members: &[usize],
) -> Result<Vec<SimStats>, JobError> {
    let claim = ctx.budget.claim(members.len());
    let fanout = claim.fanout();
    ctx.progress.record_fanout(fanout);
    let ids: Vec<usize> = members.iter().map(|&i| ctx.jobs[i].id).collect();
    let configs: Vec<CpuConfig> = members.iter().map(|&i| ctx.jobs[i].config.clone()).collect();
    let program = Arc::clone(program);
    let sample = ctx.sample.copied();
    let session = Arc::clone(ctx.session);
    let work = move || {
        for id in ids {
            session.faults.fire(id)?;
        }
        Ok(match &sample {
            None => (svf_cpu::run_lockstep_fanout(&configs, &program, u64::MAX, fanout), None),
            Some(spec) => {
                let sampled =
                    svf_cpu::run_sampled_fanout(&configs, &program, u64::MAX, spec, fanout);
                // The schedule is shared, so one split describes every member.
                let meta = sampled.first().map(|s| (s.detailed_insts, s.fast_forwarded()));
                (sampled.into_iter().map(|s| s.stats).collect(), meta)
            }
        })
    };
    let limit = ctx.policy.timeout.map(|t| t * u32::try_from(members.len()).unwrap_or(u32::MAX));
    let result = match limit {
        None => catch_unwind(AssertUnwindSafe(work))
            .unwrap_or_else(|p| Err(JobError::from_panic(p.as_ref()))),
        Some(limit) => watchdog(limit, work),
    };
    match result {
        Ok((stats, meta)) => {
            if let Some((detailed, fast_forwarded)) = meta {
                ctx.progress.record_sample(detailed, fast_forwarded);
            }
            Ok(stats)
        }
        Err(e) => {
            if matches!(e, JobError::Timeout { .. }) {
                ctx.progress.record_timeout();
            }
            Err(e)
        }
    }
}

fn report_for(job: &Job, outcome: JobOutcome, wall: Duration) -> JobReport {
    JobReport {
        key: job.key(),
        program_label: job.program.label(),
        config_label: job.config_label.clone(),
        outcome,
        wall,
    }
}

/// Runs `work` on a helper thread and waits at most `limit` for its result.
/// On expiry the helper is *abandoned*, not killed (Rust has no safe thread
/// cancellation): it leaks until its simulation finishes or the process
/// exits. The channel send into a dropped receiver is a clean no-op.
fn watchdog<R: Send + 'static>(
    limit: Duration,
    work: impl FnOnce() -> Result<R, JobError> + Send + 'static,
) -> Result<R, JobError> {
    let (tx, rx) = mpsc::channel();
    let spawned = thread::Builder::new().name("svf-watchdog-attempt".into()).spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(work))
            .unwrap_or_else(|p| Err(JobError::from_panic(p.as_ref())));
        let _ = tx.send(result);
    });
    if let Err(e) = spawned {
        return Err(JobError::Io(format!("cannot spawn watchdog thread: {e}")));
    }
    match rx.recv_timeout(limit) {
        Ok(result) => result,
        Err(_) => Err(JobError::Timeout {
            millis: u64::try_from(limit.as_millis()).unwrap_or(u64::MAX),
        }),
    }
}

/// Stores job `i`'s result, retrying transient filesystem failures under
/// the run's policy. A store that still fails only costs resumability (the
/// job re-runs next time), so it warns rather than failing the job.
fn store_with_retry(ctx: &RunCtx<'_>, i: usize, stats: &SimStats) {
    let Some(sink) = ctx.sink else { return };
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match sink.store(&ctx.jobs[i], stats, ctx.fingerprint(i)) {
            Ok(()) => return,
            Err(_) if attempt < ctx.policy.attempts.max(1) => {
                thread::sleep(ctx.policy.backoff_before(attempt + 1));
            }
            Err(e) => {
                eprintln!("svf-harness: cannot store {}: {e}", ctx.jobs[i].key());
                return;
            }
        }
    }
}

/// Everything one [`Harness::run`] produced, in job-id order.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The experiment name.
    pub name: String,
    /// Per-job reports, indexed by job id.
    pub jobs: Vec<JobReport>,
    /// Total wall-clock time of the run.
    pub wall: Duration,
    /// Program compilations this run performed in its harness's session
    /// (programs the session had already compiled cost none).
    pub compiles: u64,
    /// The final throughput summary line (also printed when progress is on).
    pub summary: String,
}

impl RunReport {
    /// `(key, classified error)` for every failed job.
    #[must_use]
    pub fn failures(&self) -> Vec<(&str, &JobError)> {
        self.jobs
            .iter()
            .filter_map(|j| j.outcome.failure().map(|m| (j.key.as_str(), m)))
            .collect()
    }

    /// Number of jobs loaded from the run directory instead of simulated.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_resumed()).count()
    }

    /// All statistics in job-id order.
    ///
    /// # Errors
    ///
    /// Lists every failed job if any job failed.
    pub fn try_stats(&self) -> Result<Vec<&SimStats>, String> {
        let failures = self.failures();
        if !failures.is_empty() {
            let mut msg = format!("{}: {} job(s) failed:", self.name, failures.len());
            for (key, why) in failures {
                msg.push_str(&format!("\n  {key}: {why}"));
            }
            return Err(msg);
        }
        Ok(self.jobs.iter().filter_map(|j| j.outcome.stats()).collect())
    }

    /// All statistics in job-id order, for drivers that treat a failed
    /// simulation as fatal (the historical behaviour of the serial runners).
    ///
    /// # Panics
    ///
    /// Panics with the full failure list if any job failed.
    #[must_use]
    pub fn stats(&self) -> Vec<&SimStats> {
        self.try_stats().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reassembles a [`Experiment::matrix`]-shaped run into
    /// `(program_label, stats-per-config)` rows.
    ///
    /// # Panics
    ///
    /// Panics if any job failed or the job count is not a multiple of
    /// `configs_per_row`.
    #[must_use]
    pub fn rows(&self, configs_per_row: usize) -> Vec<(String, Vec<&SimStats>)> {
        assert!(
            configs_per_row > 0 && self.jobs.len().is_multiple_of(configs_per_row),
            "{}: {} jobs do not tile into rows of {configs_per_row}",
            self.name,
            self.jobs.len()
        );
        let stats = self.stats();
        self.jobs
            .chunks(configs_per_row)
            .zip(stats.chunks(configs_per_row))
            .map(|(jobs, stats)| (jobs[0].program_label.clone(), stats.to_vec()))
            .collect()
    }
}
