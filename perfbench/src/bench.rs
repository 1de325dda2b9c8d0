//! The three benchmark workloads: their set-up, the untraced run a user's
//! invocation makes, and the reference run their results are checked
//! against.

use std::fs;
use std::path::Path;
use std::time::Instant;

use svf_configspace::SweepSpec;
use svf_cpu::{run_lockstep, run_lockstep_fanout, run_sampled, CpuConfig, SampleSpec, SimStats};
use svf_harness::{parallel_map, Experiment, Harness, ProgramSpec};
use svf_isa::Program;
use svf_workloads::{Input, Scale};

use crate::json::Obj;

/// The host threads of the job-parallel workloads: one benchmark process,
/// one run at a time, on a 2-thread budget split by the harness between
/// job workers and lockstep fan-out. Also the fan-out of the reference
/// path and of the traced run's fan-out probes.
pub const THREADS: usize = 2;

/// The sample plan of sampled-full (and of the traced run's sampling
/// probe elsewhere), seeded by the run's seed.
///
/// # Errors
///
/// Never for this plan; the parser's errors are passed on.
pub fn sample_plan(seed: i64) -> Result<SampleSpec, String> {
    SampleSpec::parse(&format!(
        "mode=random,seed={seed},period=250k,interval=5k,warmup=20k,ramp=1k,tail=500"
    ))
}

/// The kernel input seed of sampled-full, whatever the run's seed.
pub const FULL_INPUT_SEED: i64 = 3;

/// The wide-sweep grid over the `svf` preset on bzip2 at `small`.
const SWEEP_TOML: &str = r#"
name = "wide-sweep"
mode = "grid"
base = "svf"
workloads = ["bzip2"]
scale = "small"

[axes]
width = [4, 8, 16]
stack_ports = [1, 2, 4]
svf_bytes = [1k, 4k, 16k]
"#;

/// Which workload a subcommand runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 7 at `Scale::Small`: 12 kernels × 5 configs under the harness.
    FigMatrix,
    /// A 27-point grid sweep on bzip2 through `run_sweep`.
    WideSweep,
    /// The 12 kernels at `Scale::Full` × 2 configs, sampled.
    SampledFull,
}

impl Workload {
    /// The thread budget of the workload's measured and traced runs.
    ///
    /// wide-sweep is one lockstep batch, so two threads could only fan it
    /// out, and fan-out meets at two barriers per record window: a time
    /// slice the host takes from either core stalls both threads, which
    /// made its wall time swing by a third between runs of the same code
    /// on a shared 2-core host. It runs on one thread; the 2-thread
    /// fan-out is measured by the traced run's `cpu.lockstep.fanout_speedup`.
    pub fn threads(self) -> usize {
        match self {
            Workload::WideSweep => 1,
            Workload::FigMatrix | Workload::SampledFull => THREADS,
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "fig-matrix" => Ok(Workload::FigMatrix),
            "wide-sweep" => Ok(Workload::WideSweep),
            "sampled-full" => Ok(Workload::SampledFull),
            other => Err(format!("unknown workload {other:?}")),
        }
    }
}

/// One compiled kernel of a workload.
pub struct Kernel {
    pub name: &'static str,
    /// MiniC source with the run's input seed baked in.
    pub source: String,
    pub program: Program,
}

/// A workload's resolved presets, sweep spec and sample plan, and the
/// sources of its kernels: everything but compilation.
pub struct Plan {
    /// Kernel names in job order.
    pub names: Vec<&'static str>,
    scale: Scale,
    input: Option<Input>,
    /// `(label, config)` in job order within a kernel.
    pub configs: Vec<(String, CpuConfig)>,
    /// The sweep spec (wide-sweep only).
    pub sweep: Option<SweepSpec>,
    /// The sample plan (sampled-full only).
    pub sample: Option<SampleSpec>,
}

impl Plan {
    /// Resolves presets, the sweep spec and the sample plan.
    ///
    /// # Errors
    ///
    /// A preset, spec or plan that does not resolve.
    pub fn resolve(workload: Workload, seed: i64) -> Result<Plan, String> {
        let mut sweep = None;
        let mut sample = None;
        // wide-sweep runs bzip2 by registry name through `run_sweep`, which
        // always takes the kernel's default input.
        let mut input = Some(Input {
            name: "bench",
            seed,
        });
        let (names, scale, configs) = match workload {
            Workload::FigMatrix => (
                kernel_names(),
                Scale::Small,
                svf_experiments::fig7::configs()
                    .into_iter()
                    .map(|(l, c)| (l.to_string(), c))
                    .collect(),
            ),
            Workload::WideSweep => {
                let spec = SweepSpec::from_toml(SWEEP_TOML)?;
                let mut configs = Vec::new();
                for idx in spec.grid_indices()? {
                    configs.push((point_key(&idx), spec.config_at(&idx)?.try_resolve()?));
                }
                sweep = Some(spec);
                input = None;
                (vec!["bzip2"], Scale::Small, configs)
            }
            Workload::SampledFull => {
                sample = Some(sample_plan(seed)?);
                // The full-detail reference IPCs of these kernels take about
                // a minute of 2-thread simulation per input, so the inputs
                // stay at the seed the committed reference was made with and
                // the seed moves the sample plan.
                input = Some(Input {
                    name: "bench",
                    seed: FULL_INPUT_SEED,
                });
                let configs = [("base (2+0)", "base"), ("SVF (2+2)", "svf")]
                    .into_iter()
                    .map(|(label, preset)| {
                        let cfg = svf_configspace::registry::require_preset(preset)?;
                        Ok((label.to_string(), cfg.try_resolve()?))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                (kernel_names(), Scale::Full, configs)
            }
        };
        Ok(Plan {
            names,
            scale,
            input,
            configs,
            sweep,
            sample,
        })
    }

    /// The configs without their labels.
    pub fn cpu_configs(&self) -> Vec<CpuConfig> {
        self.configs.iter().map(|(_, c)| c.clone()).collect()
    }

    /// Generates and compiles one kernel.
    ///
    /// # Errors
    ///
    /// An unknown kernel or a compile error.
    pub fn compile(&self, name: &'static str) -> Result<Kernel, String> {
        let w = svf_workloads::workload(name).ok_or_else(|| format!("no kernel {name}"))?;
        let source =
            w.source_with_input(self.scale, self.input.unwrap_or_else(|| w.default_input()));
        let program = svf_cc::compile_to_program(&source).map_err(|e| format!("{name}: {e}"))?;
        Ok(Kernel {
            name,
            source,
            program,
        })
    }
}

/// Everything a run needs before its first simulated instruction.
pub struct Setup {
    pub plan: Plan,
    pub kernels: Vec<Kernel>,
    /// Host seconds spent in `Setup::new`.
    pub seconds: f64,
}

impl Setup {
    /// Resolves the plan and compiles every kernel the workload runs.
    ///
    /// # Errors
    ///
    /// See [`Plan::resolve`] and [`Plan::compile`].
    pub fn new(workload: Workload, seed: i64) -> Result<Setup, String> {
        let started = Instant::now();
        let plan = Plan::resolve(workload, seed)?;
        let kernels = plan
            .names
            .iter()
            .map(|n| plan.compile(n))
            .collect::<Result<_, _>>()?;
        Ok(Setup {
            plan,
            kernels,
            seconds: started.elapsed().as_secs_f64(),
        })
    }
}

/// Job key of `(kernel, config)`, shared by runs, traces and references.
pub fn job_key(kernel: &str, config: &str) -> String {
    format!("{kernel}/{config}")
}

fn kernel_names() -> Vec<&'static str> {
    svf_workloads::all().iter().map(|w| w.name).collect()
}

/// The sweep harness's label for a grid point (`p0-1-2`).
fn point_key(idx: &[usize]) -> String {
    let slug: Vec<String> = idx.iter().map(ToString::to_string).collect();
    format!("p{}", slug.join("-"))
}

/// 64-bit FNV-1a over every counter of `stats`: equal digests mean every
/// simulated counter is equal.
pub fn digest(stats: &SimStats) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in stats.flatten() {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One job's result as the run reports it.
pub struct JobResult {
    pub key: String,
    pub stats: Option<SimStats>,
    pub resumed: bool,
}

pub fn jobs_json(jobs: &[JobResult]) -> String {
    let items: Vec<String> = jobs
        .iter()
        .map(|j| {
            let mut o = Obj::new();
            o.str("key", &j.key);
            o.bool("ok", j.stats.is_some());
            o.bool("resumed", j.resumed);
            if let Some(s) = &j.stats {
                o.int("committed", s.committed);
                o.int("cycles", s.cycles);
                o.str("digest", &digest(s));
            }
            o.finish()
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn harness(workload: Workload, out: &Path) -> Harness {
    Harness::parallel()
        .with_workers(workload.threads())
        .with_threads(workload.threads())
        .with_out_dir(out)
}

/// The untraced run: what one user invocation of the workload does, into
/// the fresh output directory `out`. Prints one JSON object.
///
/// # Errors
///
/// Set-up failures and a sweep that does not complete.
pub fn run(workload: Workload, seed: i64, out: &Path) -> Result<String, String> {
    let setup = Setup::new(workload, seed)?;
    let started = Instant::now();
    let compiles = svf_harness::compile_count();
    let (jobs, util, summary) = match workload {
        Workload::FigMatrix | Workload::SampledFull => {
            let mut exp = Experiment::new(match workload {
                Workload::FigMatrix => "fig7",
                _ => "sampled-full",
            });
            for k in &setup.kernels {
                for (label, cfg) in &setup.plan.configs {
                    exp.push(
                        ProgramSpec::source(k.name, k.source.clone()),
                        label,
                        cfg.clone(),
                    );
                }
            }
            let mut h = harness(workload, out);
            if let Some(plan) = setup.plan.sample {
                h = h.with_sample(plan);
            }
            let report = h.run(&exp);
            let busy: f64 = report.jobs.iter().map(|j| j.wall.as_secs_f64()).sum();
            let util = busy / (report.wall.as_secs_f64() * h.workers() as f64);
            let jobs = report
                .jobs
                .iter()
                .map(|j| JobResult {
                    key: job_key(&j.program_label, &j.config_label),
                    stats: j.outcome.stats().cloned(),
                    resumed: j.outcome.is_resumed(),
                })
                .collect();
            (jobs, util, report.summary)
        }
        Workload::WideSweep => {
            let spec = setup.plan.sweep.as_ref().expect("wide-sweep has a spec");
            let outcome = svf_harness::run_sweep(spec, &harness(workload, out))?;
            svf_harness::sweep::write_csv(spec, &outcome, out)
                .map_err(|e| format!("cannot write sweep CSVs: {e}"))?;
            (sweep_jobs(out, &outcome)?, f64::NAN, outcome.summary)
        }
    };
    let run_s = started.elapsed().as_secs_f64();
    let mut o = Obj::new();
    o.num("setup_s", setup.seconds);
    o.num("run_s", run_s);
    o.int("compiles", svf_harness::compile_count() - compiles);
    o.int("batches", setup.kernels.len() as u64);
    o.int("threads", workload.threads() as u64);
    if util.is_finite() {
        o.num("worker_util", util);
    }
    o.str("summary", &summary);
    o.raw("jobs", &jobs_json(&jobs));
    Ok(o.finish())
}

/// wide-sweep's per-job results: `run_sweep` reports only cycles and
/// committed per point, so every counter is read back from the job files
/// the harness sink wrote under `out`. A point the sweep resumed from its
/// journal counts as resumed.
fn sweep_jobs(out: &Path, outcome: &svf_harness::SweepOutcome) -> Result<Vec<JobResult>, String> {
    let dir = out.join("wide-sweep-r0");
    let mut files: Vec<_> = fs::read_dir(&dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    files.sort();
    let mut jobs = Vec::with_capacity(files.len());
    for path in files {
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        // `<id>-bzip2-p<i>-<j>-<k>`; the key drops the job id.
        let (_, rest) = stem.split_once('-').unwrap_or(("", stem));
        let (kernel, point) = rest.split_once('-').unwrap_or((rest, ""));
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let stats = text
            .lines()
            .nth(1)
            .and_then(|row| SimStats::from_csv_row(row).ok());
        jobs.push(JobResult {
            key: job_key(kernel, point),
            stats,
            resumed: false,
        });
    }
    for _ in 0..outcome.resumed {
        jobs.push(JobResult {
            key: "resumed".into(),
            stats: None,
            resumed: true,
        });
    }
    Ok(jobs)
}

/// The reference: every job simulated straight through `svf-cpu` (no
/// harness, sink or `run_sweep`). Prints `{"jobs": {key: digest}}`.
///
/// # Errors
///
/// Set-up failures and panicking simulations.
pub fn reference(workload: Workload, seed: i64) -> Result<String, String> {
    let setup = Setup::new(workload, seed)?;
    let configs = setup.plan.cpu_configs();
    let per_kernel: Vec<Vec<SimStats>> = match (workload, setup.plan.sample) {
        (Workload::WideSweep, _) => {
            vec![run_lockstep_fanout(
                &configs,
                &setup.kernels[0].program,
                u64::MAX,
                THREADS,
            )]
        }
        (_, None) => parallel_map(THREADS, &setup.kernels, |k| {
            run_lockstep(&configs, &k.program, u64::MAX)
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?,
        (_, Some(plan)) => parallel_map(THREADS, &setup.kernels, |k| {
            run_sampled(&configs, &k.program, u64::MAX, &plan)
                .into_iter()
                .map(|s| s.stats)
                .collect()
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?,
    };
    let mut jobs = Obj::new();
    for (k, stats) in setup.kernels.iter().zip(&per_kernel) {
        for ((label, _), s) in setup.plan.configs.iter().zip(stats) {
            jobs.str(&job_key(k.name, label), &digest(s));
        }
    }
    let mut o = Obj::new();
    o.raw("jobs", &jobs.finish());
    Ok(o.finish())
}

/// Full-detail IPC of every job, the yardstick of sampled estimates.
/// Prints `{"full_ipc": {key: ipc}}`.
///
/// # Errors
///
/// Set-up failures and panicking simulations.
pub fn full_ipc(workload: Workload, seed: i64) -> Result<String, String> {
    let setup = Setup::new(workload, seed)?;
    let configs = setup.plan.cpu_configs();
    let per_kernel: Vec<Vec<SimStats>> = parallel_map(THREADS, &setup.kernels, |k| {
        run_lockstep(&configs, &k.program, u64::MAX)
    })
    .into_iter()
    .collect::<Result<_, _>>()
    .map_err(|e| e.to_string())?;
    let mut ipc = Obj::new();
    for (k, stats) in setup.kernels.iter().zip(&per_kernel) {
        for ((label, _), s) in setup.plan.configs.iter().zip(stats) {
            ipc.num(&job_key(k.name, label), s.ipc());
        }
    }
    let mut o = Obj::new();
    o.raw("full_ipc", &ipc.finish());
    Ok(o.finish())
}

/// Set-up only, for repeated set-up samples. Prints one JSON object.
///
/// # Errors
///
/// Set-up failures.
pub fn setup_only(workload: Workload, seed: i64) -> Result<String, String> {
    let setup = Setup::new(workload, seed)?;
    let mut o = Obj::new();
    o.num("setup_s", setup.seconds);
    Ok(o.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_covers_every_counter() {
        let base = SimStats {
            cycles: 10,
            committed: 20,
            svf: Some(svf::SvfStats::default()),
            stack_cache: Some(svf_mem::TrafficStats::default()),
            ..SimStats::default()
        };
        assert_eq!(digest(&base), digest(&base.clone()));
        let counters = base.flatten();
        for i in 0..counters.len() {
            let mut row = counters.clone();
            row[i] ^= 1;
            let row: Vec<String> = row.iter().map(ToString::to_string).collect();
            let changed = SimStats::from_csv_row(&row.join(",")).expect("row parses");
            assert_ne!(
                digest(&base),
                digest(&changed),
                "counter {i} is not in the digest"
            );
        }
    }
}
