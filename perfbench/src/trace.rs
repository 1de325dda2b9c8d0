//! The traced run: the workload's inputs driven through each crate's
//! public calls, one span per call, plus probe calls for the rates the
//! workload's own path does not isolate. Spans stay in memory and are
//! written to `<out>/spans.jsonl` at the end; `run.py` reduces them to
//! self times and per-layer metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use svf::StackValueFile;
use svf_cpu::{
    run_lockstep, run_lockstep_fanout, run_sampled, run_sampled_fanout, CpuConfig, SampleSpec,
    SampledStats, SimStats, Simulator, StackEngine,
};
use svf_emu::{Emulator, LiveSource, RecordRing};
use svf_harness::parallel_map;
use svf_isa::Program;
use svf_mem::Hierarchy;

use crate::bench::{job_key, jobs_json, sample_plan, JobResult, Kernel, Plan, Workload, THREADS};
use crate::json::Obj;

/// Instructions of a kernel's prefix replayed by the cache and SVF probes,
/// and the budget of sampled-full's full-detail probes (its kernels run
/// 10–60M instructions; a prefix keeps the probes a small share of the run).
const PREFIX: u64 = 2_000_000;

struct Span {
    name: &'static str,
    attr: String,
    parent: Option<usize>,
    thread: String,
    start: f64,
    end: f64,
}

/// In-memory span store shared by the traced run's threads.
struct Spans {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its own spans. Returns `f`'s result and the span's seconds.
    fn time<R>(
        &self,
        name: &'static str,
        attr: &str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> (R, f64) {
        let start = self.origin.elapsed().as_secs_f64();
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("span store poisoned by a panicking span");
            spans.push(Span {
                name,
                attr: attr.to_string(),
                parent,
                thread: format!("{:?}", std::thread::current().id()),
                start,
                end: f64::NAN,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.origin.elapsed().as_secs_f64();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking span")[id]
            .end = end;
        (out, end - start)
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking span");
        let mut text = String::new();
        for (id, s) in spans.iter().enumerate() {
            let mut o = Obj::new();
            o.int("id", id as u64);
            o.str("name", s.name);
            o.str("attr", &s.attr);
            match s.parent {
                Some(p) => o.int("parent", p as u64),
                None => o.raw("parent", "null"),
            }
            o.str("thread", &s.thread);
            o.num("start", s.start);
            o.num("end", s.end);
            let _ = writeln!(text, "{}", o.finish());
        }
        fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Counters the traced run reports next to its spans.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn add(&mut self, key: &'static str, n: u64) {
        *self.0.entry(key).or_default() += n;
    }

    fn json(&self) -> String {
        let mut o = Obj::new();
        for (k, v) in &self.0 {
            o.int(k, *v);
        }
        o.finish()
    }
}

/// Probe kernels: two mid-sized kernels stand for fig-matrix and
/// sampled-full, whose 12 kernels the main pass already covers; wide-sweep
/// has only bzip2.
fn probe_kernels(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::WideSweep => &["bzip2"],
        _ => &["twolf", "bzip2"],
    }
}

/// The traced run. Prints one JSON object.
///
/// # Errors
///
/// Set-up failures and an unwritable span file.
pub fn run(workload: Workload, seed: i64, out: &Path) -> Result<String, String> {
    let probe_plan = sample_plan(seed)?;
    let spans = Spans::new();
    let mut counts = Counts::default();
    let mut identity = Identity::default();

    // Main pass: the workload's own calls, on the workload's thread budget.
    let (main_pass, main_s) = spans.time("workload", "", None, |root| {
        let (plan, _) = spans.time("configspace", "", Some(root), |_| {
            Plan::resolve(workload, seed)
        });
        let plan = plan?;
        let configs = plan.cpu_configs();
        let pass = |name: &'static str, fanout: usize| -> Result<MainResult, String> {
            let (kernel, _) = spans.time("minic", name, Some(root), |_| plan.compile(name));
            let kernel = kernel?;
            let p = &kernel.program;
            let (stats, sampled) = match plan.sample {
                Some(sample) => {
                    let (sampled, _) = spans.time("cpu.sampling", name, Some(root), |_| {
                        run_sampled_fanout(&configs, p, u64::MAX, &sample, fanout)
                    });
                    (
                        sampled.iter().map(|s| s.stats.clone()).collect(),
                        sampled.into_iter().next(),
                    )
                }
                None => {
                    let (stats, _) = spans.time("cpu.lockstep", name, Some(root), |_| {
                        run_lockstep_fanout(&configs, p, u64::MAX, fanout)
                    });
                    (stats, None)
                }
            };
            Ok((kernel, stats, sampled))
        };
        // A sweep is one lockstep batch, fanned out over the budget when it
        // has more than one thread; the matrices share the budget between
        // kernels, one batch per worker.
        let results: Vec<MainResult> = if plan.names.len() == 1 {
            vec![pass(plan.names[0], workload.threads())?]
        } else {
            parallel_map(workload.threads(), &plan.names, |n| pass(n, 1))
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()).and_then(|x| x))
                .collect::<Result<_, _>>()?
        };
        Ok::<_, String>((plan, results))
    });
    let (plan, results) = main_pass?;
    let mut kernels = Vec::with_capacity(results.len());
    let mut main = Vec::with_capacity(results.len());
    for (kernel, stats, sampled) in results {
        if let Some(s) = sampled {
            count_sampling(&mut counts, &s);
        }
        kernels.push(kernel);
        main.push(stats);
    }
    counts.add("minic.programs", kernels.len() as u64);
    counts.add("configspace.configs", plan.configs.len() as u64);
    counts.add("lockstep.batch_width", plan.configs.len() as u64);
    for stats in main.iter().flatten() {
        counts.add("dl1.accesses", stats.dl1.accesses);
        counts.add("dl1.misses", stats.dl1.misses);
        counts.add("l2.accesses", stats.l2.accesses);
        counts.add("svf.squashes", stats.svf_squashes);
        if stats.svf.is_some() {
            counts.add(
                "svf.morphed",
                stats.svf_morphed_loads + stats.svf_morphed_stores,
            );
            counts.add("svf.stack_refs", stats.stack_refs);
        }
    }

    // Probes.
    let configs = plan.cpu_configs();
    let probes: Vec<&Kernel> = kernels
        .iter()
        .filter(|k| probe_kernels(workload).contains(&k.name))
        .collect();
    let mut sampled_probe = Vec::new();
    spans.time("probes", "", None, |root| {
        for k in &kernels {
            probe_emulator(&spans, root, k, &mut counts);
        }
        for k in &probes {
            let main_stats = &main[kernels
                .iter()
                .position(|x| x.name == k.name)
                .expect("probe kernel")];
            probe_timing(
                &spans,
                root,
                workload,
                &plan,
                k,
                main_stats,
                &mut counts,
                &mut identity,
            );
            probe_memory(&spans, root, &configs, k, &mut counts);
            if plan.sample.is_none() {
                sampled_probe.extend(probe_sampling(
                    &spans,
                    root,
                    &probe_plan,
                    &plan,
                    k,
                    main_stats,
                    &mut counts,
                ));
            }
        }
    });
    if plan.sample.is_some() {
        for (k, stats) in kernels.iter().zip(&main) {
            for ((label, _), st) in plan.configs.iter().zip(stats) {
                sampled_probe.push((job_key(k.name, label), st.ipc(), f64::NAN));
            }
        }
    }
    spans.write(&out.join("spans.jsonl"))?;

    let mut jobs = Vec::new();
    for (k, stats) in kernels.iter().zip(&main) {
        for ((label, _), s) in plan.configs.iter().zip(stats) {
            jobs.push(JobResult {
                key: job_key(k.name, label),
                stats: Some(s.clone()),
                resumed: false,
            });
        }
    }
    let mut widths = Obj::new();
    for (w, (committed, secs)) in &identity.by_width {
        let mut o = Obj::new();
        o.int("committed", *committed);
        o.num("seconds", *secs);
        widths.raw(&w.to_string(), &o.finish());
    }
    let sampled: Vec<String> = sampled_probe
        .iter()
        .map(|(key, ipc, full)| {
            let mut o = Obj::new();
            o.str("key", key);
            o.num("ipc", *ipc);
            o.num("full_ipc", *full);
            o.finish()
        })
        .collect();
    counts.add("identity.checked", identity.checked);
    counts.add("identity.mismatches", identity.mismatches);
    let mut o = Obj::new();
    o.num("main_s", main_s);
    o.str("spans", "spans.jsonl");
    o.raw("counts", &counts.json());
    o.raw("pipeline_by_width", &widths.finish());
    o.raw("sampled", &format!("[{}]", sampled.join(",")));
    o.raw(
        "identity_failures",
        &format!("[{}]", identity.failures.join(",")),
    );
    o.raw("jobs", &jobs_json(&jobs));
    Ok(o.finish())
}

/// A kernel of the main pass: compiled program, per-config results, and
/// (sampled runs) the first config's coverage accounting.
type MainResult = (Kernel, Vec<SimStats>, Option<SampledStats>);

/// Detailed share and interval count of one sampled kernel (per config,
/// they are the same for every config of a batch).
fn count_sampling(counts: &mut Counts, s: &SampledStats) {
    counts.add("sampling.detailed", s.detailed_insts);
    counts.add("sampling.total", s.total_insts);
    counts.add("sampling.intervals", s.intervals);
}

/// Cross-check bookkeeping of the timing probes.
#[derive(Default)]
struct Identity {
    checked: u64,
    mismatches: u64,
    /// Quoted keys of mismatching `(kernel, config)` pairs.
    failures: Vec<String>,
    /// Solo pipeline committed instructions and seconds per machine width.
    by_width: BTreeMap<usize, (u64, f64)>,
}

impl Identity {
    fn check(&mut self, key: String, runs: &[&SimStats]) {
        self.checked += 1;
        if runs.windows(2).any(|w| w[0] != w[1]) {
            self.mismatches += 1;
            self.failures.push(format!("{key:?}"));
        }
    }
}

/// Record-free emulation and record production over the whole kernel.
fn probe_emulator(spans: &Spans, root: usize, k: &Kernel, counts: &mut Counts) {
    let (insts, _) = spans.time("emu.ff", k.name, Some(root), |_| {
        let mut emu = Emulator::new(&k.program);
        emu.run(u64::MAX).expect("kernels run to completion");
        emu.steps()
    });
    counts.add("emu.insts", insts);
    let (records, _) = spans.time("emu.record", k.name, Some(root), |_| {
        let mut src = LiveSource::new(&k.program);
        let mut ring = RecordRing::new(4096, u64::MAX);
        while !ring.done() {
            let hi = ring.hi();
            ring.fill(&mut src, hi).expect("kernels run to completion");
        }
        ring.hi()
    });
    counts.add("emu.record_insts", records);
}

/// Solo `Simulator::run` per config, `run_lockstep` and
/// `run_lockstep_fanout(.., 2)` over the same (kernel, configs): rates, and
/// the check that all three — and the main pass — agree bit for bit.
/// sampled-full's kernels are probed over a prefix, where the main pass
/// (sampled) has no counterpart.
#[allow(clippy::too_many_arguments)]
fn probe_timing(
    spans: &Spans,
    root: usize,
    workload: Workload,
    plan: &Plan,
    k: &Kernel,
    main: &[SimStats],
    counts: &mut Counts,
    identity: &mut Identity,
) {
    let budget = if workload == Workload::SampledFull {
        PREFIX
    } else {
        u64::MAX
    };
    let configs = plan.cpu_configs();
    let p: &Program = &k.program;
    let mut solo = Vec::with_capacity(configs.len());
    for (label, cfg) in &plan.configs {
        let (s, secs) = spans.time(
            "cpu.pipeline",
            &format!("{}/{label}", k.name),
            Some(root),
            |_| Simulator::new(cfg.clone()).run(p, budget),
        );
        counts.add("pipeline.committed", s.committed);
        counts.add("pipeline.cycles", s.cycles);
        let w = identity.by_width.entry(cfg.width).or_default();
        w.0 += s.committed;
        w.1 += secs;
        solo.push(s);
    }
    let (serial, _) = spans.time("cpu.lockstep.serial", k.name, Some(root), |_| {
        run_lockstep(&configs, p, budget)
    });
    let (fanout, _) = spans.time("cpu.lockstep.fanout", k.name, Some(root), |_| {
        run_lockstep_fanout(&configs, p, budget, THREADS)
    });
    for (i, (label, _)) in plan.configs.iter().enumerate() {
        let mut runs = vec![&solo[i], &serial[i], &fanout[i]];
        if budget == u64::MAX {
            runs.push(&main[i]);
        }
        identity.check(job_key(k.name, label), &runs);
    }
    if let Some(sample) = plan.sample {
        // The sampled path's own identity: serial, fanned out, and one
        // config at a time.
        spans.time("cpu.sampling.check", k.name, Some(root), |_| {
            let serial = run_sampled(&configs, p, u64::MAX, &sample);
            let fanout = run_sampled_fanout(&configs, p, u64::MAX, &sample, THREADS);
            for (i, (label, cfg)) in plan.configs.iter().enumerate() {
                let solo = run_sampled(std::slice::from_ref(cfg), p, u64::MAX, &sample);
                identity.check(
                    job_key(k.name, &format!("{label} sampled")),
                    &[&serial[i].stats, &fanout[i].stats, &solo[0].stats, &main[i]],
                );
            }
        });
    }
}

/// One compact access stream over the kernel's prefix: instruction
/// fetches, data references, and the `$sp` moves and stack references the
/// SVF sees.
#[derive(Default)]
struct AccessStream {
    /// `addr << 2 | kind`, kind 0 = fetch, 1 = load, 2 = store.
    mem: Vec<u64>,
    /// `(old_sp, new_sp)` moves and `(addr, size | store << 7)` stack
    /// references, in program order; `true` marks an `$sp` move.
    stack: Vec<(bool, u64, u64)>,
    initial_sp: u64,
}

fn access_stream(p: &Program) -> AccessStream {
    let mut src = LiveSource::new(p);
    let initial_sp = src.emulator().reg(svf_isa::Reg::SP);
    let heap_base = src.emulator().heap_base();
    let mut ring = RecordRing::new(4096, PREFIX);
    let mut out = AccessStream {
        initial_sp,
        ..AccessStream::default()
    };
    while !ring.done() {
        let hi = ring.hi();
        let fresh = ring.fill(&mut src, hi).expect("kernels run to completion");
        for seq in fresh {
            let r = ring.get(seq);
            out.mem.push(r.pc << 2);
            if let Some(m) = r.mem {
                out.mem.push(m.addr << 2 | if m.is_store { 2 } else { 1 });
                if m.region(heap_base).is_stack() {
                    out.stack.push((
                        false,
                        m.addr,
                        u64::from(m.size) | u64::from(m.is_store) << 7,
                    ));
                }
            }
            if let Some(u) = r.sp_update {
                out.stack.push((true, u.old_sp, u.new_sp));
            }
        }
    }
    out
}

/// Replays the kernel's access stream into the first config's cache
/// hierarchy and, when the workload has one, its SVF.
fn probe_memory(
    spans: &Spans,
    root: usize,
    configs: &[CpuConfig],
    k: &Kernel,
    counts: &mut Counts,
) {
    let (stream, _) = spans.time("probe.stream", k.name, Some(root), |_| {
        access_stream(&k.program)
    });
    spans.time("mem", k.name, Some(root), |_| {
        let mut h = Hierarchy::new(configs[0].hierarchy.clone());
        let mut latency = 0u64;
        for &a in &stream.mem {
            latency += match a & 3 {
                0 => h.inst_fetch(a >> 2),
                kind => h.data_access(a >> 2, kind == 2),
            };
        }
        std::hint::black_box(latency);
    });
    counts.add("mem.accesses", stream.mem.len() as u64);
    let svf_cfg = configs.iter().find_map(|c| match &c.stack_engine {
        StackEngine::Svf { cfg, .. } => Some(*cfg),
        _ => None,
    });
    if let Some(cfg) = svf_cfg {
        spans.time("svf", k.name, Some(root), |_| {
            let mut svf = StackValueFile::new(cfg, stream.initial_sp);
            let mut hits = 0u64;
            for &(is_sp, a, b) in &stream.stack {
                if is_sp {
                    svf.on_sp_update(a, b);
                } else {
                    let size = (b & 0x7f) as u8;
                    let access = if b >> 7 == 1 {
                        svf.store(a, size)
                    } else {
                        svf.load(a, size)
                    };
                    hits += u64::from(access.is_some());
                }
            }
            std::hint::black_box(hits);
        });
        counts.add("svf.calls", stream.stack.len() as u64);
    }
}

/// The benchmark's sample plan on a kernel the workload runs in full
/// detail: the sampling layer's cost and error where the main pass gives
/// the exact answer.
fn probe_sampling(
    spans: &Spans,
    root: usize,
    sample: &SampleSpec,
    plan: &Plan,
    k: &Kernel,
    main: &[SimStats],
    counts: &mut Counts,
) -> Vec<(String, f64, f64)> {
    let configs = plan.cpu_configs();
    let (sampled, _) = spans.time("cpu.sampling", k.name, Some(root), |_| {
        run_sampled(&configs, &k.program, u64::MAX, sample)
    });
    count_sampling(counts, &sampled[0]);
    plan.configs
        .iter()
        .zip(sampled.iter().zip(main))
        .map(|((label, _), (s, full))| (job_key(k.name, label), s.stats.ipc(), full.ipc()))
        .collect()
}
