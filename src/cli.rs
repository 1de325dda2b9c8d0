//! Implementation of the `svf-sim` command-line driver.
//!
//! ```text
//! svf-sim <file.c|file.s> [options]
//!   --config NAME[+k=v,...]                            named preset from the config-space
//!                                                      registry, with an optional overlay
//!                                                      (e.g. --config svf+svf_bytes=4k);
//!                                                      excludes the hand flags below
//!   --list-configs                                     print the preset registry and exit
//!   --engine none|svf|svf-nosquash|stack-cache|ideal   stack engine (default svf)
//!   --width 4|8|16                                     machine width (default 16)
//!   --ports R+S                                        D-cache + stack ports (default 2+2)
//!   --svf-kb N                                         SVF/stack-cache capacity (default 8)
//!   --gshare                                           gshare predictor (default perfect)
//!   --naive                                            disable compiler optimizations
//!   --max-insts N                                      instruction budget
//!   --sample SPEC                                      sampled simulation: detailed intervals
//!                                                      over a functional fast-forward
//!                                                      (key=value pairs: period, interval,
//!                                                      warmup, ramp, tail, intervals, mode,
//!                                                      seed; empty = defaults)
//!   --threads T                                        timing thread budget: with --compare the
//!                                                      machine and its baseline advance as one
//!                                                      lockstep pair over a shared functional
//!                                                      stream on up to T threads (bit-identical
//!                                                      at any T; no effect on a single-machine
//!                                                      run or trace replay)
//!   --profile                                          print the Figures 1-3 characterization
//!   --disasm                                           print the disassembly and exit
//!   --compare                                          also run the (R+0) baseline and report speedup
//!   --salvage                                          replay a truncated .svft trace up to the
//!                                                      last complete record instead of erroring
//! ```

use std::error::Error;
use std::fmt::Write as _;

use svf::SvfConfig;
use svf_cpu::{CpuConfig, PredictorKind, SampleSpec, SimStats, StackEngine};
use svf_emu::Emulator;
use svf_isa::Program;
use svf_mem::StackCacheConfig;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Input path (`.c` MiniC or `.s` assembly).
    pub path: String,
    /// Stack engine selector.
    pub engine: String,
    /// Machine width.
    pub width: usize,
    /// D-cache ports.
    pub dl1_ports: usize,
    /// Stack-structure ports.
    pub stack_ports: usize,
    /// SVF / stack-cache capacity in KiB.
    pub capacity_kb: u64,
    /// Use the gshare predictor.
    pub gshare: bool,
    /// Disable compiler optimizations.
    pub naive: bool,
    /// Committed-instruction budget.
    pub max_insts: u64,
    /// Sampled-simulation plan (`--sample`): detailed intervals over a
    /// functional fast-forward instead of a full detailed run.
    pub sample: Option<SampleSpec>,
    /// Timing thread budget (`--threads`): with `--compare`, the machine
    /// and its baseline ride one lockstep pair fanned out over up to this
    /// many threads. Bit-identical at any count (1 is the serial run).
    pub threads: usize,
    /// Print the characterization profile.
    pub profile: bool,
    /// Print disassembly and exit.
    pub disasm: bool,
    /// Print the compiler's assembly output and exit (MiniC inputs only).
    pub emit_asm: bool,
    /// Also run the (R+0) baseline.
    pub compare: bool,
    /// Print the first N retired instructions (functional trace).
    pub trace: u64,
    /// Write a compact binary trace of the whole run to this path.
    pub dump_trace: Option<String>,
    /// Replay truncated `.svft` traces up to the last complete record
    /// (with a warning) instead of erroring at the cut.
    pub salvage: bool,
    /// Registry preset with an optional overlay (`svf+svf_bytes=4k`);
    /// mutually exclusive with the hand-rolled machine flags.
    pub config: Option<String>,
    /// Print the preset registry and exit.
    pub list_configs: bool,
}

impl Default for CliOptions {
    fn default() -> CliOptions {
        CliOptions {
            path: String::new(),
            engine: "svf".into(),
            width: 16,
            dl1_ports: 2,
            stack_ports: 2,
            capacity_kb: 8,
            gshare: false,
            naive: false,
            max_insts: u64::MAX,
            sample: None,
            threads: 1,
            profile: false,
            disasm: false,
            emit_asm: false,
            compare: false,
            trace: 0,
            dump_trace: None,
            salvage: false,
            config: None,
            list_configs: false,
        }
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown flags, missing values, or
/// a missing input path.
pub fn parse_args(args: &[String]) -> Result<CliOptions, String> {
    let mut o = CliOptions::default();
    // `--config` is a whole machine; combining it with the hand flags
    // would silently discard whichever lost, so the combination is an
    // error rather than a precedence rule.
    let mut hand_flags = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().map(String::as_str).ok_or(format!("{name} needs a value"))
        };
        if ["--engine", "--width", "--ports", "--svf-kb", "--gshare"].contains(&a.as_str()) {
            hand_flags = true;
        }
        match a.as_str() {
            "--config" => o.config = Some(value("--config")?.to_string()),
            "--list-configs" => o.list_configs = true,
            "--engine" => o.engine = value("--engine")?.to_string(),
            "--width" => {
                o.width = value("--width")?.parse().map_err(|_| "bad --width")?;
                if ![4, 8, 16].contains(&o.width) {
                    return Err("--width must be 4, 8 or 16".into());
                }
            }
            "--ports" => {
                let v = value("--ports")?;
                let (r, s) = v.split_once('+').ok_or("--ports wants R+S, e.g. 2+2")?;
                o.dl1_ports = r.parse().map_err(|_| "bad R in --ports")?;
                o.stack_ports = s.parse().map_err(|_| "bad S in --ports")?;
            }
            "--svf-kb" => o.capacity_kb = value("--svf-kb")?.parse().map_err(|_| "bad --svf-kb")?,
            "--max-insts" => {
                o.max_insts = value("--max-insts")?.parse().map_err(|_| "bad --max-insts")?;
            }
            "--sample" => o.sample = Some(SampleSpec::parse(value("--sample")?)?),
            "--threads" => {
                o.threads = value("--threads")?.parse().map_err(|_| "bad --threads")?;
                if o.threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--gshare" => o.gshare = true,
            "--naive" => o.naive = true,
            "--profile" => o.profile = true,
            "--disasm" => o.disasm = true,
            "--emit-asm" => o.emit_asm = true,
            "--compare" => o.compare = true,
            "--trace" => o.trace = value("--trace")?.parse().map_err(|_| "bad --trace")?,
            "--dump-trace" => o.dump_trace = Some(value("--dump-trace")?.to_string()),
            "--salvage" => o.salvage = true,
            p if !p.starts_with('-') && o.path.is_empty() => o.path = p.to_string(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.config.is_some() && hand_flags {
        return Err("--config selects a whole machine; drop --engine/--width/--ports/--svf-kb/--gshare".into());
    }
    if o.path.is_empty() && !o.list_configs {
        return Err("no input file given".into());
    }
    Ok(o)
}

/// Builds the machine configuration from the options.
///
/// # Errors
///
/// Rejects unknown engine names, unknown presets, and malformed overlays.
pub fn build_config(o: &CliOptions) -> Result<CpuConfig, String> {
    if let Some(spec) = &o.config {
        // `NAME` or `NAME+field=value,...` — the overlay rides the same
        // parser sweep specs use, so the syntaxes cannot drift apart.
        let (name, overlay) = match spec.split_once('+') {
            Some((name, overlay)) => (name, Some(overlay)),
            None => (spec.as_str(), None),
        };
        let mut cfg = svf_configspace::registry::require_preset(name)?;
        if let Some(overlay) = overlay {
            cfg = svf_configspace::Overlay::parse(overlay)?.apply(&cfg)?;
        }
        return cfg.try_resolve();
    }
    let mut cfg = match o.width {
        4 => CpuConfig::wide4(),
        8 => CpuConfig::wide8(),
        _ => CpuConfig::wide16(),
    }
    .with_ports(o.dl1_ports, o.stack_ports);
    cfg.stack_engine = match o.engine.as_str() {
        "none" => StackEngine::None,
        "svf" => StackEngine::Svf {
            cfg: SvfConfig::with_size(o.capacity_kb << 10),
            no_squash: false,
        },
        "svf-nosquash" => StackEngine::Svf {
            cfg: SvfConfig::with_size(o.capacity_kb << 10),
            no_squash: true,
        },
        "stack-cache" => {
            StackEngine::StackCache(StackCacheConfig::with_size(o.capacity_kb << 10))
        }
        "ideal" => StackEngine::IdealSvf,
        other => return Err(format!("unknown engine `{other}`")),
    };
    if o.gshare {
        cfg.predictor = PredictorKind::Gshare { history_bits: 12 };
    }
    Ok(cfg)
}

/// Compiles the input file by extension.
///
/// # Errors
///
/// Propagates I/O, compiler and assembler diagnostics as strings.
pub fn compile_input(o: &CliOptions, source: &str) -> Result<Program, String> {
    if o.path.ends_with(".s") || o.path.ends_with(".asm") {
        svf_asm::assemble(source).map_err(|e| format!("assembly error: {e}"))
    } else {
        let cc_opts = if o.naive {
            svf_cc::Options { regalloc: false, fold: false, peephole: false }
        } else {
            svf_cc::Options::default()
        };
        svf_cc::compile_to_program_with(source, cc_opts).map_err(|e| format!("compile error: {e}"))
    }
}

/// Runs the whole driver, returning the report text the binary prints.
///
/// # Errors
///
/// Any parse, compile, or functional-execution failure.
pub fn run_cli(args: &[String]) -> Result<String, Box<dyn Error>> {
    let o = parse_args(args)?;
    if o.list_configs {
        return Ok(svf_configspace::registry::listing());
    }
    if o.path.ends_with(".svft") {
        return replay_trace(&o);
    }
    let source = std::fs::read_to_string(&o.path)?;
    if o.emit_asm {
        let cc_opts = if o.naive {
            svf_cc::Options { regalloc: false, fold: false, peephole: false }
        } else {
            svf_cc::Options::default()
        };
        return Ok(svf_cc::compile_to_asm_with(&source, cc_opts)
            .map_err(|e| format!("compile error: {e}"))?);
    }
    let program = compile_input(&o, &source)?;
    let mut report = String::new();

    if o.disasm {
        report.push_str(&program.disassemble());
        return Ok(report);
    }

    // Functional run first: program output + instruction count.
    let mut emu = Emulator::new(&program);
    if o.trace > 0 {
        let _ = writeln!(report, "--- first {} retired instructions ---", o.trace);
        while !emu.is_halted() && emu.steps() < o.trace.min(o.max_insts) {
            let r = emu.step()?;
            let fun = program.function_at(r.pc).unwrap_or("?");
            let mem = r.mem.map_or(String::new(), |m| {
                format!(
                    "  [{} {:#x} ({}B)]",
                    if m.is_store { "store" } else { "load" },
                    m.addr,
                    m.size
                )
            });
            let _ = writeln!(report, "{:>8}  {:#010x} <{}>  {}{}", emu.steps(), r.pc, fun, r.inst, mem);
        }
    }
    if let Some(path) = &o.dump_trace {
        let file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let initial_sp = emu.reg(svf_isa::Reg::SP);
        let mut w = svf_emu::TraceWriter::new(file, program.entry, program.heap_base, initial_sp)?;
        while !emu.is_halted() && emu.steps() < o.max_insts {
            let r = emu.step()?;
            w.push(&r)?;
        }
        let n = w.records();
        w.finish()?;
        let _ = writeln!(report, "--- {n} records written to {path} ---");
    } else {
        emu.run(o.max_insts.saturating_sub(emu.steps()))?;
    }
    let _ = writeln!(report, "--- program output ---");
    report.push_str(&emu.output_string());
    let _ = writeln!(report, "--- {} instructions committed ---", emu.steps());

    if o.profile {
        let st = svf_experiments::characterize::characterize_program(&program, o.max_insts);
        let _ = writeln!(
            report,
            "memory refs: {:.1}% of instructions; stack {:.1}% of refs; \
             within 8KB of TOS {:.1}%; max depth {} B",
            100.0 * st.mem_frac(),
            100.0 * st.stack_frac(),
            100.0 * st.frac_within(8192),
            st.max_depth_bytes
        );
    }

    let cfg = build_config(&o)?;
    if !o.compare {
        run_timed(&mut report, &o, &[cfg], &program);
        return Ok(report);
    }
    // The baseline rides the same execution mode, so a sampled compare
    // reports a sampled-vs-sampled speedup (same schedule both sides).
    let runs = run_timed(&mut report, &o, &[cfg, base_config(&o)?], &program);
    let (stats, base) = (&runs[0], &runs[1]);
    let label = match &o.config {
        Some(spec) => format!("{spec} - stack structure"),
        None => format!("({}+0)", o.dl1_ports),
    };
    let _ = writeln!(
        report,
        "[baseline {label}] {} cycles, IPC {:.2} -> speedup {:.3}x",
        base.cycles,
        base.ipc(),
        stats.speedup_over(base)
    );
    Ok(report)
}

/// The `--compare` baseline: the same machine with the stack structure
/// removed. For `--config`, that is an overlay appended to the spec
/// (overlays are last-write-wins, so it composes with any user overlay).
fn base_config(o: &CliOptions) -> Result<CpuConfig, String> {
    let base_opts = CliOptions {
        engine: "none".into(),
        stack_ports: 0,
        config: o.config.as_ref().map(|spec| {
            let sep = if spec.contains('+') { ',' } else { '+' };
            format!("{spec}{sep}stack_engine=none,stack_ports=0")
        }),
        ..o.clone()
    };
    let mut base_cfg = build_config(&base_opts)?;
    base_cfg.stack_engine = StackEngine::None;
    Ok(base_cfg)
}

/// Times `configs` — the machine, then with `--compare` its baseline — as
/// one lockstep batch over a shared functional stream, fanned out across up
/// to `o.threads` timing threads (fan-out 1 is the serial run; results are
/// bit-identical at any fan-out). With `--sample` the batch runs sampled
/// and each run's greppable `SAMPLED` coverage line is reported (the
/// `scripts/check.sh` smoke gate parses it). The machine's timing lines
/// follow its own coverage line.
fn run_timed(
    report: &mut String,
    o: &CliOptions,
    configs: &[CpuConfig],
    program: &Program,
) -> Vec<SimStats> {
    let runs: Vec<(String, SimStats)> = match &o.sample {
        None => svf_cpu::run_lockstep_fanout(configs, program, o.max_insts, o.threads)
            .into_iter()
            .map(|s| (String::new(), s))
            .collect(),
        Some(spec) => svf_cpu::run_sampled_fanout(configs, program, o.max_insts, spec, o.threads)
            .into_iter()
            .map(|s| {
                let line = format!(
                    "--- SAMPLED intervals={} detailed={} fast-forwarded={} warmed={} of {} \
                     insts ---\n",
                    s.intervals,
                    s.detailed_insts,
                    s.fast_forwarded(),
                    s.warmed_insts,
                    s.total_insts
                );
                (line, s.stats)
            })
            .collect(),
    };
    for (i, (sampled, stats)) in runs.iter().enumerate() {
        report.push_str(sampled);
        if i == 0 {
            append_timing_report(report, o, stats);
        }
    }
    runs.into_iter().map(|(_, stats)| stats).collect()
}

/// Replays a captured `.svft` binary trace (see `--dump-trace`) through
/// the timing model: no compiler, no emulator — the trace *is* the
/// committed instruction stream, and the reported statistics are
/// bit-identical to a live run of the same program under the same
/// configuration.
fn replay_trace(o: &CliOptions) -> Result<String, Box<dyn Error>> {
    if o.sample.is_some() {
        // Sampling fast-forwards an *emulator*; a trace replay has none
        // (the trace is the committed stream, consumed once, in order).
        return Err("--sample does not apply to .svft trace replay".into());
    }
    let cfg = build_config(o)?;
    let file = std::io::BufReader::new(std::fs::File::open(&o.path)?);
    let mut report = String::new();
    let stats = if o.salvage {
        // Salvage mode: a capture killed mid-write replays up to its last
        // complete record, with the cut reported rather than fatal.
        let salvage = svf_emu::SalvageReport::new();
        let src = svf_emu::TraceSource::open_salvage(file, std::sync::Arc::clone(&salvage))?;
        let stats = svf_cpu::run_lockstep_trace(std::slice::from_ref(&cfg), src, o.max_insts)?
            .pop()
            .expect("one config in, one result out");
        if salvage.was_truncated() {
            let _ = writeln!(
                report,
                "--- WARNING: trace truncated mid-record; salvaged the first {} complete records ---",
                salvage.salvaged_records()
            );
        }
        stats
    } else {
        let src = svf_emu::TraceSource::open(file)?;
        svf_cpu::run_lockstep_trace(std::slice::from_ref(&cfg), src, o.max_insts)?
            .pop()
            .expect("one config in, one result out")
    };
    let _ = writeln!(report, "--- replayed {} trace records ---", stats.committed);
    append_timing_report(&mut report, o, &stats);
    Ok(report)
}

/// The timing lines shared by live runs and trace replays — identical
/// stream, identical text.
fn append_timing_report(report: &mut String, o: &CliOptions, stats: &SimStats) {
    let machine = match &o.config {
        Some(spec) => spec.clone(),
        None => format!("{} {}-wide ({}+{})", o.engine, o.width, o.dl1_ports, o.stack_ports),
    };
    let _ = writeln!(report, "[{machine}] {} cycles, IPC {:.2}", stats.cycles, stats.ipc());
    let morphed = stats.svf_morphed_loads + stats.svf_morphed_stores;
    if morphed + stats.svf_rerouted > 0 {
        let _ = writeln!(
            report,
            "  SVF: {} morphed, {} re-routed, {} out-of-window, {} squashes",
            morphed, stats.svf_rerouted, stats.svf_out_of_window, stats.svf_squashes
        );
    }
    let _ = writeln!(
        report,
        "  DL1: {} accesses ({:.1}% hit); L2: {} accesses",
        stats.dl1.accesses,
        100.0 * stats.dl1.hit_rate(),
        stats.l2.accesses
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_full_flag_set() {
        let o = parse_args(&args(&[
            "prog.c", "--engine", "stack-cache", "--width", "8", "--ports", "1+4", "--svf-kb",
            "4", "--gshare", "--naive", "--max-insts", "1000", "--profile", "--compare",
        ]))
        .unwrap();
        assert_eq!(o.path, "prog.c");
        assert_eq!(o.engine, "stack-cache");
        assert_eq!(o.width, 8);
        assert_eq!((o.dl1_ports, o.stack_ports), (1, 4));
        assert_eq!(o.capacity_kb, 4);
        assert!(o.gshare && o.naive && o.profile && o.compare);
        assert_eq!(o.max_insts, 1000);
        let o = parse_args(&args(&["p.c", "--dump-trace", "t.bin", "--trace", "5"])).unwrap();
        assert_eq!(o.dump_trace.as_deref(), Some("t.bin"));
        assert_eq!(o.trace, 5);
        let o = parse_args(&args(&["t.svft", "--salvage"])).unwrap();
        assert!(o.salvage);
    }

    #[test]
    fn sample_flag_parses_and_rejects_bad_specs() {
        let o = parse_args(&args(&["p.c", "--sample", "period=20k,interval=5k"])).unwrap();
        let spec = o.sample.expect("plan parsed");
        assert_eq!(spec.period, 20_000);
        assert_eq!(spec.interval, 5_000);
        let o = parse_args(&args(&["p.c", "--sample", ""])).unwrap();
        assert_eq!(o.sample, Some(SampleSpec::default()), "empty spec is the default plan");
        assert!(parse_args(&args(&["p.c", "--sample", "interval=0"])).is_err());
        assert!(parse_args(&args(&["p.c", "--sample", "bogus"])).is_err());
        assert!(parse_args(&args(&["p.c", "--sample"])).is_err(), "flag needs a value");
        let err = run_cli(&args(&["t.svft", "--sample", ""])).unwrap_err();
        assert!(err.to_string().contains("trace replay"), "{err}");
    }

    #[test]
    fn threads_flag_parses_and_rejects_zero() {
        let o = parse_args(&args(&["p.c", "--threads", "4"])).unwrap();
        assert_eq!(o.threads, 4);
        assert_eq!(parse_args(&args(&["p.c"])).unwrap().threads, 1, "serial by default");
        assert!(parse_args(&args(&["p.c", "--threads", "0"])).is_err());
        assert!(parse_args(&args(&["p.c", "--threads", "many"])).is_err());
        assert!(parse_args(&args(&["p.c", "--threads"])).is_err(), "flag needs a value");
    }

    #[test]
    fn threaded_compare_report_is_byte_identical_to_serial() {
        let path = std::env::temp_dir().join(format!("svf_cli_pair_{}.c", std::process::id()));
        std::fs::write(
            &path,
            "int f(int n) { int b[4]; b[n & 3] = n; return b[n & 3]; }\n\
             int main() { int s = 0; for (int i = 0; i < 50; i = i + 1) s = s + f(i); \
             print(s); return 0; }",
        )
        .unwrap();
        let p = path.to_str().unwrap().to_string();
        // Fan-out 1 is the serial run; fan-out 2 splits the pair across threads.
        let serial = run_cli(&args(&[&p, "--compare", "--threads", "1"])).unwrap();
        let paired = run_cli(&args(&[&p, "--compare", "--threads", "2"])).unwrap();
        assert_eq!(serial, paired, "the fanned-out pair must reproduce the serial report");
        let sampled = run_cli(&args(&[&p, "--compare", "--sample", "", "--threads", "1"])).unwrap();
        let sampled_mt =
            run_cli(&args(&[&p, "--compare", "--sample", "", "--threads", "2"])).unwrap();
        assert_eq!(sampled, sampled_mt, "sampled compare too");
        // Independent reference: each machine simulated alone.
        let o = parse_args(&args(&[&p])).unwrap();
        let program = compile_input(&o, &std::fs::read_to_string(&path).unwrap()).unwrap();
        let solo = |cfg: CpuConfig| svf_cpu::Simulator::new(cfg).run(&program, u64::MAX).cycles;
        let machine = solo(build_config(&o).unwrap());
        let base = solo(base_config(&o).unwrap());
        assert_ne!(machine, base, "the program must tell the two machines apart");
        assert!(serial.contains(&format!("(2+2)] {machine} cycles,")), "{serial}");
        assert!(serial.contains(&format!("[baseline (2+0)] {base} cycles,")), "{serial}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["p.c", "--width", "7"])).is_err());
        assert!(parse_args(&args(&["p.c", "--ports", "22"])).is_err());
        assert!(parse_args(&args(&["p.c", "--bogus"])).is_err());
        let o = parse_args(&args(&["p.c"])).unwrap();
        assert!(build_config(&CliOptions { engine: "alien".into(), ..o }).is_err());
    }

    #[test]
    fn config_reflects_options() {
        let o = parse_args(&args(&["p.c", "--engine", "ideal", "--width", "4"])).unwrap();
        let cfg = build_config(&o).unwrap();
        assert_eq!(cfg.width, 4);
        assert_eq!(cfg.stack_engine, StackEngine::IdealSvf);
        let o = parse_args(&args(&["p.c", "--gshare"])).unwrap();
        let cfg = build_config(&o).unwrap();
        assert!(matches!(cfg.predictor, PredictorKind::Gshare { .. }));
    }

    #[test]
    fn config_flag_resolves_presets_and_overlays() {
        let o = parse_args(&args(&["p.c", "--config", "svf"])).unwrap();
        let cfg = build_config(&o).unwrap();
        assert!(matches!(cfg.stack_engine, StackEngine::Svf { .. }));
        assert_eq!((cfg.dl1_ports, cfg.stack_ports), (2, 2));

        let o = parse_args(&args(&["p.c", "--config", "svf+svf_bytes=4k,stack_ports=4"])).unwrap();
        let cfg = build_config(&o).unwrap();
        assert_eq!(cfg.stack_ports, 4);
        match cfg.stack_engine {
            StackEngine::Svf { cfg, .. } => assert_eq!(cfg.capacity_bytes, 4 << 10),
            other => panic!("svf engine expected, got {other:?}"),
        }

        let o = parse_args(&args(&["p.c", "--config", "warp-core"])).unwrap();
        assert!(build_config(&o).unwrap_err().contains("unknown config preset"));
        let o = parse_args(&args(&["p.c", "--config", "svf+made_up=1"])).unwrap();
        assert!(build_config(&o).is_err());
    }

    #[test]
    fn config_flag_excludes_hand_flags() {
        let err = parse_args(&args(&["p.c", "--config", "svf", "--width", "8"])).unwrap_err();
        assert!(err.contains("--config"), "{err}");
        assert!(parse_args(&args(&["p.c", "--config", "svf", "--gshare"])).is_err());
    }

    #[test]
    fn list_configs_needs_no_input_file() {
        let o = parse_args(&args(&["--list-configs"])).unwrap();
        assert!(o.list_configs);
        let listing = run_cli(&args(&["--list-configs"])).unwrap();
        assert!(listing.contains("svf") && listing.contains("wide16"), "{listing}");
    }

    #[test]
    fn compiles_minic_and_assembly_by_extension() {
        let o = CliOptions { path: "x.c".into(), ..CliOptions::default() };
        assert!(compile_input(&o, "int main() { return 0; }").is_ok());
        assert!(compile_input(&o, "not C at all").is_err());
        let o = CliOptions { path: "x.s".into(), ..CliOptions::default() };
        assert!(compile_input(&o, "main:\n halt\n").is_ok());
        assert!(compile_input(&o, "int main() {}").is_err());
    }
}
