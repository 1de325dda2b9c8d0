//! One functional stream, N timing models: batched lockstep simulation.
//!
//! A multi-config sweep used to run the functional emulator once *per
//! configuration*. Here the stream is produced once per (program, input):
//! a [`RecordSource`] fills a shared [`RecordRing`], a [`FactsBuilder`]
//! distills each record into the config-independent [`Facts`] every
//! dispatch needs (decoded source/destination registers, dependence chains,
//! memory classification, aliasing store chains), and every [`Pipeline`]
//! walks the same window in lockstep — paying only for its own
//! config-*dependent* timing.
//!
//! Lockstep is timing-invisible: a pipeline only simulates a cycle when the
//! window holds at least a full fetch group (or the stream has ended), so
//! fetch can never starve mid-cycle on window chunking — every per-cycle
//! decision is identical to a live single-config run, and
//! `tests/golden_stats.rs` pins the equivalence bit-for-bit.
//!
//! # Stream-invariant precomputation
//!
//! Two tables that used to live per-pipeline are provably functions of the
//! record stream alone, so the builder maintains them once:
//!
//! * **Rename chains.** The live pipeline's `reg_producer` table maps each
//!   register to its youngest earlier writer's seq; commit-time clearing
//!   only ever removes writers older than the consumer's commit head, which
//!   dispatch filters out anyway (`p >= head_seq`). So "youngest earlier
//!   writer" is a pure stream property, stored per record in
//!   [`Facts::deps`] and head-filtered per config at dispatch.
//! * **Alias chains.** The [`AliasTable`] maps each quad-word to its
//!   youngest earlier store (split `$sp`/other base). Commit-time retire
//!   also only blanks already-committed seqs — invisible behind the same
//!   head filter — so the youngest-earlier-store pair is stored per record
//!   in [`Facts::prev_sp`]/[`Facts::prev_other`].

use std::any::Any;
use std::io::Read;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

use svf_emu::{LiveSource, RecordRing, RecordSource, Retired, StreamError, TraceSource};
use svf_isa::{AluOp, Inst, Program};

use crate::alias::{AliasTable, NO_SEQ};
use crate::config::CpuConfig;
use crate::pipeline::Pipeline;
use crate::stats::SimStats;

/// Shared window capacity in records. Bounded so the window (plus its
/// facts) stays cache-resident while the whole fan-out streams over it;
/// must exceed the largest IFQ plus the widest fetch group so retention
/// (`keep_from`) never blocks production.
const WINDOW_CAPACITY: usize = 1024;

/// `Facts::flags` bits. The low five double as the pipeline's commit
/// flags (see [`COMMIT_FLAG_MASK`]).
pub(crate) const F_MEM: u8 = 1 << 0;
pub(crate) const F_STORE: u8 = 1 << 1;
pub(crate) const F_SP_BASE: u8 = 1 << 2;
pub(crate) const F_STACK: u8 = 1 << 3;
pub(crate) const F_CONTROL: u8 = 1 << 4;
pub(crate) const F_TAKEN: u8 = 1 << 5;
/// The record carries an `sp_update` (the SVF must observe it at decode).
pub(crate) const F_SP_UPDATE: u8 = 1 << 6;
/// Non-immediate `$sp` writer: decode interlocks on it (§3.1).
pub(crate) const F_SP_INTERLOCK: u8 = 1 << 7;

/// The `Facts::flags` bits stored verbatim into `Slot::commit_flags`.
pub(crate) const COMMIT_FLAG_MASK: u8 = F_MEM | F_STORE | F_SP_BASE | F_STACK | F_CONTROL;

/// "No producer recorded" (same sentinel as the alias table's [`NO_SEQ`]).
pub(crate) const NO_PRODUCER: u64 = u64::MAX;

/// `Facts::dest` value of an instruction with no destination register.
pub(crate) const NO_DEST: u8 = u8::MAX;

/// Everything config-independent that dispatch needs from one record,
/// precomputed once per stream and read by every timing model. Dispatch
/// touches the wide [`Retired`] record only for the rare `sp_update`
/// payload; fetch touches it only to train a non-trivial predictor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Facts {
    /// Seqs of the youngest earlier writers of this record's source
    /// registers, in source order (`NO_PRODUCER`-free; only live entries
    /// are stored). Consumers filter against their own commit head.
    pub deps: [u64; 2],
    /// Memory effective address (meaningful under [`F_MEM`]).
    pub addr: u64,
    /// Youngest earlier `$sp`-based store to the same quad-word, or
    /// [`NO_SEQ`] (meaningful under [`F_MEM`]).
    pub prev_sp: u64,
    /// Youngest earlier non-`$sp` store to the same quad-word, or
    /// [`NO_SEQ`].
    pub prev_other: u64,
    /// Instruction address (fetch: I-cache line accounting).
    pub pc: u64,
    /// `F_*` property bits.
    pub flags: u8,
    /// Bit `i` set when `deps[i]`'s source register is `$sp` (the SVF drops
    /// that dependence when it resolves the address early).
    pub dep_sp: u8,
    /// Number of live entries in `deps`.
    pub ndeps: u8,
    /// Destination register number, or [`NO_DEST`].
    pub dest: u8,
    /// Memory access size in bytes (meaningful under [`F_MEM`]).
    pub size: u8,
    /// Non-memory execution class: 0 ALU, 1 multiply, 2 divide.
    pub kind: u8,
}

impl Facts {
    pub(crate) const EMPTY: Facts = Facts {
        deps: [0; 2],
        addr: 0,
        prev_sp: NO_SEQ,
        prev_other: NO_SEQ,
        pc: 0,
        flags: 0,
        dep_sp: 0,
        ndeps: 0,
        dest: NO_DEST,
        size: 0,
        kind: 0,
    };
}

/// Stream-side state for fact extraction: the rename table and the alias
/// table, maintained exactly once per stream (see the module docs for the
/// equivalence argument).
#[derive(Debug)]
pub(crate) struct FactsBuilder {
    reg_producer: [u64; 32],
    alias: AliasTable,
}

impl FactsBuilder {
    pub(crate) fn new() -> FactsBuilder {
        FactsBuilder { reg_producer: [NO_PRODUCER; 32], alias: AliasTable::new() }
    }

    /// Distills record `seq` into its [`Facts`], advancing the stream
    /// tables.
    pub(crate) fn extract(&mut self, seq: u64, r: &Retired, heap_base: u64) -> Facts {
        let mut f = Facts { pc: r.pc, ..Facts::EMPTY };
        if let Some(m) = r.mem {
            f.flags |= F_MEM;
            if m.is_store {
                f.flags |= F_STORE;
            }
            if m.base.is_sp() {
                f.flags |= F_SP_BASE;
            }
            if m.region(heap_base).is_stack() {
                f.flags |= F_STACK;
            }
            f.addr = m.addr;
            f.size = m.size;
            let qw = m.addr / 8;
            // Probe before recording, exactly like live dispatch: a store
            // must not see itself as its own aliasing predecessor.
            let (sp, other) = self.alias.get(qw);
            f.prev_sp = sp;
            f.prev_other = other;
            if m.is_store {
                self.alias.record(qw, seq, m.base.is_sp());
            }
        } else {
            f.kind = match r.inst {
                Inst::Op { op, .. } if op.is_mul_class() => {
                    if op == AluOp::Mulq {
                        1
                    } else {
                        2
                    }
                }
                _ => 0,
            };
        }
        if let Some(c) = r.control {
            f.flags |= F_CONTROL;
            if c.taken {
                f.flags |= F_TAKEN;
            }
        }
        if r.sp_update.is_some() {
            f.flags |= F_SP_UPDATE;
        }
        if r.inst.writes_sp() && r.inst.sp_immediate_adjust().is_none() {
            f.flags |= F_SP_INTERLOCK;
        }
        // Sources before destination: an instruction reading its own
        // destination depends on the *previous* writer.
        for src in r.inst.src_regs().into_iter().flatten() {
            let p = self.reg_producer[src.number() as usize];
            if p != NO_PRODUCER {
                f.deps[f.ndeps as usize] = p;
                if src.is_sp() {
                    f.dep_sp |= 1 << f.ndeps;
                }
                f.ndeps += 1;
            }
        }
        if let Some(d) = r.inst.dest() {
            self.reg_producer[d.number() as usize] = seq;
            f.dest = d.number();
        }
        f
    }
}

/// A borrowed view of the shared stream a pipeline advances over: the
/// record ring plus the parallel facts ring (same capacity, same
/// seq-to-index mapping).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window<'a> {
    ring: &'a RecordRing,
    facts: &'a [Facts],
}

impl<'a> Window<'a> {
    /// Facts for `seq` (must be resident, like [`RecordRing::get`]).
    #[inline]
    pub(crate) fn fact(&self, seq: u64) -> &Facts {
        &self.facts[(seq & self.ring.mask()) as usize]
    }

    /// The wide record for `seq`.
    #[inline]
    pub(crate) fn record(&self, seq: u64) -> &'a Retired {
        self.ring.get(seq)
    }

    /// Records produced so far (exclusive upper seq bound).
    #[inline]
    pub(crate) fn hi(&self) -> u64 {
        self.ring.hi()
    }

    /// Whether the stream has ended (halt or budget).
    #[inline]
    pub(crate) fn done(&self) -> bool {
        self.ring.done()
    }
}

/// Runs every configuration over one shared functional execution of
/// `program`, in lockstep, and returns per-config statistics in input
/// order. Each result is bit-identical to
/// `Simulator::new(cfg).run(program, max_insts)` — the emulator just runs
/// once instead of `configs.len()` times.
///
/// # Panics
///
/// Panics if the program faults functionally, or if a pipeline deadlocks
/// (either would be a simulator bug).
#[must_use]
pub fn run_lockstep(configs: &[CpuConfig], program: &Program, max_insts: u64) -> Vec<SimStats> {
    run_lockstep_fanout(configs, program, max_insts, 1)
}

/// [`run_lockstep`] with the per-window pipeline advancement fanned out
/// over `fanout` threads (the calling thread plus `fanout - 1` scoped
/// workers). Each thread advances a disjoint chunk of the pipelines over
/// the same shared window behind a per-window barrier, so the statistics
/// are bit-identical for any `fanout` — the fill sequence is a pure
/// function of the global slowest dispatch point, and each pipeline reads
/// only the immutable window while mutating only itself. `fanout` is
/// clamped to `[1, configs.len()]`; at `1` (or a single config) the
/// calling thread advances every pipeline and no thread is spawned.
///
/// # Panics
///
/// Panics if the program faults functionally, or if a pipeline deadlocks
/// (either would be a simulator bug). A panic on a worker thread is
/// re-raised on the calling thread with its original payload, so callers
/// observe the same message at every `fanout`.
#[must_use]
pub fn run_lockstep_fanout(
    configs: &[CpuConfig],
    program: &Program,
    max_insts: u64,
    fanout: usize,
) -> Vec<SimStats> {
    let mut src = LiveSource::new(program);
    run_source(configs, &mut src, max_insts, fanout)
        .unwrap_or_else(|e| panic!("functional fault during simulation: {e}"))
}

/// [`run_lockstep`] over a captured binary trace instead of a live
/// emulator: replaying a lossless trace produces bit-identical statistics
/// to the run that captured it.
///
/// # Errors
///
/// Truncated or corrupt traces surface as [`StreamError::Trace`]; the
/// partial simulation is discarded.
pub fn run_lockstep_trace<R: Read>(
    configs: &[CpuConfig],
    src: TraceSource<R>,
    max_insts: u64,
) -> Result<Vec<SimStats>, StreamError> {
    let mut src = src;
    run_source(configs, &mut src, max_insts, 1)
}

/// The lockstep driver: fill the shared window, extract facts for the
/// fresh records, let every pipeline advance as far as the window allows,
/// repeat until all pipelines drain.
fn run_source<S: RecordSource>(
    configs: &[CpuConfig],
    src: &mut S,
    max_insts: u64,
    fanout: usize,
) -> Result<Vec<SimStats>, StreamError> {
    let initial_sp = src.initial_sp();
    let mut pipes: Vec<Pipeline> = configs.iter().map(|c| Pipeline::new(c, initial_sp)).collect();
    drive_fanout(&mut pipes, src, max_insts, fanout)?;
    Ok(pipes.into_iter().map(Pipeline::finish).collect())
}

/// Drives a set of already-constructed pipelines over `src` until they all
/// drain (stream halt or `max_insts` committed records). This is the reusable
/// inner loop of [`run_source`]; sampled simulation calls it once per
/// measured interval with pipelines built from warm [`EngineState`]s and a
/// source positioned mid-program.
///
/// The calling thread is the leader: it owns the source and the facts
/// builder, fills the window exclusively between rounds, and advances the
/// first chunk of pipelines itself during rounds. `fanout` (clamped to
/// `[1, pipes.len()]`) splits the pipelines into that many chunks, and
/// `fanout - 1` scoped workers (spawned once per drive, not per window)
/// advance the rest; at fanout 1 the leader advances every pipeline and no
/// thread is spawned. Results are bit-identical at any fanout: the fill
/// sequence depends only on the global minimum dispatch point — which the
/// chunks accumulate exactly — and each `Pipeline::advance` reads nothing
/// but the immutable window and its own state, so chunk assignment and
/// thread interleaving are timing-invisible.
///
/// [`EngineState`]: crate::pipeline::EngineState
pub(crate) fn drive_fanout<S: RecordSource>(
    pipes: &mut [Pipeline],
    src: &mut S,
    max_insts: u64,
    fanout: usize,
) -> Result<(), StreamError> {
    let heap_base = src.heap_base();
    let ring = RecordRing::new(WINDOW_CAPACITY, max_insts);
    let capacity = (ring.mask() + 1) as usize;
    for p in pipes.iter() {
        let cfg = p.config();
        assert!(
            cfg.ifq_size + cfg.width < capacity,
            "IFQ {} + width {} must fit the {capacity}-record lockstep window",
            cfg.ifq_size,
            cfg.width
        );
    }
    let facts = vec![Facts::EMPTY; capacity].into_boxed_slice();
    let fanout = fanout.clamp(1, pipes.len().max(1));
    let rv = Rendezvous {
        shared: RwLock::new(SharedWindow { ring, facts }),
        start: Barrier::new(fanout),
        end: Barrier::new(fanout),
        // Every pipeline starts dispatching at seq 0.
        min_head: AtomicU64::new(0),
        all_done: AtomicBool::new(true),
        stop: AtomicBool::new(false),
        panicked: Mutex::new(None),
    };
    let mut builder = FactsBuilder::new();
    // Exactly `fanout` chunks, sizes differing by at most one (plain
    // `chunks_mut` could come up short — 4 pipes over 3 threads would
    // yield 2 chunks of 2 and deadlock the 3-party barriers).
    let mut chunks = Vec::with_capacity(fanout);
    let mut rest = pipes;
    for i in 0..fanout {
        let (head, tail) = rest.split_at_mut(rest.len().div_ceil(fanout - i));
        chunks.push(head);
        rest = tail;
    }
    let mut chunks = chunks.into_iter();
    let leader_chunk = chunks.next().expect("fanout >= 1 chunk");

    let result = std::thread::scope(|scope| {
        for worker_pipes in chunks {
            let rv = &rv;
            scope.spawn(move || worker_loop(worker_pipes, rv));
        }
        loop {
            // Exclusive phase: every worker is parked at (or headed to)
            // the start barrier, so the write lock is uncontended.
            {
                let mut guard =
                    rv.shared.write().unwrap_or_else(std::sync::PoisonError::into_inner);
                let sw = &mut *guard;
                // Records older than every pipeline's dispatch point are
                // dead; the window may overwrite them. (A finished
                // pipeline's dispatch point sits at the final stream
                // length, so it never constrains.)
                let keep = rv.min_head.load(Ordering::Acquire);
                match sw.ring.fill(src, keep) {
                    Ok(fresh) => {
                        let stalled = fresh.is_empty();
                        for seq in fresh {
                            sw.facts[(seq & sw.ring.mask()) as usize] =
                                builder.extract(seq, sw.ring.get(seq), heap_base);
                        }
                        // The window always has ifq+width headroom over the
                        // slowest consumer, so an empty fill with unfinished
                        // pipelines means the stream ended and they are
                        // still draining — anything else would loop forever.
                        debug_assert!(!stalled || sw.ring.done(), "lockstep window stalled");
                    }
                    Err(e) => {
                        rv.stop.store(true, Ordering::Release);
                        rv.start.wait();
                        break Err(e);
                    }
                }
            }
            rv.min_head.store(u64::MAX, Ordering::Release);
            rv.all_done.store(true, Ordering::Release);
            rv.start.wait();
            // Parallel phase: the leader works its own chunk too.
            advance_chunk(leader_chunk, &rv);
            rv.end.wait();
            if rv.has_panicked() || rv.all_done.load(Ordering::Acquire) {
                rv.stop.store(true, Ordering::Release);
                rv.start.wait();
                break Ok(());
            }
        }
    });
    // The scope has joined: re-raise a worker (or leader-chunk) panic on
    // the calling thread with its original payload.
    let payload =
        rv.panicked.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
    result
}

/// The stream state the timing threads share. The leader mutates it
/// exclusively between rounds (write lock while every worker is parked at
/// the round-start barrier); workers only ever read it, concurrently,
/// during a round. The barriers are what actually serialize the two
/// phases — the lock is never contended — but the lock is how the borrow
/// checker sees that production and consumption cannot overlap.
struct SharedWindow {
    ring: RecordRing,
    facts: Box<[Facts]>,
}

/// Rendezvous state for one drive: the shared window, the two round
/// barriers, and the accumulators each chunk folds its progress into
/// during a round (reset by the leader between rounds).
struct Rendezvous {
    shared: RwLock<SharedWindow>,
    /// Round start: workers block here while the leader owns the window.
    start: Barrier,
    /// Round end: the leader blocks here until every chunk has advanced.
    end: Barrier,
    /// Minimum dispatch point across all chunks (the next fill's `keep`).
    min_head: AtomicU64,
    /// Whether every pipeline in every chunk has drained.
    all_done: AtomicBool,
    /// Leader's termination signal, checked by workers after `start`.
    stop: AtomicBool,
    /// First panic payload out of any chunk, re-raised by the leader once
    /// every thread has parked (so the scope joins cleanly first).
    panicked: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Rendezvous {
    /// Parks the payload of a panicking chunk; first writer wins.
    fn park_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panicked.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        slot.get_or_insert(payload);
    }

    fn has_panicked(&self) -> bool {
        self.panicked.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_some()
    }
}

/// Advances one chunk of pipelines for one round, folding its progress
/// into the shared accumulators. A panicking pipeline (e.g. the deadlock
/// assert) is caught so this thread still reaches the end-of-round
/// barrier instead of deadlocking the others; the payload is parked for
/// the leader to re-raise.
fn advance_chunk(pipes: &mut [Pipeline], rv: &Rendezvous) {
    let advanced = catch_unwind(AssertUnwindSafe(|| {
        let guard = rv.shared.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let win = Window { ring: &guard.ring, facts: &guard.facts };
        let mut done = true;
        let mut head = u64::MAX;
        for p in pipes.iter_mut() {
            done &= p.advance(&win);
            head = head.min(p.ifq_head());
        }
        (done, head)
    }));
    match advanced {
        Ok((done, head)) => {
            if !done {
                rv.all_done.store(false, Ordering::Release);
            }
            rv.min_head.fetch_min(head, Ordering::AcqRel);
        }
        Err(payload) => rv.park_panic(payload),
    }
}

/// A worker thread's whole life: wait for the round to open, advance its
/// chunk, signal the round closed; exit when the leader raises `stop`.
fn worker_loop(pipes: &mut [Pipeline], rv: &Rendezvous) {
    loop {
        rv.start.wait();
        if rv.stop.load(Ordering::Acquire) {
            return;
        }
        advance_chunk(pipes, rv);
        rv.end.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StackEngine;
    use crate::pipeline::Simulator;
    use svf_emu::{TraceReader, TraceWriter};
    use svf_isa::{Reg, STACK_BASE};

    fn kernel() -> Program {
        svf_cc::compile_to_program_with(
            "
            int work(int n) {
                int a = n; int b = n * 2; int c = 0;
                for (int i = 0; i < 30; i = i + 1) {
                    c = c + a * b - i;
                    a = a + 1;
                    b = b - 1;
                }
                return c;
            }
            int main() {
                int s = 0;
                for (int i = 0; i < 25; i = i + 1) s = s + work(i);
                print(s);
                return 0;
            }",
            svf_cc::Options { regalloc: false, ..Default::default() },
        )
        .expect("compiles")
    }

    fn config_set() -> Vec<CpuConfig> {
        let mut svf_cfg = CpuConfig::wide16().with_ports(2, 2);
        svf_cfg.stack_engine = StackEngine::svf_8kb();
        let mut sc_cfg = CpuConfig::wide8().with_ports(2, 2);
        sc_cfg.stack_engine = StackEngine::stack_cache_8kb();
        vec![CpuConfig::wide16(), svf_cfg, sc_cfg, CpuConfig::wide4()]
    }

    #[test]
    fn lockstep_matches_independent_runs() {
        let p = kernel();
        let configs = config_set();
        let together = run_lockstep(&configs, &p, u64::MAX);
        for (cfg, got) in configs.iter().zip(&together) {
            let alone = Simulator::new(cfg.clone()).run(&p, u64::MAX);
            assert_eq!(got.to_csv_row(), alone.to_csv_row(), "{cfg:?} diverged in lockstep");
        }
    }

    #[test]
    fn lockstep_respects_the_instruction_budget() {
        let p = kernel();
        let configs = config_set();
        let capped = run_lockstep(&configs, &p, 1000);
        for (cfg, got) in configs.iter().zip(&capped) {
            let alone = Simulator::new(cfg.clone()).run(&p, 1000);
            assert_eq!(got.to_csv_row(), alone.to_csv_row(), "{cfg:?} diverged under budget");
        }
    }

    #[test]
    fn fanout_is_bit_identical_to_serial() {
        let p = kernel();
        let configs = config_set();
        let serial = run_lockstep(&configs, &p, u64::MAX);
        // 3 exercises a ragged chunking (4 pipes over 3 threads); 8 clamps
        // to one pipe per thread.
        for fanout in [2, 3, 4, 8] {
            let threaded = run_lockstep_fanout(&configs, &p, u64::MAX, fanout);
            for ((cfg, a), b) in configs.iter().zip(&serial).zip(&threaded) {
                assert_eq!(
                    a.to_csv_row(),
                    b.to_csv_row(),
                    "{cfg:?} diverged at fanout {fanout}"
                );
            }
        }
    }

    #[test]
    fn fanout_respects_the_instruction_budget() {
        let p = kernel();
        let configs = config_set();
        let serial = run_lockstep(&configs, &p, 1000);
        let threaded = run_lockstep_fanout(&configs, &p, 1000, 4);
        for ((cfg, a), b) in configs.iter().zip(&serial).zip(&threaded) {
            assert_eq!(a.to_csv_row(), b.to_csv_row(), "{cfg:?} diverged under budget");
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        // A zero-width machine never commits, so its pipeline trips the
        // deadlock assert on whatever thread advances it (the calling
        // thread itself at fanout 1); the caller must
        // observe the original panic message (the harness keys its
        // bisection/quarantine path off it).
        let p = kernel();
        let mut configs = config_set();
        configs.push(CpuConfig { width: 0, ..CpuConfig::wide4() });
        for fanout in [1, 4] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_lockstep_fanout(&configs, &p, u64::MAX, fanout)
            }));
            let payload = caught.expect_err("a deadlocked pipeline must panic the caller");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert!(
                msg.contains("pipeline deadlock"),
                "unexpected panic payload at fanout {fanout}: {msg:?}"
            );
        }
    }

    #[test]
    fn trace_replay_matches_live_execution() {
        let p = kernel();
        // Capture the stream once.
        let mut emu = svf_emu::Emulator::new(&p);
        let initial_sp = emu.reg(Reg::SP);
        assert_eq!(initial_sp, STACK_BASE);
        let mut w =
            TraceWriter::new(Vec::new(), p.entry, p.heap_base, initial_sp).expect("header");
        while !emu.is_halted() {
            w.push(&emu.step().expect("runs")).expect("writes");
        }
        let bytes = w.finish().expect("finish");
        // Replay it under every config and compare against live runs.
        let configs = config_set();
        let src = TraceSource::new(TraceReader::new(bytes.as_slice()).expect("header"));
        let replayed = run_lockstep_trace(&configs, src, u64::MAX).expect("replays");
        for (cfg, got) in configs.iter().zip(&replayed) {
            let alone = Simulator::new(cfg.clone()).run(&p, u64::MAX);
            assert_eq!(got.to_csv_row(), alone.to_csv_row(), "{cfg:?} diverged on replay");
        }
    }

    #[test]
    fn truncated_trace_is_an_error_not_a_panic() {
        let p = kernel();
        let mut emu = svf_emu::Emulator::new(&p);
        let mut w = TraceWriter::new(Vec::new(), p.entry, p.heap_base, STACK_BASE).expect("header");
        for _ in 0..200 {
            w.push(&emu.step().expect("runs")).expect("writes");
        }
        let mut bytes = w.finish().expect("finish");
        bytes.truncate(bytes.len() - 2);
        let src = TraceSource::new(TraceReader::new(bytes.as_slice()).expect("header"));
        let err = run_lockstep_trace(&[CpuConfig::wide16()], src, u64::MAX)
            .expect_err("truncated trace must fail");
        assert!(matches!(err, StreamError::Trace(_)), "typed trace error, got {err:?}");
    }
}
