#!/usr/bin/env python3
"""The repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig-matrix --seed 3 --seconds 30 --trace 0

`--workload all` (the default) runs the three workloads in turn, each
followed by its own JSON line.

Builds `perfbench/` (a Cargo package of its own) in release mode, then
either measures the workload end to end for `--seconds` (`--trace 0`) or
makes one traced run that splits host time across the crates
(`--trace 1`). Human-readable lines go to stdout first; the last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --write-reference

recomputes `perfbench/reference/digests.json`, the per-job digests and
full-detail IPCs every run is checked against.

See perfbench/README.md for the workloads, metrics and layer map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig-matrix", "wide-sweep", "sampled-full")
DEFAULT_SEED = 3
# The seed picks one of SEED_VARIANTS input variants (fig-matrix's kernel
# input seed, sampled-full's plan seed), each with committed reference
# digests: a reference costs as much simulation as the workload itself, so
# it is made once, not in every run.
SEED_VARIANTS = 8
REFERENCE = os.path.join(HERE, "reference", "digests.json")
# wide-sweep runs bzip2's default input through `run_sweep` and has no
# sample plan, so its result does not depend on the seed.
SEEDLESS = {"wide-sweep"}
# The metrics of the final JSON line, as BENCHMARK.json names them. The
# traced run prints more; these are the ones defined and non-zero on every
# workload.
END_TO_END = ("wall_s", "sim_minst_per_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "minic.compile_s", "minic.programs",
    "configspace.resolve_s", "configspace.configs",
    "emu.ff_minst_per_s", "emu.record_minst_per_s", "emu.insts",
    "cpu.pipeline.minst_per_s", "cpu.pipeline.minst_per_s.w16", "cpu.pipeline.busy_s",
    "cpu.pipeline.cycles", "cpu.pipeline.committed",
    "cpu.lockstep.share_ratio", "cpu.lockstep.fanout_speedup", "cpu.lockstep.batch_width",
    "cpu.sampling.busy_s", "cpu.sampling.overhead_s", "cpu.sampling.detailed_pct",
    "cpu.sampling.intervals", "cpu.sampling.ipc_err_max_pct", "cpu.sampling.ipc_err_mean_pct",
    "mem.probe_macc_per_s", "mem.dl1_miss_pct", "mem.l2_accesses",
    "svf.probe_macc_per_s", "svf.morphed_pct",
    "harness.jobs", "harness.batches", "harness.compiles",
    "trace.coverage_pct",
)
# Set-up-only processes before each measured run.
SETUP_REPEATS = 3
# Runs repeat until the next one would end more than half a run past
# `--seconds`, at least MIN_ITERATIONS times, and never start when they
# could end past DEADLINE_S: each benchmark process must end within 180 s.
MIN_ITERATIONS = 3
DEADLINE_S = 150.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- arithmetic


def quartiles(values):
    """(q1, median, q3) of a non-empty sample, by the same rule as
    `statistics.quantiles(values, n=4)` (exclusive method)."""
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def committed_sum(jobs):
    """Sum of `SimStats.committed` over the jobs that produced stats."""
    return sum(j.get("committed", 0) for j in jobs if j.get("ok"))


def minst_per_s(jobs, wall_s):
    """Simulated millions of committed instructions per host second."""
    return committed_sum(jobs) / wall_s / 1e6


def failed_jobs(jobs, reference):
    """Jobs that failed, resumed, are missing, or whose digest differs from
    the reference. Returns (attempted, failed, reasons)."""
    expected = reference["jobs"]
    seen = {}
    reasons = []
    for j in jobs:
        key = j["key"]
        if not j.get("ok"):
            reasons.append(f"{key}: failed")
        elif j.get("resumed"):
            reasons.append(f"{key}: resumed instead of simulated")
        elif key not in expected:
            reasons.append(f"{key}: not in the reference")
        elif j["digest"] != expected[key]:
            reasons.append(f"{key}: digest {j['digest']} != reference {expected[key]}")
        else:
            seen[key] = True
            continue
        seen.setdefault(key, False)
    for key in expected:
        if key not in seen:
            reasons.append(f"{key}: missing")
    attempted = max(len(expected), len(jobs))
    return attempted, len(reasons), reasons


def ipc_errors(sampled, full_ipc):
    """|IPC_sampled - IPC_full| / IPC_full per job. `sampled` maps job key
    -> sampled IPC; every key must have a full IPC."""
    return [abs(ipc - full_ipc[key]) / full_ipc[key] for key, ipc in sampled.items()]


def sample_ipc_err_pct(sampled, full_ipc):
    """Mean relative IPC error over jobs, in percent."""
    return 100.0 * statistics.mean(ipc_errors(sampled, full_ipc))


def self_times(spans):
    """Total and self seconds per span name. A span's self time is its
    duration minus the part of its interval its children cover (children
    on several threads are merged, so overlap is counted once)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    total, own = {}, {}
    for s in spans:
        dur = s["end"] - s["start"]
        covered = covered_time([(c["start"], c["end"]) for c in children.get(s["id"], [])])
        total[s["name"]] = total.get(s["name"], 0.0) + dur
        own[s["name"]] = own.get(s["name"], 0.0) + dur - covered
    return total, own


def covered_time(intervals):
    """Length of the union of (start, end) intervals."""
    length, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                length += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        length += cur_end - cur_start
    return length


# ----------------------------------------------------------------- processes


def build():
    """Builds the benchmark package; returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.environ["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise SystemExit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        raise SystemExit(f"perfbench: build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "svf-perfbench")


def work_dir():
    path = os.path.join(os.environ["CARGO_TARGET_DIR"], "perfbench-work")
    os.makedirs(path, exist_ok=True)
    return path


def run_binary(binary, args, log_path):
    """Runs the simulation binary to completion in its own process. Returns
    (parsed JSON output, host seconds, peak RSS in MB)."""
    started = time.monotonic()
    with open(log_path, "w") as out:
        proc = subprocess.Popen([binary] + args, stdout=out, stderr=sys.stderr)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {' '.join(args[:3])} exited with {proc.returncode}")
    with open(log_path) as f:
        return json.loads(f.read().strip().splitlines()[-1]), wall, usage.ru_maxrss / 1024.0


def fresh_dir(name):
    path = os.path.join(work_dir(), name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def variant(seed):
    """The input variant, 1..SEED_VARIANTS, a seed selects; the default
    seed selects itself."""
    return (seed - 1) % SEED_VARIANTS + 1


def load_reference(workload, seed):
    """The committed reference of (workload, variant(seed))."""
    with open(REFERENCE) as f:
        committed = json.load(f)[workload]
    key = DEFAULT_SEED if workload in SEEDLESS else variant(seed)
    ref = dict(committed["seeds"][str(key)])
    if "full_ipc" in committed:
        ref["full_ipc"] = committed["full_ipc"]
    return ref


def one_run(binary, workload, seed, tag):
    """One untraced user-style run in a fresh process and output directory."""
    out = fresh_dir(f"run-{tag}")
    result, wall, rss = run_binary(
        binary, ["run", "--workload", workload, "--seed", str(seed), "--out", out],
        os.path.join(work_dir(), f"run-{tag}.json"))
    shutil.rmtree(out, ignore_errors=True)
    return result, wall, rss


def git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                              text=True, timeout=10, cwd=HERE)
        return done.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


# ------------------------------------------------------------------- reports


def fmt(v):
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def describe(name, unit, values):
    q1, med, q3 = quartiles(values)
    return (f"  {name:<34} {fmt(med):>10} {unit:<8} "
            f"(q1 {fmt(q1)}, q3 {fmt(q3)}, spread {spread(values):.3f}, n={len(values)})")


def measured(binary, workload, seed, seconds, reference):
    """Untraced end-to-end runs for `seconds`; returns the result object."""
    setups = []
    walls, rates, rss, sampled_errs = [], [], [], []
    attempted = failed = 0
    started = time.monotonic()
    while True:
        elapsed = time.monotonic() - started
        if walls and (elapsed + max(walls) > DEADLINE_S or (
                len(walls) >= MIN_ITERATIONS
                and elapsed + statistics.mean(walls) / 2 >= seconds)):
            break
        # Set-up samples spread over the window, so that a slow or fast
        # phase of a shared host weighs on them as on the runs.
        for _ in range(SETUP_REPEATS):
            out, _, _ = run_binary(binary, ["setup", "--workload", workload, "--seed", str(seed)],
                                   os.path.join(work_dir(), "setup.json"))
            setups.append(out["setup_s"])
        out, wall, peak = one_run(binary, workload, seed, len(walls))
        threads = out["threads"]
        a, f, reasons = failed_jobs(out["jobs"], reference)
        attempted += a
        failed += f
        for r in reasons[:10]:
            log(f"FAILED {r}")
        walls.append(wall)
        rates.append(minst_per_s(out["jobs"], wall))
        rss.append(peak)
        setups.append(out["setup_s"])
        if "full_ipc" in reference:
            ipcs = {j["key"]: j["committed"] / j["cycles"] for j in out["jobs"] if j.get("ok")}
            sampled_errs.append(sample_ipc_err_pct(ipcs, reference["full_ipc"]))
    print(f"{workload}: {len(walls)} runs, input variant {seed}, thread budget {threads}")
    print(describe("wall_s", "s", walls))
    print(describe("sim_minst_per_s", "Minst/s", rates))
    print(describe("setup_s", "s", setups))
    print(describe("peak_rss_mb", "MB", rss))
    print(f"  {'failed_jobs_pct':<34} {100.0 * failed / attempted:>10.4g} %        "
          f"({failed} of {attempted} jobs)")
    if sampled_errs:
        print(describe("sample_ipc_err_pct", "%", sampled_errs))
    else:
        print(f"  {'sample_ipc_err_pct':<34} {'n/a':>10}          (only sampled-full samples)")
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "sim_minst_per_s": (statistics.median(rates), "Minst/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return failed == 0, attempted, failed, {name: metrics[name] for name in END_TO_END}


def traced(binary, workload, seed, reference):
    """One untraced run (for the harness counters and the coverage base)
    and one traced run; returns the result object."""
    base, base_wall, _ = one_run(binary, workload, seed, "untraced")
    attempted, failed, reasons = failed_jobs(base["jobs"], reference)
    out_dir = fresh_dir("trace")
    trace, trace_wall, _ = run_binary(
        binary, ["trace", "--workload", workload, "--seed", str(seed), "--out", out_dir],
        os.path.join(out_dir, "trace.json"))
    a, f, r = failed_jobs(trace["jobs"], reference)
    attempted, failed, reasons = attempted + a, failed + f, reasons + r
    counts = trace["counts"]
    attempted += counts["identity.checked"]
    failed += counts["identity.mismatches"]
    reasons += [f"{k}: solo, lockstep and fan-out results differ" for k in trace["identity_failures"]]
    for r in reasons[:20]:
        log(f"FAILED {r}")
    with open(os.path.join(out_dir, trace["spans"])) as f:
        spans = [json.loads(line) for line in f]
    total, own = self_times(spans)
    layers, notes = layer_metrics(workload, base, trace, spans, total, reference)
    # Share of the untraced wall the main pass's spans cover.
    main_root = next(s for s in spans if s["name"] == "workload")
    covered = covered_time([(s["start"], s["end"]) for s in spans if s["parent"] == main_root["id"]])
    layers["trace.coverage_pct"] = (100.0 * covered / base_wall, "%")
    layers["trace.overhead_s"] = (trace["main_s"] - base["run_s"], "s")

    print(f"{workload}: traced run, input variant {seed}, thread budget {base['threads']}; "
          f"untraced run {base['run_s']:.3f} s, "
          f"traced main pass {trace['main_s']:.3f} s")
    print(f"  spans written to {os.path.join(out_dir, trace['spans'])}")
    print("  span self times (s): " + ", ".join(
        f"{name} {own[name]:.3f}/{total[name]:.3f}" for name in sorted(total)))
    for name in sorted(layers):
        value, unit = layers[name]
        print(f"  {name:<34} {fmt(value):>10} {unit}")
    for name, why in notes:
        print(f"  {name:<34} {'n/a':>10}   {why}")
    print(f"  identity: {counts['identity.checked']} probed (kernel, config) pairs, "
          f"{counts['identity.mismatches']} mismatches")
    return failed == 0, attempted, failed, {name: layers[name] for name in PER_LAYER}


def layer_metrics(workload, base, trace, spans, total, reference):
    """Per-layer metrics from the traced run's spans and counters and the
    untraced run's harness report. Returns ({name: (value, unit)}, notes)."""
    c = trace["counts"]
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    m = {
        "minic.compile_s": (t("minic"), "s"),
        "minic.programs": (c["minic.programs"], "count"),
        "configspace.resolve_s": (t("configspace"), "s"),
        "configspace.configs": (c["configspace.configs"], "count"),
        "emu.ff_minst_per_s": (c["emu.insts"] / t("emu.ff") / 1e6, "Minst/s"),
        "emu.record_minst_per_s": (c["emu.record_insts"] / t("emu.record") / 1e6, "Minst/s"),
        "emu.insts": (c["emu.insts"], "count"),
        "cpu.pipeline.minst_per_s": (c["pipeline.committed"] / t("cpu.pipeline") / 1e6, "Minst/s"),
        "cpu.pipeline.busy_s": (t("cpu.pipeline"), "s"),
        "cpu.pipeline.cycles": (c["pipeline.cycles"], "count"),
        "cpu.pipeline.committed": (c["pipeline.committed"], "count"),
        "cpu.lockstep.share_ratio": (t("cpu.lockstep.serial") / t("cpu.pipeline"), "ratio"),
        "cpu.lockstep.fanout_speedup": (t("cpu.lockstep.serial") / t("cpu.lockstep.fanout"), "x"),
        "cpu.lockstep.batch_width": (c["lockstep.batch_width"], "count"),
        "mem.probe_macc_per_s": (c["mem.accesses"] / t("mem") / 1e6, "Macc/s"),
        "mem.dl1_miss_pct": (100.0 * c["dl1.misses"] / c["dl1.accesses"], "%"),
        "mem.l2_accesses": (c["l2.accesses"], "count"),
        "svf.probe_macc_per_s": (c["svf.calls"] / t("svf") / 1e6, "Macc/s"),
        "svf.squashes": (c["svf.squashes"], "count"),
        "svf.morphed_pct": (100.0 * c["svf.morphed"] / c["svf.stack_refs"], "%"),
        "harness.jobs": (len(base["jobs"]), "count"),
        "harness.batches": (base["batches"], "count"),
        "harness.compiles": (base["compiles"], "count"),
        "harness.retried": (retried(base["summary"]), "count"),
        "harness.resumed": (sum(1 for j in base["jobs"] if j.get("resumed")), "count"),
    }
    notes = []
    for width, row in sorted(trace["pipeline_by_width"].items(), key=lambda kv: int(kv[0])):
        m[f"cpu.pipeline.minst_per_s.w{width}"] = (row["committed"] / row["seconds"] / 1e6,
                                                   "Minst/s")
    for width in (4, 8, 16):
        if f"cpu.pipeline.minst_per_s.w{width}" not in m:
            notes.append((f"cpu.pipeline.minst_per_s.w{width}",
                          f"no {width}-wide machine in {workload}"))
    if "worker_util" in base:
        m["harness.worker_util"] = (base["worker_util"], "ratio")
    else:
        notes.append(("harness.worker_util", "one lockstep group: no job-level parallelism"))
    # Sampling: busy time of the run_sampled spans, minus record-free
    # emulation of the same kernels.
    sampled_kernels = {s["attr"] for s in spans if s["name"] == "cpu.sampling"}
    ff = sum(s["end"] - s["start"] for s in spans
             if s["name"] == "emu.ff" and s["attr"] in sampled_kernels)
    # The exact IPCs come from the main pass where it ran in full detail,
    # else from the reference.
    sampled = {s["key"]: s["ipc"] for s in trace["sampled"]}
    full = {s["key"]: s["full_ipc"] if s["full_ipc"] is not None
            else reference["full_ipc"][s["key"]] for s in trace["sampled"]}
    errs = ipc_errors(sampled, full)
    m["cpu.sampling.busy_s"] = (t("cpu.sampling"), "s")
    m["cpu.sampling.overhead_s"] = (t("cpu.sampling") - ff, "s")
    m["cpu.sampling.detailed_pct"] = (100.0 * c["sampling.detailed"] / c["sampling.total"], "%")
    m["cpu.sampling.intervals"] = (c["sampling.intervals"], "count")
    m["cpu.sampling.ipc_err_max_pct"] = (100.0 * max(errs), "%")
    m["cpu.sampling.ipc_err_mean_pct"] = (sample_ipc_err_pct(sampled, full), "%")
    if workload != "sampled-full":
        notes.append(("cpu.sampling.*", "probe: the benchmark's sample plan on the probe "
                      "kernels; the workload itself runs in full detail"))
    return m, notes


def retried(summary):
    """Retried-job count from the harness summary line (`(N retried)`)."""
    words = summary.replace("(", " ").split()
    for i, w in enumerate(words[1:], 1):
        if w.startswith("retried"):
            return int(words[i - 1])
    return 0


# ---------------------------------------------------------------------- main


def write_reference(binary):
    """Recomputes every committed reference through the reference path."""
    doc = {}
    for workload in WORKLOADS:
        seeds = [DEFAULT_SEED] if workload in SEEDLESS else range(1, SEED_VARIANTS + 1)
        doc[workload] = {"seeds": {}}
        for seed in seeds:
            log(f"reference: {workload} seed {seed}")
            args = ["--workload", workload, "--seed", str(seed)]
            log_path = os.path.join(work_dir(), f"reference-{workload}.json")
            doc[workload]["seeds"][str(seed)], _, _ = run_binary(
                binary, ["reference"] + args, log_path)
        if workload == "sampled-full":
            full, _, _ = run_binary(
                binary, ["full-ipc", "--workload", workload, "--seed", str(DEFAULT_SEED)], log_path)
            doc[workload].update(full)
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {REFERENCE}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    binary = build()
    if args.write_reference:
        write_reference(binary)
        return
    seed = variant(args.seed)
    print(f"host: {os.cpu_count()} logical cores, rev {git_rev()}, "
          f"seed {args.seed} (input variant {seed})")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        reference = load_reference(workload, seed)
        if args.trace:
            correct, attempted, failed, metrics = traced(binary, workload, seed, reference)
        else:
            correct, attempted, failed, metrics = measured(
                binary, workload, seed, args.seconds, reference)
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }), flush=True)


if __name__ == "__main__":
    main()
