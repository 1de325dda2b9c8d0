//! Simulation side of the repository benchmark. `run.py` in this directory
//! drives it, one process per measured run:
//!
//! ```text
//! perfbench run       --workload W --seed N --out DIR   # one untraced user-style run
//! perfbench setup     --workload W --seed N             # set-up only
//! perfbench reference --workload W --seed N             # per-job digests
//! perfbench full-ipc  --workload W --seed N             # full-detail IPC per job
//! perfbench trace     --workload W --seed N --out DIR   # traced run: spans + per-layer metrics
//! ```
//!
//! Each prints one JSON object on stdout.

#![forbid(unsafe_code)]

mod bench;
mod json;
mod trace;

use std::path::PathBuf;

use bench::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn dispatch(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let mut workload = None;
    let mut seed: Option<i64> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let out = || out.clone().ok_or_else(|| format!("{cmd} needs --out"));
    match cmd.as_str() {
        "run" => bench::run(workload, seed, &out()?),
        "setup" => bench::setup_only(workload, seed),
        "reference" => bench::reference(workload, seed),
        "full-ipc" => bench::full_ipc(workload, seed),
        "trace" => trace::run(workload, seed, &out()?),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}
