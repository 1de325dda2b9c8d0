//! End-to-end checks of the `svf-experiments` binary: the harness the CLI
//! builds from `--threads`/`--out` must reach the drivers, and flag
//! combinations the drivers would silently ignore are rejected.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn svf_experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_svf-experiments"))
        .args(args)
        .output()
        .expect("svf-experiments runs")
}

fn ok(out: &Output) -> &[u8] {
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {err}", out.status);
    &out.stdout
}

/// A fresh scratch directory per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("svf-exp-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn out_dir_stores_every_job_and_a_rerun_resumes_them() {
    let dir = Scratch::new("resume");
    let out = dir.path().to_str().expect("utf-8 path");
    let args = ["partial-word", "--scale", "test", "--threads", "2", "--out", out];
    let first = svf_experiments(&args);
    let stored = std::fs::read_dir(dir.path().join("partial-word"))
        .expect("the --out store exists")
        .filter(|e| e.as_ref().expect("entry").path().extension().is_some_and(|x| x == "csv"))
        .count();
    assert_eq!(stored, 2, "one result file per job (base and SVF)");
    let rerun = svf_experiments(&args);
    let progress = String::from_utf8_lossy(&rerun.stderr);
    assert!(progress.contains("(2 resumed)"), "the rerun resumes both jobs: {progress}");
    assert_eq!(ok(&first), ok(&rerun), "a resumed table is byte-identical");
}

#[test]
fn thread_count_does_not_change_a_functional_figure() {
    let one = svf_experiments(&["fig1", "--scale", "test", "--threads", "1"]);
    let three = svf_experiments(&["fig1", "--scale", "test", "--threads", "3"]);
    assert!(!ok(&one).is_empty());
    assert_eq!(ok(&one), ok(&three));
}

#[test]
fn sweep_rejects_scale_flag() {
    let dir = Scratch::new("sweep-scale");
    let spec = dir.path().join("sweep.toml");
    std::fs::write(
        &spec,
        "name = \"scale-flag\"\nbase = \"svf\"\nworkload = \"mcf\"\n[axes]\nstack_ports = [1, 2]\n",
    )
    .expect("spec written");
    let out = svf_experiments(&["--sweep", spec.to_str().expect("utf-8 path"), "--scale", "full"]);
    assert_eq!(out.status.code(), Some(2), "a usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--sweep takes its scale from the spec file"), "{err}");
    assert!(out.stdout.is_empty(), "nothing ran");
}
