//! Sweep-driver integration: spec → jobs → lockstep execution → Pareto
//! frontier → CSV emission, and resume through the harness's result store.
//!
//! Every test runs on its own harness, whose session owns its compile
//! cache, so the compile counts below are exact while tests run
//! concurrently.

use std::fs;
use std::path::PathBuf;

use svf_configspace::SweepSpec;
use svf_harness::sweep::{frontier_of, run_sweep, write_csv};
use svf_harness::Harness;

fn tmp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("svf-harness-sweep-{tag}-{}", std::process::id()))
}

/// Checks a CSV body: non-empty, every row has the header's column count.
fn assert_well_formed_csv(path: &std::path::Path, min_rows: usize) {
    let text = fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{} readable: {e}", path.display()));
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_else(|| panic!("{} has a header", path.display()));
    let cols = header.split(',').count();
    let mut rows = 0;
    for line in lines {
        assert_eq!(
            line.split(',').count(),
            cols,
            "{}: ragged row {line:?} under header {header:?}",
            path.display()
        );
        rows += 1;
    }
    assert!(rows >= min_rows, "{}: {rows} rows < {min_rows}", path.display());
}

#[test]
fn grid_sweep_runs_and_emits_csv() {
    let spec = SweepSpec::from_toml(
        "name = \"smoke\"\n\
         base = \"svf\"\n\
         workload = \"mcf\"\n\
         [axes]\n\
         svf_bytes = [2k, 8k]\n\
         stack_ports = [1, 2]\n",
    )
    .expect("spec parses");
    let outcome = run_sweep(&spec, &Harness::parallel()).expect("sweep runs");
    assert_eq!(outcome.points.len(), 4);
    assert_eq!(outcome.jobs, 4);
    assert_eq!(outcome.compiles, 1, "one workload, one compile");
    assert!(outcome.summary.contains("compiles=1"), "{}", outcome.summary);
    assert!(!outcome.frontier.is_empty());
    for &i in &outcome.frontier {
        assert_eq!(outcome.points[i].cost_bytes, outcome.points[i].config.svf_bytes);
    }

    let dir = tmp_root("grid");
    let (points_csv, pareto_csv) = write_csv(&spec, &outcome, &dir).expect("csv written");
    assert_well_formed_csv(&points_csv, 4);
    assert_well_formed_csv(&pareto_csv, 1);
    let pareto = fs::read_to_string(&pareto_csv).expect("pareto readable");
    assert!(
        pareto.starts_with("point,svf_bytes,stack_ports,ipc,cost_bytes\n"),
        "axis columns in spec order: {pareto}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn pareto_search_stays_inside_the_lattice_and_converges() {
    let spec = SweepSpec::from_toml(
        "name = \"pareto-smoke\"\n\
         mode = \"pareto\"\n\
         base = \"svf\"\n\
         workload = \"gzip\"\n\
         samples = 2\n\
         rounds = 3\n\
         [axes]\n\
         svf_bytes = [1k, 2k, 4k, 8k]\n\
         ruu_size = [128, 256]\n",
    )
    .expect("spec parses");
    let outcome = run_sweep(&spec, &Harness::parallel()).expect("sweep runs");
    assert!(outcome.points.len() <= 8, "never exceeds the lattice");
    assert!(outcome.points.len() >= 2, "at least the two corners");
    let mut seen = std::collections::HashSet::new();
    for p in &outcome.points {
        assert!(seen.insert(p.index.clone()), "no point evaluated twice: {:?}", p.index);
    }
    // The frontier is internally consistent: computed over the evaluated
    // set, no member dominated by any evaluated point.
    assert_eq!(outcome.frontier, frontier_of(&outcome.points));
    for &f in &outcome.frontier {
        for p in &outcome.points {
            let strictly_better = p.ipc() > outcome.points[f].ipc()
                && p.cost_bytes < outcome.points[f].cost_bytes;
            assert!(!strictly_better, "frontier member dominated");
        }
    }
}

#[test]
fn sweep_failures_are_reported_not_panicked() {
    let spec = SweepSpec::from_toml(
        "name = \"missing\"\n\
         workload = \"no-such-kernel\"\n\
         [axes]\n\
         ruu_size = [64]\n",
    )
    .expect("spec parses (workload names are validated at run time)");
    let err = run_sweep(&spec, &Harness::parallel()).expect_err("unknown workload fails");
    assert!(err.contains("no-such-kernel"), "{err}");
}

#[test]
fn rerun_after_an_axis_change_matches_a_fresh_run() {
    // A sweep rerun into the same output directory after its axis values
    // changed reuses every job key (`<id>-mcf-p<i>`), but none of the
    // stored results: they describe other configurations.
    let spec = |values: &str| {
        SweepSpec::from_toml(&format!(
            "name = \"stale\"\nbase = \"svf\"\nworkload = \"mcf\"\n[axes]\nsvf_bytes = [{values}]\n"
        ))
        .expect("spec parses")
    };
    let root = tmp_root("stale");
    fs::remove_dir_all(&root).ok();
    let harness = Harness::parallel().with_out_dir(root.join("runs"));
    let first = run_sweep(&spec("1k, 8k"), &harness).expect("first sweep runs");
    assert_eq!(first.resumed, 0);

    let changed = spec("64, 128");
    let rerun = run_sweep(&changed, &harness).expect("rerun runs");
    assert_eq!(rerun.resumed, 0, "stale results re-simulate: {}", rerun.summary);
    let fresh = run_sweep(&changed, &Harness::parallel()).expect("fresh sweep runs");
    let (rerun_csv, _) = write_csv(&changed, &rerun, &root.join("rerun")).expect("csv");
    let (fresh_csv, _) = write_csv(&changed, &fresh, &root.join("fresh")).expect("csv");
    assert_eq!(
        fs::read_to_string(&rerun_csv).expect("rerun points"),
        fs::read_to_string(&fresh_csv).expect("fresh points"),
        "points.csv of the rerun equals a fresh run's"
    );

    // The rerun repaired the store: a third run resumes every point.
    let third = run_sweep(&changed, &harness).expect("third sweep runs");
    assert_eq!(third.resumed, 2, "{}", third.summary);
    assert!(third.summary.contains("resumed=2"), "{}", third.summary);
    fs::remove_dir_all(&root).ok();
}

/// The ISSUE acceptance gate: a 1000+ configuration sweep over one workload
/// performs exactly one compile, rides lockstep groups, and emits a valid
/// Pareto frontier CSV. Timing-heavy (1080 cycle simulations), so
/// release-only like the figure-shape tests.
#[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
#[test]
fn thousand_config_sweep_compiles_once() {
    let spec = SweepSpec::from_toml(
        "name = \"thousand\"\n\
         base = \"svf\"\n\
         workload = \"bzip2\"\n\
         max_points = 2048\n\
         [axes]\n\
         width = [8, 16]\n\
         ifq_size = [16, 32, 64]\n\
         ruu_size = [64, 96, 128, 192, 256]\n\
         lsq_size = [32, 64, 128]\n\
         svf_bytes = [1k, 2k, 4k, 8k]\n\
         stack_ports = [1, 2, 4]\n",
    )
    .expect("spec parses");
    assert_eq!(spec.lattice_size(), 1080, "the gate wants 1000+ configurations");

    let outcome = run_sweep(&spec, &Harness::parallel()).expect("sweep runs");
    assert_eq!(outcome.points.len(), 1080);
    assert_eq!(outcome.jobs, 1080);
    assert_eq!(outcome.compiles, 1, "1080 configurations share one compile of the workload");
    assert!(outcome.summary.contains("compiles=1"), "{}", outcome.summary);
    assert!(!outcome.frontier.is_empty());

    let dir = tmp_root("thousand");
    let (points_csv, pareto_csv) = write_csv(&spec, &outcome, &dir).expect("csv written");
    assert_well_formed_csv(&points_csv, 1080);
    assert_well_formed_csv(&pareto_csv, 1);
    fs::remove_dir_all(&dir).ok();
}
