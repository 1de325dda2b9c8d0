//! Shared timing-run helpers for the performance figures.
//!
//! Everything that sweeps a matrix of configurations goes through
//! [`matrix`]/[`matrix_for`], which expand to an
//! [`Experiment`](svf_harness::Experiment) and execute it on the
//! [`Harness`] the caller passes in — the CLI builds one harness, so
//! `--threads`/`--out` reach every figure through it. [`speedup_table`]
//! renders such a matrix the way Figures 5–7, 9 and the capacity ablation
//! present it.

use crate::geomean;
use crate::table::ExpTable;
use svf_cpu::{CpuConfig, SimStats};
use svf_harness::{Experiment, Harness};
use svf_workloads::Scale;

/// Executes an already-built experiment on `h` and reassembles it into
/// `(bench, stats-per-config)` rows.
///
/// # Panics
///
/// Panics with the full failure list if any job fails — the historical
/// contract of the serial runners, which aborted on the first failure.
#[must_use]
pub fn run_rows(
    h: &Harness,
    exp: &Experiment,
    configs_per_row: usize,
) -> Vec<(String, Vec<SimStats>)> {
    h.run(exp)
        .rows(configs_per_row)
        .into_iter()
        .map(|(bench, stats)| (bench, stats.into_iter().cloned().collect()))
        .collect()
}

/// Runs a set of labelled configurations over every workload, returning
/// `(bench, Vec<SimStats in config order>)` rows.
///
/// `name` names the experiment's run directory when a result sink is
/// configured, so it must be stable per figure.
///
/// # Panics
///
/// Panics if any job fails (compile error or diverging simulation).
#[must_use]
pub fn matrix(
    h: &Harness,
    name: &str,
    configs: &[(&str, CpuConfig)],
    scale: Scale,
) -> Vec<(String, Vec<SimStats>)> {
    run_rows(h, &Experiment::matrix(name, configs, scale), configs.len())
}

/// [`matrix`] restricted to a subset of benchmarks (rows keep the registry
/// order of `svf_workloads::all`, not the order of `benches`).
///
/// # Panics
///
/// Panics if any job fails.
#[must_use]
pub fn matrix_for(
    h: &Harness,
    name: &str,
    configs: &[(&str, CpuConfig)],
    scale: Scale,
    benches: &[&str],
) -> Vec<(String, Vec<SimStats>)> {
    run_rows(h, &Experiment::matrix_for(name, configs, scale, benches), configs.len())
}

/// Renders matrix rows as a speedup table: one `bench` row per workload and
/// a geometric-mean `average` row. Each `(header, config, baseline)` entry
/// of `columns` is one column: the speedup of config index `config` over
/// config index `baseline` of the same row.
#[must_use]
pub fn speedup_table(
    title: &str,
    rows: &[(String, Vec<SimStats>)],
    columns: &[(&str, usize, usize)],
) -> ExpTable {
    let headers: Vec<&str> =
        std::iter::once("bench").chain(columns.iter().map(|&(h, _, _)| h)).collect();
    let mut t = ExpTable::new(title, &headers);
    let mut per_col: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for (bench, stats) in rows {
        let mut cells = vec![bench.clone()];
        for (col, &(_, cfg, base)) in per_col.iter_mut().zip(columns) {
            let s = stats[cfg].speedup_over(&stats[base]);
            col.push(s);
            cells.push(format!("{s:.3}x"));
        }
        t.row(cells);
    }
    t.row(
        std::iter::once("average".to_string())
            .chain(per_col.iter().map(|col| format!("{:.3}x", geomean(col))))
            .collect(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_cpu::Simulator;
    use svf_workloads::workload;

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn matrix_rows_match_direct_runs() {
        let configs = [("4-wide", CpuConfig::wide4()), ("8-wide", CpuConfig::wide8())];
        let rows = matrix(&Harness::parallel(), "runner-test", &configs, Scale::Test);
        assert_eq!(rows.len(), svf_workloads::all().len());
        let (bench, stats) = &rows[0];
        let program = workload(bench).expect("exists").compile(Scale::Test).expect("compiles");
        for ((_, cfg), got) in configs.iter().zip(stats) {
            assert_eq!(got.cycles, Simulator::new(cfg.clone()).run(&program, u64::MAX).cycles);
        }
    }

    #[test]
    fn speedup_table_pairs_each_column_with_its_baseline() {
        let stats = |cycles: &[u64]| -> Vec<SimStats> {
            cycles.iter().map(|&c| SimStats { cycles: c, ..SimStats::default() }).collect()
        };
        let rows = vec![
            ("a".to_string(), stats(&[100, 50, 200, 100])),
            ("b".to_string(), stats(&[100, 200, 200, 400])),
        ];
        let t = speedup_table("demo", &rows, &[("x", 1, 0), ("y", 3, 2)]);
        assert_eq!(t.headers, ["bench", "x", "y"]);
        assert_eq!(t.cell("a", "x"), Some("2.000x"));
        assert_eq!(t.cell("b", "y"), Some("0.500x"));
        assert_eq!(t.cell("average", "x"), Some("1.000x"), "geometric mean of 2x and 0.5x");
    }
}
