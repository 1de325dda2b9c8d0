//! Ablation studies beyond the paper's figures.
//!
//! The paper fixes several design parameters (8 KB capacity, the §3.2
//! squash recovery, compiler quality). These runners vary them:
//!
//! * [`size_sweep`] — SVF capacity 1/2/4/8/16 KB vs performance: where the
//!   window starts missing the working set (the paper only sweeps sizes
//!   for *traffic*, Table 3).
//! * [`squash_sensitivity`] — how the squash recovery penalty changes the
//!   eon-style outlier (the paper's §3.2 recovery cost is unspecified).
//! * [`code_quality`] — the same kernels compiled with and without
//!   register promotion: how much of the SVF's benefit survives a better
//!   compiler (the classic critique of stack-oriented hardware).

use crate::geomean;
use crate::machine::{machine, machine_with};
use crate::runner::{matrix, matrix_for, run_rows, speedup_table};
use crate::table::ExpTable;
use svf_cpu::CpuConfig;
use svf_harness::{Experiment, Harness, ProgramSpec};
use svf_workloads::{all, Scale};

fn svf_cfg(capacity: u64) -> CpuConfig {
    machine_with("svf", &format!("{{svf_bytes: {capacity}}}"))
}

/// SVF capacity sweep: speedup over the `(2+0)` baseline per size.
#[must_use]
pub fn size_sweep(h: &Harness, scale: Scale) -> ExpTable {
    let sizes = [1u64 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10];
    let headers = ["1KB", "2KB", "4KB", "8KB", "16KB"];
    let labels: Vec<String> = sizes.iter().map(|&s| format!("SVF {}KB", s >> 10)).collect();
    let mut configs = vec![("base (2+0)", machine("base"))];
    configs.extend(labels.iter().zip(&sizes).map(|(l, &s)| (l.as_str(), svf_cfg(s))));
    let columns: Vec<(&str, usize, usize)> =
        headers.iter().enumerate().map(|(col, &h)| (h, col + 1, 0)).collect();
    let mut t = speedup_table(
        "Ablation: SVF capacity vs speedup (16-wide, 2+2)",
        &matrix(h, "ablation-size", &configs, scale),
        &columns,
    );
    t.note("the deep-stack kernels (gcc, parser, crafty) need capacity; flat kernels saturate early");
    t
}

/// Squash-penalty sensitivity on the squash-prone kernels.
#[must_use]
pub fn squash_sensitivity(h: &Harness, scale: Scale) -> ExpTable {
    let penalties = [5u64, 10, 15, 25, 40];
    let mut t = ExpTable::new(
        "Ablation: §3.2 squash recovery penalty (SVF 2+2, speedup over 2+0)",
        &["bench", "5 cyc", "10 cyc", "15 cyc", "25 cyc", "40 cyc", "no_squash"],
    );
    let labels: Vec<String> = penalties.iter().map(|p| format!("SVF {p} cyc")).collect();
    let mut configs = vec![("base (2+0)", machine("base"))];
    configs.extend(labels.iter().zip(&penalties).map(|(l, &p)| {
        (l.as_str(), machine_with("svf", &format!("{{squash_penalty: {p}}}")))
    }));
    configs.push(("SVF no_squash", machine("svf-nosquash")));
    let benches = ["eon", "twolf", "vortex", "gcc"];
    for (bench, stats) in matrix_for(h, "ablation-squash", &configs, scale, &benches) {
        let base = &stats[0];
        let mut cells = vec![bench];
        cells.extend(stats.iter().skip(1).map(|s| format!("{:.3}x", s.speedup_over(base))));
        t.row(cells);
    }
    t.note("eon degrades with the penalty; kernels without gpr-store/sp-load collisions are flat");
    t
}

/// Code-quality ablation: SVF benefit with the optimizing vs the naive
/// (spill-everything) code generator.
#[must_use]
pub fn code_quality(h: &Harness, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "Ablation: compiler quality vs SVF benefit (16-wide)",
        &["bench", "regalloc speedup", "naive speedup", "regalloc stack/inst", "naive stack/inst"],
    );
    // Four jobs per workload: {optimized, naive} source x {base, SVF}.
    // The sources are ad-hoc (not registry kernels), so the jobs carry the
    // MiniC text itself and compile on the worker.
    let base_cfg = machine("base");
    let mut exp = Experiment::new("ablation-codegen");
    for w in all() {
        let src = w.source(scale);
        let opt = ProgramSpec::source_with(w.name, src.clone(), true);
        let naive = ProgramSpec::source_with(&format!("{}-naive", w.name), src, false);
        exp.push(opt.clone(), "base (2+0)", base_cfg.clone());
        exp.push(opt, "SVF (2+2)", svf_cfg(8 << 10));
        exp.push(naive.clone(), "base (2+0)", base_cfg.clone());
        exp.push(naive, "SVF (2+2)", svf_cfg(8 << 10));
    }
    let mut opt_s = Vec::new();
    let mut naive_s = Vec::new();
    for (bench, stats) in run_rows(h, &exp, 4) {
        let mut cells = vec![bench];
        let mut densities = Vec::new();
        let mut speeds = Vec::new();
        for pair in stats.chunks(2) {
            let (base, svf) = (&pair[0], &pair[1]);
            speeds.push(svf.speedup_over(base));
            densities.push(svf.stack_refs as f64 / svf.committed.max(1) as f64);
        }
        opt_s.push(speeds[0]);
        naive_s.push(speeds[1]);
        cells.push(format!("{:.3}x", speeds[0]));
        cells.push(format!("{:.3}x", speeds[1]));
        cells.push(format!("{:.3}", densities[0]));
        cells.push(format!("{:.3}", densities[1]));
        t.row(cells);
    }
    t.row(vec![
        "average".to_string(),
        format!("{:.3}x", geomean(&opt_s)),
        format!("{:.3}x", geomean(&naive_s)),
        String::new(),
        String::new(),
    ]);
    t.note("naive code carries far more stack references; the SVF's benefit is largest there");
    t.note("with register promotion a substantial benefit remains — the paper's claim is robust");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn size_sweep_monotone_for_deep_kernels() {
        let t = size_sweep(&Harness::parallel(), Scale::Test);
        // gcc's stack exceeds small windows. Window misses are mostly off
        // the critical path (spills are background traffic), so capacity
        // shifts performance only slightly — but it must never *cost*
        // beyond noise, and the flat kernels must be entirely insensitive.
        let s1 = t.cell_f64("gcc", "1KB").expect("gcc");
        let s8 = t.cell_f64("gcc", "8KB").expect("gcc");
        assert!(s8 >= s1 - 0.02, "bigger window must not hurt the deep kernel: {s1} -> {s8}");
        for bench in ["gzip", "eon", "vpr"] {
            let a = t.cell_f64(bench, "1KB").expect("row");
            let b = t.cell_f64(bench, "8KB").expect("row");
            assert!(
                (a - b).abs() < 0.02,
                "{bench} fits any window; size must not matter: {a} vs {b}"
            );
        }
    }

    #[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
    #[test]
    fn code_quality_keeps_benefit() {
        let t = code_quality(&Harness::parallel(), Scale::Test);
        let opt = t.cell_f64("average", "regalloc speedup").expect("avg");
        let naive = t.cell_f64("average", "naive speedup").expect("avg");
        assert!(opt > 1.0, "benefit survives a better compiler: {opt}");
        assert!(naive > 1.0, "{naive}");
    }
}
