//! Figure 2: stack depth variation over time.
//!
//! The paper plots the TOS depth (in 64-bit units) against execution time
//! for representative benchmarks, observing that (a) most applications stay
//! under 1000 quad-words and (b) depth is stable after initialization. We
//! render each workload's depth series as summary statistics plus a coarse
//! text sparkline over ten epochs of the run.

use crate::characterize::characterize_all;
use crate::table::ExpTable;
use svf_harness::Harness;
use svf_workloads::Scale;

const EPOCHS: usize = 10;

/// Runs the Figure 2 depth tracking over all workloads.
#[must_use]
pub fn run(h: &Harness, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "Figure 2: Stack Depth Variation (depth in 64-bit units)",
        &["bench", "max", "mean", "epoch depths (10 slices of the run)"],
    );
    for (name, st) in characterize_all(h, scale) {
        let samples = &st.depth_samples;
        if samples.is_empty() {
            t.row(vec![name.into(), "0".into(), "0".into(), String::new()]);
            continue;
        }
        let max = samples.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let mean = samples.iter().map(|&(_, d)| d).sum::<u64>() as f64 / samples.len() as f64;
        let last_inst = samples.last().map_or(1, |&(i, _)| i.max(1));
        let mut epoch_max = [0u64; EPOCHS];
        for &(inst, d) in samples {
            let e = ((inst * EPOCHS as u64) / (last_inst + 1)) as usize;
            epoch_max[e.min(EPOCHS - 1)] = epoch_max[e.min(EPOCHS - 1)].max(d);
        }
        let spark: Vec<String> = epoch_max.iter().map(ToString::to_string).collect();
        t.row(vec![
            name.into(),
            max.to_string(),
            format!("{mean:.0}"),
            spark.join(" "),
        ]);
    }
    t.note("paper: a 1000-unit (8KB) structure exceeds the maximum depth of most applications");
    t.note("gcc is the intentional exception (deep recursion, large frames)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_workloads::all;

    #[test]
    fn most_workloads_fit_in_1000_units() {
        let t = run(&Harness::parallel(), Scale::Test);
        let mut within = 0;
        let mut total = 0;
        for w in all() {
            let max = t.cell_f64(w.name, "max").expect("row");
            total += 1;
            if max <= 1000.0 {
                within += 1;
            }
        }
        assert!(
            within >= total - 3,
            "most kernels stay under 1000 quad-words ({within}/{total})"
        );
        // And gcc intentionally exceeds the 8KB window.
        let gcc = t.cell_f64("gcc", "max").expect("gcc");
        assert!(gcc > 1024.0, "gcc must exceed 1024 units, got {gcc}");
    }

    #[test]
    fn depth_is_stable_after_startup() {
        // For the flat kernels, late-epoch depth equals earlier-epoch depth.
        let t = run(&Harness::parallel(), Scale::Test);
        let spark = t.cell("gzip", "epoch depths (10 slices of the run)").expect("gzip");
        let vals: Vec<u64> = spark.split_whitespace().map(|v| v.parse().unwrap()).collect();
        assert_eq!(vals.len(), 10);
        let tail: Vec<_> = vals[5..].to_vec();
        let spread = tail.iter().max().unwrap() - tail.iter().min().unwrap();
        assert!(spread <= 64, "gzip depth should be flat late in the run: {tail:?}");
    }
}
