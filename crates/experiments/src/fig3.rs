//! Figure 3: offset locality within a function.
//!
//! The paper shows the cumulative distribution of stack-reference offsets
//! from the TOS (log-scale x-axis): nearly all references land within 8 KB,
//! justifying a small contiguous SVF. We report the CDF at the interesting
//! byte thresholds plus the average distance.

use crate::characterize::characterize_all;
use crate::table::ExpTable;
use svf_harness::Harness;
use svf_workloads::Scale;

/// Byte thresholds reported in the CDF columns.
pub const THRESHOLDS: [u64; 6] = [64, 256, 1024, 2048, 4096, 8192];

/// Runs the Figure 3 offset-locality analysis over all workloads.
#[must_use]
pub fn run(h: &Harness, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "Figure 3: Offset Locality — CDF of distance from TOS",
        &["bench", "<64B", "<256B", "<1KB", "<2KB", "<4KB", "<8KB", "avg dist (B)"],
    );
    for (name, st) in characterize_all(h, scale) {
        let mut cells = vec![name.to_string()];
        for thr in THRESHOLDS {
            cells.push(format!("{:.1}%", 100.0 * st.frac_within(thr)));
        }
        cells.push(format!("{:.0}", st.avg_offset()));
        t.row(cells);
    }
    t.note("paper: >99% of references within 8KB of TOS for all benchmarks except gcc");
    t.note("paper: average distance ranges from 2.5B (bzip2) to 380B (gcc)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_workloads::all;

    #[test]
    fn almost_all_refs_within_8kb() {
        let t = run(&Harness::parallel(), Scale::Test);
        for w in all() {
            if w.name == "gcc" {
                continue; // the paper's own exception
            }
            let f = t.cell_f64(w.name, "<8KB").expect("row");
            assert!(f > 95.0, "{}: {f}% within 8KB", w.name);
        }
    }

    #[test]
    fn gcc_has_the_largest_average_distance() {
        let t = run(&Harness::parallel(), Scale::Test);
        let gcc = t.cell_f64("gcc", "avg dist (B)").expect("gcc");
        for bench in ["bzip2", "gzip", "mcf", "vpr", "twolf"] {
            let other = t.cell_f64(bench, "avg dist (B)").expect("row");
            assert!(gcc > other, "gcc avg ({gcc}) must exceed {bench} ({other})");
        }
    }
}
