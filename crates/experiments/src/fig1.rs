//! Figure 1: run-time memory access distribution by region and method.
//!
//! The paper reports, per benchmark, the breakdown of memory references
//! into stack (`$sp` / `$fp` / `$gpr` addressed), global and heap, plus the
//! fraction of all instructions that are memory accesses.

use crate::characterize::characterize_all;
use crate::table::ExpTable;
use svf_harness::Harness;
use svf_workloads::{all, Scale};

/// Runs the Figure 1 characterization over all workloads.
#[must_use]
pub fn run(h: &Harness, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "Figure 1: Run-time Memory Access Distribution",
        &["bench", "mem/inst", "stack", "stack-$sp", "stack-$fp", "stack-$gpr", "global", "heap"],
    );
    let mut sums = [0.0f64; 7];
    for (name, st) in characterize_all(h, scale) {
        let total = st.mem_refs.max(1) as f64;
        let vals = [
            st.mem_frac(),
            st.stack_frac(),
            st.stack_sp as f64 / total,
            st.stack_fp as f64 / total,
            st.stack_gpr as f64 / total,
            st.global as f64 / total,
            st.heap as f64 / total,
        ];
        for (s, v) in sums.iter_mut().zip(vals) {
            *s += v;
        }
        t.row(
            std::iter::once(name.to_string())
                .chain(vals.iter().map(|v| format!("{:.1}%", 100.0 * v)))
                .collect(),
        );
    }
    let n = all().len() as f64;
    t.row(
        std::iter::once("average".to_string())
            .chain(sums.iter().map(|s| format!("{:.1}%", 100.0 * s / n)))
            .collect(),
    );
    t.note("stack/global/heap are fractions of all memory references");
    t.note("paper: memory ≈ 42% of instructions; stack ≈ 56% of references, $sp ≈ 82% of stack");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_dominates_and_sp_is_main_method() {
        let t = run(&Harness::parallel(), Scale::Test);
        let avg_stack = t.cell_f64("average", "stack").expect("average row");
        assert!(avg_stack > 50.0, "stack refs dominate on average: {avg_stack}%");
        let sp = t.cell_f64("average", "stack-$sp").expect("sp col");
        let fp = t.cell_f64("average", "stack-$fp").expect("fp col");
        let gpr = t.cell_f64("average", "stack-$gpr").expect("gpr col");
        assert!(sp > fp && sp > gpr, "$sp is the dominant method: {sp} vs {fp}/{gpr}");
    }

    #[test]
    fn eon_is_the_gpr_outlier() {
        // Paper: "252.eon is the single exception: over 45% of its stack
        // accesses are performed using a $gpr" — ours is the most
        // gpr-inclined of the pointer-heavy kernels.
        let t = run(&Harness::parallel(), Scale::Test);
        let eon_gpr = t.cell_f64("eon", "stack-$gpr").expect("eon row");
        for bench in ["gap", "mcf", "twolf", "vpr", "vortex"] {
            let other = t.cell_f64(bench, "stack-$gpr").expect("row");
            assert!(eon_gpr > other, "eon ({eon_gpr}) should out-gpr {bench} ({other})");
        }
    }
}
