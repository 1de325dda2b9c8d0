//! Partial-word (x86-style) extension experiment.
//!
//! The paper's future-work section points at "the x86 architecture with its
//! increased reliance on the stack region and its use of partial word
//! references". This experiment stresses exactly that: a byte-string kernel
//! whose stack frames are `char` buffers accessed with 1-byte loads and
//! stores. Sub-quad-word stores to invalid SVF entries force the §3.3
//! read-merge path (64 bits is the status-bit granularity), so — unlike the
//! 64-bit workloads — the SVF pays fill traffic here. The measured result
//! is a genuine caveat for the paper's x86 future work: because the SVF
//! *kills* deallocated frames, every call that re-builds its `char` buffers
//! byte-by-byte re-fills them, while a stack cache retains the (stale but
//! mergeable) lines across calls — so on byte-dominated frames the SVF can
//! move *more* data than the cache, even though it still wins on latency.

use crate::machine::machine;
use crate::table::ExpTable;
use crate::traffic::traffic_run;
use svf_harness::{Experiment, Harness, ProgramSpec};
use svf_workloads::Scale;

/// A byte-heavy kernel: tokenization + byte histogram + string reversal in
/// stack `char` buffers (x86-ish partial-word behaviour).
#[must_use]
pub fn byte_kernel_source(iterations: u64) -> String {
    format!(
        "
int seed = 88172645463325252;
int rnd() {{
    seed = seed * 6364136223846793005 + 1442695040888963407;
    return (seed >> 33) & 0x3FFFFFFF;
}}
int process(char* text, int n) {{
    char word[64];
    char rev[64];
    int hist[16];
    for (int i = 0; i < 16; i = i + 1) hist[i] = 0;
    int score = 0;
    int w = 0;
    for (int i = 0; i < n; i = i + 1) {{
        char c = text[i];
        hist[c & 15] = hist[c & 15] + 1;
        if (c == ' ' || w >= 60) {{
            for (int j = 0; j < w; j = j + 1) rev[j] = word[w - 1 - j];
            for (int j = 0; j < w; j = j + 1) score = score + rev[j] * (j + 1);
            w = 0;
        }} else {{
            word[w] = c;
            w = w + 1;
        }}
    }}
    for (int i = 0; i < 16; i = i + 1) score = score + hist[i] * i;
    return score;
}}
int main() {{
    int n = 512;
    char* text = alloc(n + 8);
    for (int i = 0; i < n; i = i + 1) {{
        int r = rnd() % 8;
        if (r == 0) text[i] = ' ';
        else text[i] = 'a' + rnd() % 26;
    }}
    int total = 0;
    for (int it = 0; it < {iterations}; it = it + 1) {{
        total = total + process(text, n) % 1000003;
    }}
    print(total);
    return 0;
}}"
    )
}

fn iterations(scale: Scale) -> u64 {
    match scale {
        Scale::Test => 8,
        Scale::Small => 90,
        Scale::Full => 450,
    }
}

/// Runs the partial-word stress: performance (baseline vs SVF) and the
/// traffic split, showing the read-merge fills that only sub-quad stores
/// cause.
///
/// # Panics
///
/// Panics if the embedded kernel fails to compile (covered by tests).
#[must_use]
pub fn run_experiment(h: &Harness, scale: Scale) -> ExpTable {
    let source = byte_kernel_source(iterations(scale));
    let program = svf_cc::compile_to_program(&source).expect("compiles");
    let mut t = ExpTable::new(
        "Extension: partial-word (x86-style) stack references",
        &["metric", "value"],
    );
    let spec = ProgramSpec::source("byte-kernel", source);
    let mut exp = Experiment::new("partial-word");
    exp.push(spec.clone(), "base (2+0)", machine("base"));
    exp.push(spec, "SVF (2+2)", machine("svf"));
    let report = h.run(&exp);
    let stats = report.stats();
    let (base, svf) = (stats[0].clone(), stats[1].clone());
    let svf_stats = svf.svf.expect("svf engine");
    t.row(vec!["committed instructions".into(), svf.committed.to_string()]);
    t.row(vec!["SVF speedup over (2+0)".into(), format!("{:.3}x", svf.speedup_over(&base))]);
    t.row(vec![
        "morphed / re-routed".into(),
        format!("{} / {}", svf.svf_morphed_loads + svf.svf_morphed_stores, svf.svf_rerouted),
    ]);
    t.row(vec![
        "read-merge fills (sub-quad stores)".into(),
        svf_stats.demand_fills.to_string(),
    ]);
    let (row, _) = traffic_run(&program, 8 << 10, None);
    t.row(vec!["SVF qw in/out".into(), format!("{} / {}", row.svf_in, row.svf_out)]);
    t.row(vec!["stack cache qw in/out".into(), format!("{} / {}", row.sc_in, row.sc_out)]);
    t.note("byte stores to invalid entries must read-merge (§3.3: 64-bit status granularity)");
    t.note("caveat for the x86 future work: dealloc-kill forces re-fills of byte-built frames,");
    t.note("so the SVF can move MORE data than a stack cache here (while still winning on latency)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use svf_emu::Emulator;

    #[test]
    fn byte_kernel_runs_and_is_deterministic() {
        let p = svf_cc::compile_to_program(&byte_kernel_source(2)).expect("compiles");
        let mut a = Emulator::new(&p);
        a.run(u64::MAX).expect("runs");
        let mut b = Emulator::new(&p);
        b.run(u64::MAX).expect("runs");
        assert!(a.is_halted());
        assert_eq!(a.output_string(), b.output_string());
        assert!(!a.output_string().is_empty());
    }

    #[test]
    fn partial_word_stores_cause_read_merges() {
        let t = run_experiment(&Harness::parallel(), Scale::Test);
        let fills: f64 = t.cell_f64("read-merge fills (sub-quad stores)", "value").expect("row");
        assert!(fills > 0.0, "byte stores must trigger §3.3 read-merges");
        let speedup = t.cell_f64("SVF speedup over (2+0)", "value").expect("row");
        assert!(speedup > 1.0, "the SVF still wins on byte-heavy code: {speedup}");
    }
}
