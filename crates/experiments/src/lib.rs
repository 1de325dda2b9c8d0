//! # svf-experiments — one runner per table and figure of the paper
//!
//! Each module reproduces one piece of the evaluation section of
//! *Stack Value File: Custom Microarchitecture for the Stack* (HPCA 2001):
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig1`] | Figure 1 — run-time memory-access distribution |
//! | [`fig2`] | Figure 2 — stack-depth variation over time |
//! | [`fig3`] | Figure 3 — offset locality (CDF of distance from TOS) |
//! | [`tables`] | Table 1 (benchmarks) and Table 2 (machine models) |
//! | [`fig5`] | Figure 5 — ideal-SVF speedup vs machine width |
//! | [`fig6`] | Figure 6 — progressive performance analysis |
//! | [`fig7`] | Figure 7 — SVF vs stack cache vs baseline ports |
//! | [`fig8`] | Figure 8 — breakdown of SVF reference types |
//! | [`fig9`] | Figure 9 — real SVF speedups across port counts |
//! | [`traffic`] | Table 3 (memory traffic) and Table 4 (context switches) |
//! | [`ablations`] | capacity sweep, squash-penalty sensitivity, code quality |
//! | [`partial_word`] | the x86 partial-word extension experiment |
//!
//! Every runner takes the [`Harness`](svf_harness::Harness) to run on and
//! returns an [`ExpTable`] whose `Display` renders an aligned text table;
//! the `svf-experiments` binary builds one harness from its flags, passes
//! it to every runner and prints the tables, and integration tests assert
//! the paper's qualitative shape on the same data.
//!
//! # Example
//!
//! ```no_run
//! use svf_experiments::{fig1, Scale};
//! use svf_harness::Harness;
//! println!("{}", fig1::run(&Harness::parallel(), Scale::Test));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod characterize;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod machine;
pub mod partial_word;
pub mod runner;
pub mod table;
pub mod tables;
pub mod traffic;

pub use machine::{machine, machine_with};
pub use svf_workloads::Scale;
pub use table::ExpTable;

/// Geometric mean of a non-empty slice (used for "average speedup" rows,
/// the conventional aggregation for ratios).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_rejects_empty() {
        let _ = geomean(&[]);
    }
}
