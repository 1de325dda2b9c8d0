//! The memoization contract: a full C-configuration × W-workload
//! experiment matrix performs exactly W MiniC compilations, and a warm
//! rerun on the same harness performs none.

use svf_cpu::{CpuConfig, StackEngine};
use svf_harness::{Experiment, Harness};
use svf_workloads::Scale;

/// Timing-heavy (2 × 48 cycle simulations), so release-only like the
/// figure-shape tests.
#[cfg_attr(debug_assertions, ignore = "timing-heavy; run with --release")]
#[test]
fn matrix_compiles_each_workload_exactly_once() {
    let mut sc = CpuConfig::wide16().with_ports(2, 2);
    sc.stack_engine = StackEngine::stack_cache_8kb();
    let mut svf = CpuConfig::wide16().with_ports(2, 2);
    svf.stack_engine = StackEngine::svf_8kb();
    let configs = [
        ("base", CpuConfig::wide16()),
        ("stack-cache", sc),
        ("svf", svf),
        ("8-wide", CpuConfig::wide8()),
    ];
    let exp = Experiment::matrix("memo-matrix", &configs, Scale::Test);
    let workloads = svf_workloads::all().len();
    assert_eq!(exp.jobs().len(), workloads * configs.len(), "full 12x4 matrix");

    let harness = Harness::parallel().with_workers(4);
    let report = harness.run(&exp);
    report.try_stats().expect("every job completes");
    assert_eq!(
        report.compiles, workloads as u64,
        "each workload compiles once, not once per configuration"
    );

    // A second identical run on the same harness is fully served from its
    // session's cache.
    let warm = harness.run(&exp);
    warm.try_stats().expect("every job completes again");
    assert_eq!(warm.compiles, 0, "warm matrix recompiles nothing");
}
