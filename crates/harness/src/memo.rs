//! Cross-job program memoization.
//!
//! A C-configuration × W-workload experiment matrix needs W distinct
//! programs but defines C·W jobs; before this cache every job compiled its
//! own program on the worker thread, so each workload was compiled C times.
//! Each harness session owns one cache (a harness and its clones share it,
//! so experiments within one CLI invocation do), keyed on full
//! [`ProgramSpec`] identity and handing out [`Arc<Program>`] so the (also
//! shared, see `Program::decoded`) image is built exactly once per
//! distinct spec. Two independently created harnesses compile separately.
//!
//! # Failure isolation
//!
//! A failing or panicking compilation must fail **only the jobs that need
//! that program** — not the worker pool. Each cache entry is an
//! `Arc<OnceLock<Result<…>>>` cell: the winning thread compiles inside
//! `get_or_init` with the panic caught and stored as the `Err` value
//! (poisoned-entry semantics). Every sharer — concurrent or later — then
//! observes the same `Err` with the same message, exactly as if it had
//! compiled the spec itself, and the cache's own mutex is never poisoned.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use svf_isa::Program;
use svf_workloads::Scale;

use crate::error::JobError;
use crate::job::ProgramSpec;

/// Owned mirror of [`ProgramSpec`]'s identity, hashable for the cache map.
/// Also the lockstep grouping key: jobs with equal keys share one program,
/// hence one functional stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    Workload { name: String, input: Option<String>, scale: Scale },
    Source { label: String, source: String, regalloc: bool },
}

pub(crate) fn key(spec: &ProgramSpec) -> Key {
    match spec {
        ProgramSpec::Workload { name, input, scale } => {
            Key::Workload { name: name.clone(), input: input.clone(), scale: *scale }
        }
        ProgramSpec::Source { label, source, regalloc } => {
            Key::Source { label: label.clone(), source: source.clone(), regalloc: *regalloc }
        }
    }
}

/// One cache cell: settled exactly once, shared by every job with the spec.
type Slot = Arc<OnceLock<Result<Arc<Program>, JobError>>>;

/// Process-wide count of actual MiniC compilations, summed over every
/// session's cache. Report-only: the sessions' own counts are what runs
/// and sweeps report.
static COMPILES: AtomicU64 = AtomicU64::new(0);

/// Number of compilations performed in this process by every harness
/// session's cache (cache hits don't count). Report-only: a run's own
/// count is [`RunReport::compiles`](crate::RunReport::compiles).
#[must_use]
pub fn compile_count() -> u64 {
    COMPILES.load(Ordering::Relaxed)
}

/// A session's compile cache: one slot per distinct spec, and the number
/// of compilations it performed.
#[derive(Default)]
pub(crate) struct Memo {
    slots: Mutex<HashMap<Key, Slot>>,
    compiles: AtomicU64,
}

impl fmt::Debug for Memo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo").field("compiles", &self.compiles()).finish_non_exhaustive()
    }
}

impl Memo {
    /// Compilations this cache performed (a C-configuration × W-workload
    /// matrix advances it by exactly W).
    pub(crate) fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }

    /// Compiles `spec` through the cache.
    ///
    /// The mutex guards only the slot lookup — compilation itself runs
    /// outside it, in the slot's `get_or_init`, so distinct specs compile
    /// in parallel and a panic cannot poison the map.
    ///
    /// # Errors
    ///
    /// Compiler errors and compile-time panics are classified as
    /// [`JobError::Compile`] / [`JobError::Panic`], stored in the entry,
    /// and repeated verbatim to every sharer of the spec.
    pub(crate) fn compile(&self, spec: &ProgramSpec) -> Result<Arc<Program>, JobError> {
        let slot = {
            let mut map = self.slots.lock().expect("memo cache mutex");
            Arc::clone(map.entry(key(spec)).or_default())
        };
        slot.get_or_init(|| {
            self.compiles.fetch_add(1, Ordering::Relaxed);
            COMPILES.fetch_add(1, Ordering::Relaxed);
            match catch_unwind(AssertUnwindSafe(|| spec.compile())) {
                Ok(Ok(program)) => Ok(Arc::new(program)),
                Ok(Err(e)) => Err(JobError::Compile(e)),
                Err(payload) => Err(JobError::from_panic(payload.as_ref())),
            }
        })
        .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_spec_compiles_once_and_shares_the_image() {
        let memo = Memo::default();
        let spec = ProgramSpec::source("memo-share", "int main() { print(41 + 1); return 0; }");
        let before = compile_count();
        let a = memo.compile(&spec).expect("compiles");
        let b = memo.compile(&spec).expect("compiles");
        assert!(Arc::ptr_eq(&a, &b), "one image, shared");
        assert_eq!(memo.compiles(), 1, "second call was a cache hit");
        assert!(compile_count() > before, "the process-wide total advances too");
    }

    #[test]
    fn failed_compile_is_poisoned_not_retried() {
        let memo = Memo::default();
        let spec = ProgramSpec::source("memo-broken", "int main( {");
        let e1 = memo.compile(&spec).expect_err("must fail");
        let e2 = memo.compile(&spec).expect_err("must fail again");
        assert_eq!(e1, e2, "sharers observe the identical message");
        assert_eq!(memo.compiles(), 1, "failure is cached, not retried");
    }

    #[test]
    fn distinct_specs_get_distinct_entries() {
        let memo = Memo::default();
        let a = memo
            .compile(&ProgramSpec::source("memo-a", "int main() { print(1); return 0; }"))
            .expect("compiles");
        let b = memo
            .compile(&ProgramSpec::source("memo-b", "int main() { print(2); return 0; }"))
            .expect("compiles");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(memo.compiles(), 2);
    }
}
