//! Deterministic fault injection: the `SVF_FAULT_PLAN` hook.
//!
//! A fault plan is a comma-separated list of `<kind>@<job-id>` entries.
//! Every harness session reads one from the `SVF_FAULT_PLAN` environment
//! variable when it is created (a harness and its clones share it; tests
//! set one per harness with `Harness::with_fault_plan`). Each entry fires
//! **exactly once** per session, at the first execution attempt of the job
//! whose in-experiment id matches — job ids are deterministic (definition
//! order), so a plan reproduces the same failure sequence on every run at
//! any worker count.
//!
//! | entry | effect | classified as |
//! |---|---|---|
//! | `panic@N` | panics inside the job (real unwinding) | `Injected{kind:"panic"}`, retryable |
//! | `io@N` | returns an I/O failure | [`JobError::Io`], retryable |
//! | `hang@N:MS` | sleeps `MS` ms (default 60000) inside the job | [`JobError::Timeout`] via the watchdog |
//! | `trunc@N` | returns a truncated-trace failure | [`JobError::TraceTruncated`], final |
//! | `abort@N` | `std::process::abort()` — a crash with no cleanup, the in-process equivalent of `kill -9` | (process dies) |
//!
//! Jobs with a planned fault run as batches of one, so the fault flows
//! through the full watchdog / retry / classification machinery rather
//! than poisoning a shared batch.
//!
//! The hook costs two short mutex locks per job (a peek when the job is
//! scheduled, a lookup when it runs).

use std::sync::Mutex;
use std::time::Duration;

use crate::error::JobError;

/// Marker embedded in every injected panic payload so classification can
/// tell a planned fault from a real divergence.
pub(crate) const MARKER: &str = "[svf-fault]";

/// One planned fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Panic,
    Io,
    Hang(u64),
    Trunc,
    Abort,
}

fn parse_entry(entry: &str) -> Result<(usize, Kind), String> {
    let (kind, at) = entry
        .split_once('@')
        .ok_or_else(|| format!("fault entry {entry:?} is not <kind>@<job-id>"))?;
    let (at, arg) = match at.split_once(':') {
        Some((at, arg)) => (at, Some(arg)),
        None => (at, None),
    };
    let id: usize =
        at.parse().map_err(|_| format!("fault entry {entry:?}: bad job id {at:?}"))?;
    let kind = match (kind, arg) {
        ("panic", None) => Kind::Panic,
        ("io", None) => Kind::Io,
        ("hang", None) => Kind::Hang(60_000),
        ("hang", Some(ms)) => Kind::Hang(
            ms.parse().map_err(|_| format!("fault entry {entry:?}: bad ms {ms:?}"))?,
        ),
        ("trunc", None) => Kind::Trunc,
        ("abort", None) => Kind::Abort,
        (k, _) => {
            return Err(format!("fault entry {entry:?}: unknown kind or stray argument for {k:?}"))
        }
    };
    Ok((id, kind))
}

fn parse_plan(text: &str) -> Result<Vec<(usize, Kind)>, String> {
    text.split(',')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .map(parse_entry)
        .collect()
}

/// A session's fault plan: the remaining (job id, fault) entries; firing
/// removes the entry.
#[derive(Debug)]
pub(crate) struct Plan {
    entries: Mutex<Vec<(usize, Kind)>>,
}

impl Plan {
    /// The plan in `SVF_FAULT_PLAN` (empty when unset).
    ///
    /// # Panics
    ///
    /// On a malformed plan: a silently ignored fault plan would make a test
    /// vacuously green, so a bad plan must fail the run loudly.
    pub(crate) fn from_env() -> Plan {
        let text = std::env::var("SVF_FAULT_PLAN").unwrap_or_default();
        let entries = parse_plan(&text).unwrap_or_else(|e| panic!("SVF_FAULT_PLAN: {e}"));
        Plan { entries: Mutex::new(entries) }
    }

    /// Replaces every remaining entry with the plan `text`; `""` disarms.
    ///
    /// # Panics
    ///
    /// On a malformed plan, like [`Plan::from_env`].
    pub(crate) fn install(&self, text: &str) {
        let parsed = parse_plan(text).unwrap_or_else(|e| panic!("fault plan {text:?}: {e}"));
        *self.entries.lock().expect("fault plan") = parsed;
    }

    /// Whether any not-yet-fired fault targets job `id` (peek, no
    /// consumption). The scheduler uses this to keep faulty jobs out of
    /// lockstep batches.
    pub(crate) fn planned(&self, id: usize) -> bool {
        self.entries.lock().expect("fault plan").iter().any(|&(i, _)| i == id)
    }

    /// Fires (and consumes) the fault planned for job `id`, if any: panics,
    /// aborts, sleeps, or returns the planned error. A clean `Ok(())` means
    /// no fault was planned or it already fired.
    ///
    /// # Errors
    ///
    /// The planned [`JobError`] for `io`/`trunc` entries.
    pub(crate) fn fire(&self, id: usize) -> Result<(), JobError> {
        let kind = {
            let mut entries = self.entries.lock().expect("fault plan");
            let Some(pos) = entries.iter().position(|&(i, _)| i == id) else { return Ok(()) };
            entries.remove(pos).1
        };
        match kind {
            Kind::Panic => panic!("{MARKER} planned panic at job {id}"),
            Kind::Io => Err(JobError::Io(format!("{MARKER} planned I/O fault at job {id}"))),
            Kind::Hang(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
            Kind::Trunc => Err(JobError::TraceTruncated(format!(
                "{MARKER} planned truncated-trace fault at job {id}"
            ))),
            Kind::Abort => {
                eprintln!("{MARKER} planned abort at job {id}");
                std::process::abort()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_parse() {
        let p = parse_plan("panic@3, io@5,hang@7:2000,trunc@9,abort@12").expect("parses");
        assert_eq!(
            p,
            vec![
                (3, Kind::Panic),
                (5, Kind::Io),
                (7, Kind::Hang(2000)),
                (9, Kind::Trunc),
                (12, Kind::Abort),
            ]
        );
        assert_eq!(parse_plan("hang@1").expect("parses"), vec![(1, Kind::Hang(60_000))]);
        assert!(parse_plan("").expect("empty ok").is_empty());
        assert!(parse_plan(" , ").expect("blank entries ok").is_empty());
    }

    #[test]
    fn bad_plans_are_rejected() {
        assert!(parse_plan("panic").is_err(), "missing @id");
        assert!(parse_plan("panic@x").is_err(), "bad id");
        assert!(parse_plan("meteor@1").is_err(), "unknown kind");
        assert!(parse_plan("hang@1:soon").is_err(), "bad ms");
        assert!(parse_plan("io@1:5").is_err(), "io takes no argument");
    }
}
