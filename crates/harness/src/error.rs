//! The structured failure taxonomy and retry policy for orchestrated jobs.
//!
//! Every way a job can fail is a [`JobError`] variant carrying enough
//! context to act on it — most importantly whether the failure is
//! *retryable*. The split is principled, not ad-hoc:
//!
//! * **Deterministic failures** re-fail identically on every attempt, so
//!   retrying them only burns wall-clock: a diverging simulation
//!   ([`JobError::Panic`]), a program that does not compile
//!   ([`JobError::Compile`]), and a damaged trace input
//!   ([`JobError::TraceTruncated`]).
//! * **Environmental failures** can succeed on a later attempt: filesystem
//!   hiccups ([`JobError::Io`]), a watchdog expiry ([`JobError::Timeout`] —
//!   the box was overloaded, or the hang was transient), and a resume file
//!   that arrived corrupt or stale ([`JobError::CorruptResume`] —
//!   re-simulation repairs it).
//! * **Injected failures** ([`JobError::Injected`]) come from the
//!   `SVF_FAULT_PLAN` test hook (see [`crate::fault`]) and carry their own
//!   retryability so tests can exercise both recovery and permanent-failure
//!   paths deterministically.

use std::fmt;
use std::time::Duration;

/// Why a job failed, with retryability. See the module docs for the
/// taxonomy rationale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The simulation (or a compile) panicked — a deterministic divergence;
    /// the message is the panic payload.
    Panic(String),
    /// The program failed to compile; every job sharing the spec observes
    /// the identical message (the memo cache poisons the entry).
    Compile(String),
    /// The per-attempt watchdog expired; the attempt's thread was
    /// abandoned. Retryable — a hang may be environmental.
    Timeout {
        /// The watchdog limit that expired, in milliseconds.
        millis: u64,
    },
    /// A filesystem operation failed (storing a result, spawning a
    /// watchdog thread). Retryable.
    Io(String),
    /// A resume file existed but did not parse, or holds another job's
    /// result (its fingerprint is missing or different). The runner treats
    /// this as "no result" and re-simulates (which repairs the file), so
    /// this variant surfaces only in the runner's warning.
    CorruptResume(String),
    /// A `.svft` trace input ended mid-record. Deterministic — the input
    /// is damaged; recapture it or replay with salvage mode.
    TraceTruncated(String),
    /// A fault injected by the `SVF_FAULT_PLAN` hook, with the plan's
    /// declared retryability.
    Injected {
        /// The planned fault kind (`"panic"`, `"io"`, …).
        kind: String,
        /// Human-readable provenance (plan entry, job id).
        detail: String,
        /// Whether the retry loop may re-attempt the job.
        retryable: bool,
    },
}

impl JobError {
    /// Whether a bounded retry may succeed. Deterministic failures
    /// (divergence, compile errors, damaged inputs) are final.
    #[must_use]
    pub fn retryable(&self) -> bool {
        match self {
            JobError::Timeout { .. } | JobError::Io(_) | JobError::CorruptResume(_) => true,
            JobError::Injected { retryable, .. } => *retryable,
            JobError::Panic(_) | JobError::Compile(_) | JobError::TraceTruncated(_) => false,
        }
    }

    /// Classifies a payload caught by `catch_unwind`: panics carrying the
    /// fault-plan marker are [`JobError::Injected`] (retryable — the plan
    /// fires once), everything else is a real [`JobError::Panic`].
    #[must_use]
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> JobError {
        let msg = crate::pool::panic_message(payload);
        if msg.contains(crate::fault::MARKER) {
            JobError::Injected { kind: "panic".to_string(), detail: msg, retryable: true }
        } else {
            JobError::Panic(msg)
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Panic/Compile messages already carry their own prefix
            // ("panicked: …", "<program>: …").
            JobError::Panic(m) | JobError::Compile(m) => write!(f, "{m}"),
            JobError::Timeout { millis } => {
                write!(f, "timed out (watchdog limit {}s)", *millis as f64 / 1e3)
            }
            JobError::Io(m) => write!(f, "I/O error: {m}"),
            JobError::CorruptResume(m) => write!(f, "corrupt resume data: {m}"),
            JobError::TraceTruncated(m) => write!(f, "trace truncated: {m}"),
            JobError::Injected { kind, detail, .. } => {
                write!(f, "injected {kind} fault: {detail}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// How hard the runner tries before declaring a job failed: total attempts
/// for retryable errors, the backoff between them (doubling per retry), and
/// an optional per-attempt watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job (at least 1). Non-retryable failures ignore
    /// this and fail on the first attempt.
    pub attempts: u32,
    /// Sleep before retry `n` is `backoff << (n - 1)`, so transient
    /// conditions get room to clear without stalling the pool for long.
    pub backoff: Duration,
    /// Per-attempt watchdog. `None` (the default) runs jobs inline with no
    /// timeout; `Some(limit)` runs each attempt on a helper thread and
    /// abandons it past the limit (the thread leaks until its simulation
    /// finishes — acceptable for a hung job, which by definition never
    /// does useful work again).
    pub timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { attempts: 3, backoff: Duration::from_millis(50), timeout: None }
    }
}

impl RetryPolicy {
    /// The sleep before retry attempt `attempt` (2-based: the sleep after
    /// the first failure precedes attempt 2). Exponential, shift-capped.
    #[must_use]
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        self.backoff * (1u32 << attempt.saturating_sub(2).min(8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_follows_the_taxonomy() {
        assert!(JobError::Timeout { millis: 100 }.retryable());
        assert!(JobError::Io("disk full".into()).retryable());
        assert!(JobError::CorruptResume("bad row".into()).retryable());
        assert!(!JobError::Panic("panicked: deadlock".into()).retryable());
        assert!(!JobError::Compile("x: parse error".into()).retryable());
        assert!(!JobError::TraceTruncated("record 7".into()).retryable());
        let inj = |retryable| JobError::Injected {
            kind: "io".into(),
            detail: "plan".into(),
            retryable,
        };
        assert!(inj(true).retryable());
        assert!(!inj(false).retryable());
    }

    #[test]
    fn panics_with_the_fault_marker_classify_as_injected() {
        let payload: Box<dyn std::any::Any + Send> =
            Box::new(format!("{} planned panic", crate::fault::MARKER));
        match JobError::from_panic(payload.as_ref()) {
            JobError::Injected { kind, retryable, .. } => {
                assert_eq!(kind, "panic");
                assert!(retryable, "injected panics are retryable by design");
            }
            other => panic!("expected Injected, got {other:?}"),
        }
        let real: Box<dyn std::any::Any + Send> = Box::new("deadlock at cycle 9");
        match JobError::from_panic(real.as_ref()) {
            JobError::Panic(m) => assert!(m.contains("deadlock"), "{m}"),
            other => panic!("expected Panic, got {other:?}"),
        }
    }

    #[test]
    fn display_is_actionable() {
        let e = JobError::Timeout { millis: 1500 };
        assert_eq!(e.to_string(), "timed out (watchdog limit 1.5s)");
        assert!(JobError::Io("x".into()).to_string().contains("I/O"));
        assert!(JobError::Panic("panicked: y".into()).to_string().contains("panicked"));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy { backoff: Duration::from_millis(10), ..RetryPolicy::default() };
        assert_eq!(p.backoff_before(2), Duration::from_millis(10));
        assert_eq!(p.backoff_before(3), Duration::from_millis(20));
        assert_eq!(p.backoff_before(4), Duration::from_millis(40));
        assert_eq!(p.backoff_before(40), Duration::from_millis(10 * 256), "shift is capped");
    }
}
