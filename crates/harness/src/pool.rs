//! The worker pool: a shared atomic work queue drained by scoped threads,
//! with per-item panic isolation, failure classification, and bounded
//! retry for retryable failures.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::error::{JobError, RetryPolicy};

/// Arbiter for one machine-wide thread budget shared between job-level
/// workers and intra-batch timing fan-out.
///
/// A budget of `total` threads first funds the `workers` job threads; the
/// remainder is a spare pool that lockstep batches [`claim`](Self::claim)
/// extra timing threads from, so `jobs × fanout` never exceeds `total`.
/// When a job worker drains the queue and exits it
/// [returns its seat](Self::worker_exited) to the spare pool, letting wide
/// batches that are still running borrow the idle slot for their next
/// claim. With `total <= workers` the spare pool is empty and every claim
/// degenerates to a fanout of 1.
pub(crate) struct ThreadBudget {
    spare: AtomicUsize,
}

impl ThreadBudget {
    /// Budget `total` threads across `workers` job threads; whatever is
    /// left over funds intra-batch fan-out.
    pub(crate) fn new(total: usize, workers: usize) -> Self {
        ThreadBudget { spare: AtomicUsize::new(total.saturating_sub(workers)) }
    }

    /// Claims up to `width - 1` extra threads for a batch of `width`
    /// pipelines (the calling thread is always the first). The claim is
    /// best-effort: it takes whatever the spare pool holds, never blocks,
    /// and returns the threads when dropped.
    pub(crate) fn claim(&self, width: usize) -> FanoutClaim<'_> {
        let want = width.saturating_sub(1);
        let taken = self
            .spare
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| Some(s - s.min(want)))
            .map(|prev| prev.min(want))
            .unwrap_or(0);
        FanoutClaim { budget: self, extra: taken }
    }

    /// Returns a job worker's seat to the spare pool after it drains the
    /// queue, so in-flight batches can widen their next claim.
    pub(crate) fn worker_exited(&self) {
        self.spare.fetch_add(1, Ordering::Release);
    }

    /// Spare threads currently available to claims.
    #[cfg(test)]
    fn spare(&self) -> usize {
        self.spare.load(Ordering::Acquire)
    }
}

/// RAII grant of extra timing threads from a [`ThreadBudget`]; returns
/// them to the pool on drop.
pub(crate) struct FanoutClaim<'a> {
    budget: &'a ThreadBudget,
    extra: usize,
}

impl FanoutClaim<'_> {
    /// Total timing threads this batch may use: the calling thread plus
    /// every extra granted (always `>= 1`).
    pub(crate) fn fanout(&self) -> usize {
        1 + self.extra
    }
}

impl Drop for FanoutClaim<'_> {
    fn drop(&mut self) {
        if self.extra > 0 {
            self.budget.spare.fetch_add(self.extra, Ordering::Release);
        }
    }
}

/// Renders a payload from [`catch_unwind`] as a readable failure message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked (non-string payload)".to_string()
    }
}

/// Applies `f` to every item on up to `workers` threads, returning results
/// in item order. A panicking call is isolated to its own item and reported
/// as a classified `Err` ([`JobError::Panic`], or [`JobError::Injected`]
/// for fault-plan panics); sibling items still complete. With
/// `workers == 1` this degenerates to a plain (but still panic-isolated)
/// serial map.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<Result<R, JobError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(workers, items, &RetryPolicy::none(), |item| Ok(f(item)))
}

/// [`parallel_map`] for fallible work under a [`RetryPolicy`]: an `Err`
/// that is [`retryable`](JobError::retryable) (or a panic classified as
/// retryable, i.e. injected) is re-attempted up to `policy.attempts` times
/// with exponential backoff before the slot settles. Non-retryable
/// failures settle immediately. `policy.timeout` is **not** applied here —
/// a generic borrowed closure cannot be abandoned mid-flight; the job
/// runner in [`crate::Harness`] owns watchdog duty.
pub fn parallel_map_with<T, R, F>(
    workers: usize,
    items: &[T],
    policy: &RetryPolicy,
    f: F,
) -> Vec<Result<R, JobError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, JobError> + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, JobError>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let mut attempt = 0u32;
                let result = loop {
                    attempt += 1;
                    let result = catch_unwind(AssertUnwindSafe(|| f(item)))
                        .unwrap_or_else(|p| Err(JobError::from_panic(p.as_ref())));
                    match result {
                        Err(e) if e.retryable() && attempt < policy.attempts.max(1) => {
                            thread::sleep(policy.backoff_before(attempt + 1));
                        }
                        settled => break settled,
                    }
                };
                *slots[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot").expect("every item visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[test]
    fn ordered_results_any_worker_count() {
        let items: Vec<u64> = (0..50).collect();
        let serial = parallel_map(1, &items, |x| x * x);
        let wide = parallel_map(8, &items, |x| x * x);
        assert_eq!(serial, wide);
        assert_eq!(wide[7], Ok(49));
    }

    #[test]
    fn panics_are_isolated_per_item() {
        let items: Vec<u64> = (0..10).collect();
        let out = parallel_map(4, &items, |&x| {
            assert!(x != 3, "item three explodes");
            x
        });
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().expect_err("item 3 failed");
                assert!(matches!(e, JobError::Panic(_)), "classified as a panic: {e:?}");
                assert!(e.to_string().contains("item three explodes"), "{e}");
            } else {
                assert_eq!(*r, Ok(i as u64), "siblings of a panicking item survive");
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<Result<u64, JobError>> = parallel_map(4, &[], |x: &u64| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn retryable_failures_recover_within_the_budget() {
        // Every odd item fails once with a retryable error, then succeeds.
        let items: Vec<u32> = (0..8).collect();
        let tries: Vec<AtomicU32> = items.iter().map(|_| AtomicU32::new(0)).collect();
        let policy = RetryPolicy {
            attempts: 3,
            backoff: Duration::from_millis(1),
            timeout: None,
        };
        let out = parallel_map_with(4, &items, &policy, |&x| {
            let attempt = tries[x as usize].fetch_add(1, Ordering::Relaxed);
            if x % 2 == 1 && attempt == 0 {
                return Err(JobError::Io("transient".into()));
            }
            Ok(x * 10)
        });
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r, Ok(i as u32 * 10), "item {i} settled successfully");
            let want = if i % 2 == 1 { 2 } else { 1 };
            assert_eq!(tries[i].load(Ordering::Relaxed), want, "item {i} attempt count");
        }
    }

    #[test]
    fn non_retryable_failures_settle_immediately() {
        let items = [0u32];
        let tries = AtomicU32::new(0);
        let policy = RetryPolicy { attempts: 5, backoff: Duration::ZERO, timeout: None };
        let out = parallel_map_with(1, &items, &policy, |_| {
            tries.fetch_add(1, Ordering::Relaxed);
            Err::<u32, _>(JobError::Compile("syntax error".into()))
        });
        assert!(matches!(out[0], Err(JobError::Compile(_))));
        assert_eq!(tries.load(Ordering::Relaxed), 1, "compile errors never retry");
    }

    #[test]
    fn budget_claims_are_capped_by_width_and_spare() {
        // 8 threads, 2 workers => 6 spare.
        let budget = ThreadBudget::new(8, 2);
        assert_eq!(budget.spare(), 6);

        // A 4-wide batch wants 3 extras and gets them all.
        let a = budget.claim(4);
        assert_eq!(a.fanout(), 4);
        assert_eq!(budget.spare(), 3);

        // A 6-wide batch wants 5 extras but only 3 remain.
        let b = budget.claim(6);
        assert_eq!(b.fanout(), 4);
        assert_eq!(budget.spare(), 0);

        // The pool is dry: further claims get fanout 1, never negative.
        let c = budget.claim(10);
        assert_eq!(c.fanout(), 1);
        assert_eq!(budget.spare(), 0);

        // Drops return exactly what was granted.
        drop(b);
        assert_eq!(budget.spare(), 3);
        drop(a);
        drop(c);
        assert_eq!(budget.spare(), 6);
    }

    #[test]
    fn exhausted_budget_yields_fanout_one() {
        let budget = ThreadBudget::new(1, 1);
        assert_eq!(budget.claim(8).fanout(), 1);
        // A width-1 (or degenerate width-0) batch never asks for extras.
        let roomy = ThreadBudget::new(16, 1);
        assert_eq!(roomy.claim(1).fanout(), 1);
        assert_eq!(roomy.claim(0).fanout(), 1);
        assert_eq!(roomy.spare(), 15);
    }

    #[test]
    fn exiting_workers_donate_their_seats() {
        // 4 threads fully consumed by 4 workers: no spare at first.
        let budget = ThreadBudget::new(4, 4);
        assert_eq!(budget.claim(6).fanout(), 1);

        // Two workers drain the queue and exit; a wide batch on a
        // surviving worker borrows both idle seats.
        budget.worker_exited();
        budget.worker_exited();
        let claim = budget.claim(6);
        assert_eq!(claim.fanout(), 3);
        drop(claim);
        assert_eq!(budget.spare(), 2);
    }

    #[test]
    fn retry_budget_is_bounded() {
        let items = [0u32];
        let tries = AtomicU32::new(0);
        let policy =
            RetryPolicy { attempts: 3, backoff: Duration::from_millis(1), timeout: None };
        let out = parallel_map_with(1, &items, &policy, |_| {
            tries.fetch_add(1, Ordering::Relaxed);
            Err::<u32, _>(JobError::Io("always down".into()))
        });
        assert!(matches!(out[0], Err(JobError::Io(_))));
        assert_eq!(tries.load(Ordering::Relaxed), 3, "exactly `attempts` tries");
    }
}
