//! The one place `cce-core` spawns explain threads.
//!
//! Whole-context batches ([`Cce::explain_all_parallel`]) and engine
//! micro-batches ([`BatchEngine::explain_batch`]) both reduce to the
//! same shape: `n` independent explains over one read-only index.
//! [`fan_out`] runs them over a scoped team that claims work from one
//! atomic cursor, so a run of slow targets cannot straggle the batch
//! behind one unlucky worker. Each worker explains on its own thread's
//! live sets and candidate heap (see [`crate::index`]), so its warm
//! explains allocate only their keys.
//!
//! [`Cce::explain_all_parallel`]: crate::Cce::explain_all_parallel
//! [`BatchEngine::explain_batch`]: crate::BatchEngine::explain_batch

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Runs `f(i)` for every `i` in `0..n` and returns the results
/// in index order.
///
/// With `threads <= 1` or `n <= 1` everything runs on the caller and no
/// thread spawns; each spawned worker counts once in
/// `cce_threads_spawned_total`. Otherwise the caller and `threads - 1` scoped workers
/// claim chunks of indices from one cursor, sized so each worker claims
/// about 8 of them: large enough to keep cursor contention negligible,
/// small enough that skewed items rebalance. Each worker publishes each
/// result to its slot the moment it is computed.
///
/// A panic in `f` is counted in `cce_parallel_worker_panics_total` and
/// leaves only that item `None`; the worker goes on with the next one.
/// Callers decide how to recover unset items.
pub(crate) fn fan_out<T, F>(n: usize, threads: usize, f: F) -> Vec<Option<T>>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let chunk = n.div_ceil(threads * 8).clamp(1, 256);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let work = || loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        for (i, slot) in (start..end).zip(&slots[start..end]) {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(out) => {
                    let _ = slot.set(out);
                }
                Err(_) => cce_obs::counter!("cce_parallel_worker_panics_total").inc(),
            }
        }
    };
    if threads == 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(work);
                cce_obs::counter!("cce_threads_spawned_total").inc();
            }
            work();
        });
    }
    slots.into_iter().map(OnceLock::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_every_thread_count() {
        for n in [0usize, 1, 2, 7, 300] {
            for threads in [0usize, 1, 2, 4, 64] {
                let got = fan_out(n, threads, |i| i * i);
                let want: Vec<_> = (0..n).map(|i| Some(i * i)).collect();
                assert_eq!(got, want, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn a_panic_unsets_only_its_own_item() {
        for threads in [1usize, 4] {
            let got = fan_out(50, threads, |i| {
                assert_ne!(i, 13, "injected panic");
                i
            });
            for (i, slot) in got.iter().enumerate() {
                assert_eq!(*slot, (i != 13).then_some(i), "threads={threads}");
            }
        }
    }
}
