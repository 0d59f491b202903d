//! Disk-backed explanation serving: answers `/explain` from a
//! [`PagedContextIndex`] instead of the in-RAM batch engine.
//!
//! When the daemon is started over a converted store (`cce serve
//! --store`), explain targets address the store's rows; bitset pages
//! fault in through the LRU cache on demand, so the daemon's resident
//! footprint is the cache budget plus two scratch bitsets — not the
//! full posting index. Paged explains are answered one at a time under
//! the store lock, which also serializes cache mutation.
//!
//! The store is a read-only context: an acknowledged ingest feeds only
//! the online monitor, and its ack's `context_rows` is the store's row
//! count. `/healthz` gains a `pagestore` object (resident bytes, hit
//! rate, eviction count) so operators can watch the cache breathe; the
//! same counters are exported process-wide as `cce_pagestore_*`.

use std::sync::{Mutex, MutexGuard};

use cce_core::persist::Vfs;
use cce_core::{Alpha, BudgetedKey, ExplainError, PagedContextIndex, WorkBudget};
use cce_dataset::{Instance, Label};

use crate::backend::{Answer, Backend};

/// The disk-backed explain path: an opened paged index behind a lock
/// (explains mutate the page cache).
pub struct PagedBackend<V: Vfs> {
    index: Mutex<PagedContextIndex<V>>,
}

impl<V: Vfs> PagedBackend<V> {
    /// Wraps an opened paged index.
    pub fn new(index: PagedContextIndex<V>) -> Self {
        Self {
            index: Mutex::new(index),
        }
    }

    /// Explains store row `target` with an unlimited work budget.
    ///
    /// # Errors
    /// The paged explain's failure modes, including
    /// [`ExplainError::Storage`] when a page cannot be faulted.
    pub fn explain(&self, target: usize, alpha: Alpha) -> Result<BudgetedKey, ExplainError> {
        self.lock()
            .explain_row_budgeted(target, alpha, WorkBudget::unlimited())
    }

    fn lock(&self) -> MutexGuard<'_, PagedContextIndex<V>> {
        self.index.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A [`PagedBackend`] serving the daemon at one α.
pub(crate) struct StoreBackend<V: Vfs> {
    paged: PagedBackend<V>,
    alpha: Alpha,
    /// The store's row count, read once: the context never changes, so
    /// ingest and health need not wait on the store lock for it.
    rows: usize,
}

impl<V: Vfs> StoreBackend<V> {
    pub(crate) fn new(paged: PagedBackend<V>, alpha: Alpha) -> Self {
        let rows = paged.lock().len();
        Self { paged, alpha, rows }
    }
}

impl<V: Vfs + Send + 'static> Backend for StoreBackend<V> {
    fn alpha(&self) -> Alpha {
        self.alpha
    }

    fn explain(&self, target: usize, budget: WorkBudget) -> Answer {
        let result = self
            .paged
            .lock()
            .explain_row_budgeted(target, self.alpha, budget);
        Answer::Done {
            result,
            missing_shards: Vec::new(),
        }
    }

    /// A store is a read-only context: the arrival feeds only the
    /// monitor, and the context stays the store's rows.
    fn ingest(&self, _x: Instance, _pred: Label) -> usize {
        self.rows
    }

    fn health(&self) -> String {
        let s = self.paged.lock().cache_stats();
        format!(
            "\"rows\":{rows},\"pagestore\":{{\"store_rows\":{rows},\"resident_bytes\":{},\"budget_bytes\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{}}}",
            s.resident_bytes,
            s.budget_bytes,
            s.hits,
            s.misses,
            s.evictions,
            s.hit_rate(),
            rows = self.rows,
        )
    }
}
