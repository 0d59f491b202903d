//! Disk-backed explanation serving: answers `/explain` from a
//! [`PagedContextIndex`] instead of the in-RAM batch engine.
//!
//! When the daemon is started over a converted store (`cce serve
//! --store`), explain targets address the store's rows; bitset pages
//! fault in through the LRU cache on demand, so the daemon's resident
//! footprint is the cache budget plus two scratch bitsets per explain
//! in flight — not the full posting index. Paged explains run in
//! parallel on the connection threads: they share only the page cache,
//! whose lock is held for one lookup or insert, and the store file,
//! whose lock is held for one ranged read. Page checksums and the
//! greedy's kernels run outside both.
//!
//! The store is a read-only context: an acknowledged ingest feeds only
//! the online monitor, and its ack's `context_rows` is the store's row
//! count. `/healthz` gains a `pagestore` object (resident bytes, hit
//! rate, eviction count) so operators can watch the cache breathe; the
//! same counters are exported process-wide as `cce_pagestore_*`.

use cce_core::persist::Vfs;
use cce_core::{Alpha, BudgetedKey, ExplainError, PagedContextIndex, WorkBudget};
use cce_dataset::{Instance, Label};

use crate::backend::{Answer, Backend};

/// The disk-backed explain path: an opened paged index, shared by every
/// connection thread.
pub struct PagedBackend<V: Vfs> {
    index: PagedContextIndex<V>,
}

impl<V: Vfs> PagedBackend<V> {
    /// Wraps an opened paged index.
    pub fn new(index: PagedContextIndex<V>) -> Self {
        Self { index }
    }

    /// Explains store row `target` with an unlimited work budget.
    ///
    /// # Errors
    /// The paged explain's failure modes, including
    /// [`ExplainError::Storage`] when a page cannot be faulted.
    pub fn explain(&self, target: usize, alpha: Alpha) -> Result<BudgetedKey, ExplainError> {
        self.index
            .explain_row_budgeted(target, alpha, WorkBudget::unlimited())
    }
}

/// A [`PagedBackend`] serving the daemon at one α.
pub(crate) struct StoreBackend<V: Vfs> {
    paged: PagedBackend<V>,
    alpha: Alpha,
}

impl<V: Vfs> StoreBackend<V> {
    pub(crate) fn new(paged: PagedBackend<V>, alpha: Alpha) -> Self {
        Self { paged, alpha }
    }
}

impl<V: Vfs + Send + 'static> Backend for StoreBackend<V> {
    fn alpha(&self) -> Alpha {
        self.alpha
    }

    fn explain(&self, target: usize, budget: WorkBudget) -> Answer {
        let result = self
            .paged
            .index
            .explain_row_budgeted(target, self.alpha, budget);
        Answer::Done {
            result,
            missing_shards: Vec::new(),
        }
    }

    /// A store is a read-only context: the arrival feeds only the
    /// monitor, and the context stays the store's rows.
    fn ingest(&self, _x: Instance, _pred: Label) -> usize {
        self.paged.index.len()
    }

    fn health(&self) -> String {
        let s = self.paged.index.cache_stats();
        format!(
            "\"rows\":{rows},\"pagestore\":{{\"store_rows\":{rows},\"resident_bytes\":{},\"budget_bytes\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{}}}",
            s.resident_bytes,
            s.budget_bytes,
            s.hits,
            s.misses,
            s.evictions,
            s.hit_rate(),
            rows = self.paged.index.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    use cce_core::pagestore::write_store;
    use cce_core::persist::{MemVfs, PersistError, Vfs};
    use cce_core::{Alpha, Context, ContextIndex, PagedContextIndex};
    use cce_dataset::{FeatureDef, Instance, Label, Schema};

    use super::PagedBackend;

    /// Parks the first ranged read after `armed` is set until the test
    /// passes `release`.
    struct Gate {
        armed: AtomicBool,
        parked: Barrier,
        release: Barrier,
    }

    /// A [`MemVfs`] whose ranged reads pass through a [`Gate`].
    struct GatedVfs {
        inner: MemVfs,
        gate: Arc<Gate>,
    }

    impl Vfs for GatedVfs {
        fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), PersistError> {
            self.inner.append(path, bytes)
        }
        fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), PersistError> {
            self.inner.write(path, bytes)
        }
        fn sync_file(&mut self, path: &str) -> Result<(), PersistError> {
            self.inner.sync_file(path)
        }
        fn rename(&mut self, from: &str, to: &str) -> Result<(), PersistError> {
            self.inner.rename(from, to)
        }
        fn remove(&mut self, path: &str) -> Result<(), PersistError> {
            self.inner.remove(path)
        }
        fn read(&mut self, path: &str) -> Result<Option<Vec<u8>>, PersistError> {
            self.inner.read(path)
        }
        fn read_range(
            &mut self,
            path: &str,
            offset: u64,
            len: usize,
        ) -> Result<Option<Vec<u8>>, PersistError> {
            if self.gate.armed.swap(false, Ordering::SeqCst) {
                self.gate.parked.wait();
                self.gate.release.wait();
            }
            self.inner.read_range(path, offset, len)
        }
        fn list(&mut self, dir: &str) -> Result<Vec<String>, PersistError> {
            self.inner.list(dir)
        }
        fn create_dir_all(&mut self, dir: &str) -> Result<(), PersistError> {
            self.inner.create_dir_all(dir)
        }
    }

    /// One explain parked inside a page read must not hold up another
    /// whose pages are all resident: explains share no store-wide lock.
    #[test]
    fn a_parked_page_fault_does_not_block_a_resident_explain() {
        let names = ["a", "b", "c"];
        let feats = (0..4)
            .map(|f| FeatureDef::categorical(&format!("f{f}"), &names))
            .collect();
        let instances = (0..60u32)
            .map(|r| Instance::new((0..4).map(|f| (r * (f + 5) / (f + 2)) % 3).collect()))
            .collect();
        let predictions = (0..60).map(|r| Label(u32::from(r % 5 < 2))).collect();
        let ctx = Context::new(Arc::new(Schema::new(feats)), instances, predictions);
        let mut mem = MemVfs::new();
        // 64-byte pages hold two 24-byte row records: rows 0 and 59 sit
        // on different row pages.
        write_store(&mut mem, "ctx.pg", &ctx, 64, &[]).expect("convert");
        let gate = Arc::new(Gate {
            armed: AtomicBool::new(false),
            parked: Barrier::new(2),
            release: Barrier::new(2),
        });
        let vfs = GatedVfs {
            inner: mem,
            gate: Arc::clone(&gate),
        };
        let index = PagedContextIndex::open(vfs, "ctx.pg", 1 << 20).expect("open");
        let backend = Arc::new(PagedBackend::new(index));
        let (resident, cold, alpha) = (0, 59, Alpha::ONE);

        // Every page the resident target touches is cached from here on.
        let want = backend.explain(resident, alpha);
        assert_eq!(
            want.clone().map(|b| b.key),
            ContextIndex::new(&ctx).explain(&ctx, resident, alpha)
        );
        assert!(want.is_ok(), "the resident target must read bitset pages");

        gate.armed.store(true, Ordering::SeqCst);
        let a = {
            let backend = Arc::clone(&backend);
            std::thread::spawn(move || backend.explain(cold, alpha))
        };
        gate.parked.wait(); // A is inside the read of its row page.
        let (tx, rx) = mpsc::channel();
        let b = {
            let backend = Arc::clone(&backend);
            std::thread::spawn(move || tx.send(backend.explain(resident, alpha)))
        };
        let answered = rx.recv_timeout(Duration::from_secs(5));
        gate.release.wait();
        let cold_answer = a.join().expect("A completes once released");
        b.join().expect("B completes").expect("receiver alive");
        assert_eq!(
            answered.expect("B must answer while A is parked in a page read"),
            want
        );
        assert_eq!(
            cold_answer.map(|b| b.key),
            ContextIndex::new(&ctx).explain(&ctx, cold, alpha)
        );
    }
}
