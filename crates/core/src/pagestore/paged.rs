//! Out-of-core explains: the one lazy-greedy driver
//! ([`crate::greedy`]) over paged columns faulted in on demand.
//!
//! # Byte-identity argument
//!
//! Every count the driver consults is reproduced exactly:
//!
//! * **Round 0** reads the directory's seed table — the same
//!   `(surv₀, cover₀)` values the in-RAM index precomputed (the writer
//!   copies them verbatim).
//! * **Later rounds** stream the posting column page by page, summing
//!   per-page kernel counts. Addition over disjoint word ranges is
//!   exact, so every score equals its in-RAM counterpart.
//! * **The unsatisfiable case** reads the twin certificate stored in
//!   the target's row record. Value-addressed explains (no stored row)
//!   fall back to exhaustion, which yields the same error.
//!
//! `tests/pagestore_diff.rs` holds the differential proptests that pin
//! this equivalence across row counts straddling word boundaries, page
//! sizes, and cache budgets down to a single page.
//!
//! # Failure semantics
//!
//! A page fault that fails — I/O error, truncated frame, checksum
//! mismatch — aborts the explain with [`ExplainError::Storage`]. The
//! loop never consumes unverified bits, so a corrupt store yields an
//! error, never a silently wrong key.
//!
//! # Concurrency
//!
//! Explains take `&self`. Besides the page cache (locked per lookup,
//! see [`PageStore`]), an explain's only mutable state is its scratch:
//! two live-set bitsets and the candidate heap. Each explain pops one
//! from a pool and pushes it back when done, so the pool holds at most
//! as many scratches as explains ever ran at once.

use std::ops::Range;
use std::sync::{Mutex, MutexGuard, PoisonError};

use cce_dataset::{Instance, Label};

use crate::alpha::Alpha;
use crate::error::ExplainError;
use crate::greedy::{self, record_run, CandidateHeap, CountSource};
use crate::kernels;
use crate::key::RelativeKey;
use crate::persist::{PersistError, Vfs};
use crate::srk::{BudgetedKey, WorkBudget};

use super::cache::{CacheStats, PageData};
use super::format::PageStore;

/// Renders a persistence failure as an explain abort.
fn storage_err(e: PersistError) -> ExplainError {
    ExplainError::Storage {
        reason: e.to_string(),
    }
}

/// Borrows the word payload of a bitset page.
fn words_of(page: &PageData) -> Result<&[u64], PersistError> {
    match page {
        PageData::Words(w) => Ok(w),
        PageData::Bytes(_) => Err(PersistError::corrupt("bitset page decoded as row data")),
    }
}

/// Streams column `col` page by page, summing `visit` over the pages:
/// it gets the scratch word range, the page's live words, and the page
/// of column `with` (else empty), pinned alongside so a single-page
/// cache cannot evict one to admit the other.
fn walk<V: Vfs>(
    store: &PageStore<V>,
    col: usize,
    with: Option<usize>,
    mut visit: impl FnMut(Range<usize>, &[u64], &[u64]) -> u64,
) -> Result<usize, PersistError> {
    let (pages, wpp) = (
        store.geometry().pages_per_col,
        store.geometry().words_per_page,
    );
    let mut total = 0u64;
    for pk in 0..pages {
        let live = store.geometry().page_words(pk);
        let page = store.page(store.geometry().col_page(col, pk))?;
        let with = with.map(|w| store.page(store.geometry().col_page(w, pk)));
        let with = with.transpose()?;
        let other = match &with {
            Some(p) => &words_of(p)?[..live],
            None => &[],
        };
        total += visit(pk * wpp..pk * wpp + live, &words_of(&page)?[..live], other);
    }
    Ok(total as usize)
}

/// The paged count source: the live sets are full-width scratch words,
/// intersected with posting columns streamed through the page cache.
struct PagedCounts<'a, V: Vfs> {
    store: &'a PageStore<V>,
    violators: &'a mut [u64],
    supporters: &'a mut [u64],
    /// Posting column per feature, fixed by the target's values.
    posting_col: Vec<usize>,
    /// The target's slice of the directory's seed table.
    seeds: Vec<(usize, usize)>,
    class_col: usize,
    class_size: usize,
    twin_certificate: Option<usize>,
    /// Whether the first pick has materialized the live sets.
    materialized: bool,
}

impl<V: Vfs> CountSource for PagedCounts<'_, V> {
    type Fault = PersistError;

    fn n_features(&self) -> usize {
        self.posting_col.len()
    }

    fn start(&mut self) -> Result<(usize, usize), PersistError> {
        self.materialized = false;
        let rows = self.store.rows();
        Ok((rows, rows - self.class_size))
    }

    fn seed(&self, f: usize) -> (usize, usize) {
        self.seeds[f]
    }

    fn surv(&mut self, f: usize) -> Result<usize, PersistError> {
        let (k, live) = (kernels::active(), &*self.violators);
        walk(self.store, self.posting_col[f], None, |r, p, _| {
            (k.count_and)(&live[r], p)
        })
    }

    fn cover(&mut self, f: usize) -> Result<usize, PersistError> {
        let (k, live) = (kernels::active(), &*self.supporters);
        walk(self.store, self.posting_col[f], None, |r, p, _| {
            (k.count_and)(&live[r], p)
        })
    }

    fn pick(&mut self, f: usize) -> Result<usize, PersistError> {
        let (k, viol, sup) = (
            kernels::active(),
            &mut *self.violators,
            &mut *self.supporters,
        );
        let col = self.posting_col[f];
        if self.materialized {
            return walk(self.store, col, None, |r, p, _| {
                for (d, s) in sup[r.clone()].iter_mut().zip(p) {
                    *d &= s;
                }
                (k.and_assign_count)(&mut viol[r], p)
            });
        }
        // First pick: materialize both live sets fused with the pick's
        // intersection — `posting ∩ ¬class` and `posting ∩ class` — from
        // one pinned pair of pages.
        self.materialized = true;
        walk(self.store, col, Some(self.class_col), |r, p, c| {
            for ((d, x), y) in sup[r.clone()].iter_mut().zip(p).zip(c) {
                *d = x & y;
            }
            (k.and_not_count)(&mut viol[r], p, c)
        })
    }

    fn twin_violators(&self) -> Option<usize> {
        self.twin_certificate
    }
}

/// One explain's working state: the live-set bitsets — the only
/// full-width bitsets the paged path keeps resident (2 × ⌈rows/64⌉
/// words) — and the candidate heap.
#[derive(Debug)]
struct Scratch {
    violators: Vec<u64>,
    supporters: Vec<u64>,
    heap: CandidateHeap,
}

/// An out-of-core [`ContextIndex`](crate::ContextIndex): answers the
/// same explain queries from a [`PageStore`], faulting bitset pages
/// through the LRU cache instead of holding every posting in RAM.
#[derive(Debug)]
pub struct PagedContextIndex<V: Vfs> {
    store: PageStore<V>,
    /// Idle scratches; an explain pops one (or allocates) and returns it.
    scratch: Mutex<Vec<Scratch>>,
}

impl<V: Vfs> PagedContextIndex<V> {
    /// Wraps an opened store.
    pub fn new(store: PageStore<V>) -> Self {
        Self {
            store,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Opens the store at `path` and wraps it; see [`PageStore::open`].
    ///
    /// # Errors
    /// Propagates [`PageStore::open`] validation failures.
    pub fn open(vfs: V, path: &str, cache_budget: usize) -> Result<Self, PersistError> {
        Ok(Self::new(PageStore::open(vfs, path, cache_budget)?))
    }

    /// Context rows in the backing store.
    pub fn len(&self) -> usize {
        self.store.rows()
    }

    /// True when the backing store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.store.rows() == 0
    }

    /// The backing store (schema, directory, geometry access).
    pub fn store(&self) -> &PageStore<V> {
        &self.store
    }

    /// Exclusive store access. Every store read takes `&self`, so
    /// [`PagedContextIndex::store`] serves as well.
    pub fn store_mut(&mut self) -> &mut PageStore<V> {
        &mut self.store
    }

    /// Page-cache counters (`/healthz`, the bench harness).
    pub fn cache_stats(&self) -> CacheStats {
        self.store.cache_stats()
    }

    /// Explains the prediction of context row `target` — the paged
    /// equivalent of [`ContextIndex::explain`](crate::ContextIndex::explain).
    ///
    /// # Errors
    /// Same failure modes as the in-RAM path, plus
    /// [`ExplainError::Storage`] when a page cannot be faulted in.
    pub fn explain_row(&self, target: usize, alpha: Alpha) -> Result<RelativeKey, ExplainError> {
        self.explain_row_budgeted(target, alpha, WorkBudget::unlimited())
            .map(|b| b.key)
    }

    /// Budgeted row explain; see
    /// [`ContextIndex::explain_budgeted_with`](crate::ContextIndex::explain_budgeted_with).
    ///
    /// # Errors
    /// Same failure modes as [`PagedContextIndex::explain_row`].
    pub fn explain_row_budgeted(
        &self,
        target: usize,
        alpha: Alpha,
        budget: WorkBudget,
    ) -> Result<BudgetedKey, ExplainError> {
        // Mirrors `Context::check_target`: empty before out-of-range.
        let rows = self.store.rows();
        if rows == 0 {
            return Err(ExplainError::EmptyContext);
        }
        if target >= rows {
            return Err(ExplainError::TargetOutOfRange { target, len: rows });
        }
        let (x0, p0, twins) = self.store.row(target).map_err(storage_err)?;
        self.explain_value_core(&x0, p0, alpha, budget, Some(twins as usize))
    }

    /// Value-addressed explain over the paged columns. Addressing is by
    /// `(x₀, p₀)` exactly as in the in-RAM index, so row-addressed
    /// and value-addressed paged explains agree with their in-RAM
    /// counterparts byte for byte.
    ///
    /// # Errors
    /// Same failure modes as the in-RAM value core, plus
    /// [`ExplainError::ValueOutOfRange`] for codes outside the schema
    /// and [`ExplainError::Storage`] for fault failures.
    pub fn explain_value(
        &self,
        x0: &Instance,
        p0: Label,
        alpha: Alpha,
        budget: WorkBudget,
    ) -> Result<BudgetedKey, ExplainError> {
        // No stored certificate: the driver finds unsatisfiability by
        // exhaustion, with the same error.
        self.explain_value_core(x0, p0, alpha, budget, None)
    }

    /// Validates a value-addressed target and runs the greedy driver over
    /// the paged columns; `twin_certificate` is row `target`'s stored
    /// contradiction count when the caller is row-addressed.
    fn explain_value_core(
        &self,
        x0: &Instance,
        p0: Label,
        alpha: Alpha,
        budget: WorkBudget,
        twin_certificate: Option<usize>,
    ) -> Result<BudgetedKey, ExplainError> {
        let live = self.store.rows();
        if live == 0 {
            return Err(ExplainError::EmptyContext);
        }
        let geom = self.store.geometry();
        let n = geom.cards.len();
        if x0.len() != n {
            return Err(ExplainError::WidthMismatch {
                expected: n,
                got: x0.len(),
            });
        }
        for (f, &card) in geom.cards.iter().enumerate() {
            if x0[f] as usize >= card {
                return Err(ExplainError::ValueOutOfRange {
                    feature: f,
                    value: x0[f],
                    cardinality: card,
                });
            }
        }
        let dir = self.store.directory();
        let Some(ci) = dir.classes.iter().position(|c| c.label == p0) else {
            return Err(ExplainError::UnknownInstance);
        };
        let class_size = dir.classes[ci].size;
        let seeds = (0..n)
            .map(|f| dir.classes[ci].seed[f][x0[f] as usize])
            .collect();
        let posting_col = (0..n).map(|f| geom.value_col(f, x0[f] as usize)).collect();
        let class_col = geom.class_col(ci);
        let pooled = self.pool().pop();
        let mut scratch = pooled.unwrap_or_else(|| Scratch {
            violators: vec![0; geom.words],
            supporters: vec![0; geom.words],
            heap: CandidateHeap::default(),
        });
        let mut src = PagedCounts {
            store: &self.store,
            violators: &mut scratch.violators,
            supporters: &mut scratch.supporters,
            posting_col,
            seeds,
            class_col,
            class_size,
            twin_certificate,
            materialized: false,
        };
        let run = greedy::run(&mut src, alpha, budget, &mut scratch.heap);
        self.pool().push(scratch);
        let run = run.map_err(storage_err)?;
        record_run!("paged", &run);
        run.result
    }

    /// The idle-scratch pool, locked. It only ever holds whole
    /// scratches, so a poisoned lock is taken over.
    fn pool(&self) -> MutexGuard<'_, Vec<Scratch>> {
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
