//! A reusable micro-batch explanation engine for serving — now
//! **churn-capable**: the engine survives context mutation.
//!
//! [`Cce::explain_all_parallel`] amortizes one [`ContextIndex`] and the
//! duplicate-row memoizer across a *whole-context* batch; a serving
//! front end instead sees a stream of small, arbitrary target sets — the
//! micro-batches a request coalescer forms — interleaved with context
//! churn (arrivals and evictions). [`BatchEngine`] keeps the expensive
//! shared state alive across both:
//!
//! * **ΔI deltas instead of rebuilds** — [`BatchEngine::push`] and
//!   [`BatchEngine::evict_oldest`] patch the [`ContextIndex`] in place
//!   ([`ContextIndex::insert_row`] / [`ContextIndex::remove_row`]):
//!   generational slot tombstones, seed-table cell deltas, and an
//!   incremental twin-hash certificate, costing microseconds where a
//!   rebuild costs `O(n·|I|)` bitset passes. Once tombstone density
//!   crosses [`EngineConfig::max_tombstone_ratio`] the engine *compacts*:
//!   one dense rebuild over the live rows reclaims the dead bitset width.
//! * **Duplicate-target memoization, within and across batches** —
//!   targets with identical `(instance, prediction)` rows provably
//!   receive identical keys, so each equivalence class in a batch is
//!   explained once and the result fanned out
//!   (`cce_batch_memo_hits_total`); results are additionally memoized
//!   *across* batches keyed by `(instance, prediction, budget)`
//!   (`cce_engine_memo_hits_total`). The **memo-invalidation rule**: any
//!   delta bumps [`BatchEngine::version`] and clears the memo — every
//!   cached key is provably valid for exactly one context version —
//!   and compaction clears it too.
//! * **Budgeted degradation** — a non-unlimited [`WorkBudget`] routes
//!   through the budget-accounted indexed path, byte-identical to
//!   [`Srk::explain_budgeted`] including its degradation points, so an
//!   overloaded server can trade key completeness for bounded latency
//!   per target and report the [`ExplainStatus`] honestly.
//! * **Scoped parallelism** — distinct classes of one batch fan out over
//!   up to `threads` scoped workers; results are returned in input order.
//!
//! Targets are addressed by **logical index**: position in arrival order
//! among the live rows (identical to the row index when no eviction has
//! happened). Every explain path is differentially tested to match
//! [`Srk::explain`] over the materialized live context exactly.
//!
//! [`Cce::explain_all_parallel`]: crate::Cce::explain_all_parallel
//! [`Srk::explain`]: crate::Srk::explain
//! [`Srk::explain_budgeted`]: crate::Srk::explain_budgeted

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use cce_dataset::{Instance, Label, Schema};

use crate::alpha::Alpha;
use crate::context::Context;
use crate::error::ExplainError;
use crate::fanout::fan_out;
use crate::index::{ContextIndex, ExplainScratch};
use crate::srk::{BudgetedKey, WorkBudget};

/// Tunables for a [`BatchEngine`], beyond the context and α.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Tombstone density (`tombstones / slot_rows`) beyond which the
    /// engine compacts the index after an eviction.
    pub max_tombstone_ratio: f64,
    /// Never compact below this many slots — at toy sizes a rebuild is
    /// cheaper than the bookkeeping, and the ratio is noisy.
    pub compact_min_slots: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_tombstone_ratio: 0.5,
            compact_min_slots: 1024,
        }
    }
}

/// Shared explanation state amortized across micro-batches and kept
/// alive across context churn (see the module docs).
#[derive(Debug)]
pub struct BatchEngine {
    schema: Arc<Schema>,
    alpha: Alpha,
    max_tombstone_ratio: f64,
    compact_min_slots: usize,
    idx: ContextIndex,
    /// Slot-addressed row storage; tombstoned slots keep their (stale)
    /// data until compaction reclaims them.
    rows: Vec<(Instance, Label)>,
    /// Live slots in arrival order — the logical-index → slot map.
    order: VecDeque<u32>,
    /// Bumped by every delta; each memo entry is valid for exactly one
    /// version (the memo-invalidation rule).
    version: u64,
    /// Instance → `(prediction, budget.max_scans, result)` of each
    /// duplicate class explained at this version; cleared on version
    /// bump. Keyed by content, so the duplicate-row partition costs
    /// nothing to keep across deltas.
    memo: Mutex<HashMap<Instance, Vec<Memoized>>>,
}

/// One memoized explain: `(prediction, budget.max_scans, result)`.
type Memoized = (Label, u64, Result<BudgetedKey, ExplainError>);

impl Clone for BatchEngine {
    fn clone(&self) -> Self {
        Self {
            schema: Arc::clone(&self.schema),
            alpha: self.alpha,
            max_tombstone_ratio: self.max_tombstone_ratio,
            compact_min_slots: self.compact_min_slots,
            idx: self.idx.clone(),
            rows: self.rows.clone(),
            order: self.order.clone(),
            version: self.version,
            memo: Mutex::new(self.memo.lock().unwrap_or_else(|e| e.into_inner()).clone()),
        }
    }
}

impl BatchEngine {
    /// Builds the engine over a context snapshot: one index build, one
    /// duplicate-class partition, reused for every later batch and
    /// patched in place by every later delta.
    pub fn new(ctx: Context, alpha: Alpha) -> Self {
        Self::with_config(ctx, alpha, EngineConfig::default())
    }

    /// [`BatchEngine::new`] with explicit [`EngineConfig`] — the serve
    /// daemon's constructor.
    pub fn with_config(ctx: Context, alpha: Alpha, cfg: EngineConfig) -> Self {
        let idx = ContextIndex::new(&ctx);
        let schema = ctx.schema_arc();
        let n = ctx.len();
        let mut rows: Vec<(Instance, Label)> = Vec::with_capacity(n);
        for r in 0..n {
            rows.push((ctx.instance(r).clone(), ctx.prediction(r)));
        }
        Self {
            schema,
            alpha,
            max_tombstone_ratio: cfg.max_tombstone_ratio,
            compact_min_slots: cfg.compact_min_slots,
            idx,
            rows,
            order: (0..n as u32).collect(),
            version: 0,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The schema every row conforms to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The conformity bound every produced key targets.
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// Live rows (logical indices `0..len()` are explainable targets).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the live context is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Context version: bumped by every delta. A memoized or cached
    /// result is valid only against the version it was computed at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Tombstoned slots awaiting compaction.
    pub fn tombstones(&self) -> usize {
        self.idx.tombstones()
    }

    /// Live rows in arrival order (persistence and materialization).
    pub fn rows_in_order(&self) -> impl Iterator<Item = (&Instance, Label)> {
        self.order.iter().map(|&s| {
            let (x, p) = &self.rows[s as usize];
            (x, *p)
        })
    }

    /// Materializes the live context in arrival order — compaction-
    /// and tombstone-free, the reference the differential tests rebuild
    /// from.
    pub fn materialize(&self) -> Context {
        let mut xs = Vec::with_capacity(self.order.len());
        let mut ps = Vec::with_capacity(self.order.len());
        for (x, p) in self.rows_in_order() {
            xs.push(x.clone());
            ps.push(p);
        }
        Context::new(Arc::clone(&self.schema), xs, ps)
    }

    fn bump_version(&mut self) {
        self.version += 1;
        self.memo.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Applies one arrival delta: patches the index in place and appends
    /// the row at the top of the logical order. Returns the row's
    /// logical index (== `len() - 1`).
    ///
    /// # Errors
    /// [`ExplainError::WidthMismatch`] on a wrong-width instance (the
    /// engine is left untouched).
    pub fn push(&mut self, x: Instance, pred: Label) -> Result<usize, ExplainError> {
        let slot = self.idx.insert_row(&x, pred)?;
        debug_assert_eq!(slot, self.rows.len());
        self.rows.push((x, pred));
        self.order.push_back(slot as u32);
        self.bump_version();
        Ok(self.order.len() - 1)
    }

    /// Applies eviction deltas for the `k` oldest live rows (fewer if
    /// the context is smaller), then compacts if tombstone density
    /// crossed the threshold. Returns rows evicted.
    pub fn evict_oldest(&mut self, k: usize) -> usize {
        let k = k.min(self.order.len());
        for _ in 0..k {
            let slot = self.order.pop_front().expect("len checked") as usize;
            let (x, p) = &self.rows[slot];
            self.idx.remove_row(slot, x, *p);
        }
        if k > 0 {
            self.reclaim_tail();
            self.bump_version();
            self.maybe_compact();
        }
        k
    }

    /// Shrinks slot storage in lockstep with the index's trailing-
    /// tombstone reclamation (popped slots are dead, so their stale row
    /// data can go too).
    fn reclaim_tail(&mut self) {
        if self.idx.truncate_dead_tail() > 0 {
            self.rows.truncate(self.idx.slot_rows());
        }
    }

    /// Tombstone density over the slot universe (0 when empty).
    pub fn tombstone_ratio(&self) -> f64 {
        if self.idx.slot_rows() == 0 {
            0.0
        } else {
            self.idx.tombstones() as f64 / self.idx.slot_rows() as f64
        }
    }

    fn maybe_compact(&mut self) {
        if self.idx.slot_rows() >= self.compact_min_slots
            && self.tombstone_ratio() > self.max_tombstone_ratio
        {
            self.compact();
        }
    }

    /// Compacts: rebuilds the index dense over the live rows and
    /// renumbers slots to `0..len()`. Logical indices, explain results,
    /// and the materialized context are unchanged; the memo is cleared
    /// with the version bump.
    pub fn compact(&mut self) {
        let ctx = self.materialize();
        cce_obs::counter!("cce_engine_compactions_total").inc();
        *self = Self::with_config(
            ctx,
            self.alpha,
            EngineConfig {
                max_tombstone_ratio: self.max_tombstone_ratio,
                compact_min_slots: self.compact_min_slots,
            },
        );
        // Compaction is a physical reorganization, but it is still a new
        // context version: caches keyed by version must not survive it.
        self.version += 1;
    }

    /// Explains one logical target through the shared index and the
    /// cross-batch memo. Identical output to [`Srk::explain_budgeted`]
    /// over the materialized context.
    ///
    /// # Errors
    /// Same failure modes as [`Srk::explain_budgeted`].
    ///
    /// [`Srk::explain_budgeted`]: crate::Srk::explain_budgeted
    pub fn explain_one(
        &self,
        target: usize,
        budget: WorkBudget,
    ) -> Result<BudgetedKey, ExplainError> {
        let Some(&slot) = self.order.get(target) else {
            return Err(self.range_error(target));
        };
        if let Some(hit) = self.memo_get(slot, budget) {
            return hit;
        }
        let result = self.explain_slot(slot as usize, budget, &mut ExplainScratch::new());
        self.memo_put(slot, budget, &result);
        result
    }

    fn range_error(&self, target: usize) -> ExplainError {
        if self.order.is_empty() {
            ExplainError::EmptyContext
        } else {
            ExplainError::TargetOutOfRange {
                target,
                len: self.order.len(),
            }
        }
    }

    /// The memoized result for slot `slot`'s duplicate class under
    /// `budget`, if any.
    fn memo_get(&self, slot: u32, budget: WorkBudget) -> Option<Result<BudgetedKey, ExplainError>> {
        let (x, p) = &self.rows[slot as usize];
        let memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        let hit = memo
            .get(x)?
            .iter()
            .find_map(|(q, scans, r)| (q == p && *scans == budget.max_scans).then(|| r.clone()));
        if hit.is_some() {
            cce_obs::counter!("cce_engine_memo_hits_total").inc();
        }
        hit
    }

    fn memo_put(&self, slot: u32, budget: WorkBudget, result: &Result<BudgetedKey, ExplainError>) {
        let (x, p) = &self.rows[slot as usize];
        let entry = (*p, budget.max_scans, result.clone());
        let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
        match memo.get_mut(x) {
            Some(entries) => entries.push(entry),
            None => {
                memo.insert(x.clone(), vec![entry]);
            }
        }
    }

    /// Explains `(x, pred)` as a *transient member* of the context: the
    /// pair joins via an insert delta, is explained in place, and its
    /// slot is removed and reclaimed — the sliding window's
    /// explain-a-visitor path, byte-identical to materializing the
    /// context, appending the target, and running [`Srk::explain`].
    /// State (and [`BatchEngine::version`]) is unchanged on return.
    ///
    /// # Errors
    /// Same failure modes as [`Srk::explain`] over the joined context.
    ///
    /// [`Srk::explain`]: crate::Srk::explain
    pub fn explain_adhoc(
        &mut self,
        x: &Instance,
        pred: Label,
    ) -> Result<BudgetedKey, ExplainError> {
        let slot = self.idx.insert_row(x, pred)?;
        let result = self.idx.explain_value(
            x,
            pred,
            self.alpha,
            WorkBudget::unlimited(),
            &mut ExplainScratch::new(),
        );
        self.idx.remove_row(slot, x, pred);
        self.reclaim_tail();
        result
    }

    /// Explains a micro-batch of logical targets, memoizing duplicate
    /// rows (within the batch and across batches of one version) and
    /// fanning the per-class work over up to `threads` scoped workers.
    ///
    /// Returns one entry per input target, in input order. Each entry is
    /// exactly what a per-request [`Srk::explain_budgeted`] call with the
    /// same budget would have produced over the materialized context
    /// (duplicate targets share one computation, which is provably
    /// identical for all of them).
    ///
    /// [`Srk::explain_budgeted`]: crate::Srk::explain_budgeted
    pub fn explain_batch(
        &self,
        targets: &[usize],
        budget: WorkBudget,
        threads: usize,
    ) -> Vec<Result<BudgetedKey, ExplainError>> {
        // Unique duplicate classes among the valid targets, first-seen
        // order, each with a representative slot.
        let mut unique_of: HashMap<(&Instance, Label), usize> =
            HashMap::with_capacity(targets.len());
        let mut uniques: Vec<u32> = Vec::with_capacity(targets.len());
        for &t in targets {
            if let Some(&slot) = self.order.get(t) {
                let (x, p) = &self.rows[slot as usize];
                unique_of.entry((x, *p)).or_insert_with(|| {
                    uniques.push(slot);
                    uniques.len() - 1
                });
            }
        }
        cce_obs::counter!("cce_batch_memo_classes_total").add(uniques.len() as u64);
        cce_obs::counter!("cce_batch_memo_hits_total")
            .add((targets.len() - uniques.len()).min(targets.len()) as u64);
        cce_obs::histogram!("cce_microbatch_size").record(targets.len() as u64);

        // Cross-batch memo probe: only the missing classes compute.
        let mut results: Vec<Option<Result<BudgetedKey, ExplainError>>> = uniques
            .iter()
            .map(|&slot| self.memo_get(slot, budget))
            .collect();
        let misses: Vec<(usize, u32)> = results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(i, _)| (i, uniques[i]))
            .collect();
        let computed = self.explain_classes(&misses, budget, threads);
        for ((i, slot), result) in misses.iter().zip(computed) {
            self.memo_put(*slot, budget, &result);
            results[*i] = Some(result);
        }

        targets
            .iter()
            .map(|&t| {
                let Some(&slot) = self.order.get(t) else {
                    return Err(self.range_error(t));
                };
                let (x, p) = &self.rows[slot as usize];
                results[unique_of[&(x, *p)]]
                    .clone()
                    .expect("every unique was resolved")
            })
            .collect()
    }

    /// Explains each representative slot once, fanned out over up to
    /// `threads` workers. A slot a worker panicked on is recomputed on
    /// the caller, so a repeatable panic propagates to the caller.
    fn explain_classes(
        &self,
        misses: &[(usize, u32)],
        budget: WorkBudget,
        threads: usize,
    ) -> Vec<Result<BudgetedKey, ExplainError>> {
        let explain = |i: usize, scratch: &mut ExplainScratch| {
            self.explain_slot(misses[i].1 as usize, budget, scratch)
        };
        fan_out(misses.len(), threads, explain)
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| explain(i, &mut ExplainScratch::new())))
            .collect()
    }

    /// One representative explain, always through the index: lazy-greedy
    /// when unlimited (identical to [`Srk::explain`]), budget-accounted
    /// otherwise (identical to [`Srk::explain_budgeted`]).
    ///
    /// [`Srk::explain`]: crate::Srk::explain
    /// [`Srk::explain_budgeted`]: crate::Srk::explain_budgeted
    fn explain_slot(
        &self,
        slot: usize,
        budget: WorkBudget,
        scratch: &mut ExplainScratch,
    ) -> Result<BudgetedKey, ExplainError> {
        let (x, p) = &self.rows[slot];
        self.idx.explain_value(x, *p, self.alpha, budget, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srk::Srk;
    use cce_dataset::{synth, BinSpec};

    fn loan_ctx(rows: usize) -> Context {
        let raw = synth::loan::generate(rows, 42);
        let ds = raw.encode(&BinSpec::uniform(6));
        Context::from_recorded(&ds)
    }

    fn loan_engine(rows: usize, alpha: f64) -> BatchEngine {
        BatchEngine::new(loan_ctx(rows), Alpha::new(alpha).unwrap())
    }

    #[test]
    fn batch_matches_per_request_srk() {
        let engine = loan_engine(400, 1.0);
        let srk = Srk::new(engine.alpha());
        let ctx = engine.materialize();
        let targets: Vec<usize> = (0..engine.len()).step_by(7).collect();
        for threads in [1, 4] {
            let batch = engine.explain_batch(&targets, WorkBudget::unlimited(), threads);
            assert_eq!(batch.len(), targets.len());
            for (&t, got) in targets.iter().zip(&batch) {
                let want = srk.explain_budgeted(&ctx, t, WorkBudget::unlimited());
                assert_eq!(&want, got, "target {t}, threads {threads}");
            }
        }
    }

    #[test]
    fn duplicate_targets_share_one_result() {
        let engine = loan_engine(200, 0.95);
        let targets = [3, 3, 3, 5, 3];
        let out = engine.explain_batch(&targets, WorkBudget::unlimited(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0], out[2]);
        assert_eq!(out[0], out[4]);
    }

    #[test]
    fn budgeted_batch_degrades_like_srk() {
        let engine = loan_engine(300, 1.0);
        let srk = Srk::new(engine.alpha());
        let ctx = engine.materialize();
        let budget = WorkBudget::new(50);
        let targets: Vec<usize> = (0..60).collect();
        let batch = engine.explain_batch(&targets, budget, 3);
        for (&t, got) in targets.iter().zip(&batch) {
            assert_eq!(&srk.explain_naive_budgeted(&ctx, t, budget), got);
        }
        assert!(
            batch.iter().flatten().any(|b| !b.status.is_complete()),
            "a 50-scan budget should degrade some 300-row Loan targets"
        );
    }

    #[test]
    fn out_of_range_targets_error_individually() {
        let engine = loan_engine(50, 1.0);
        let out = engine.explain_batch(&[1, 999, 2], WorkBudget::unlimited(), 1);
        assert!(out[0].is_ok());
        assert!(matches!(
            out[1],
            Err(ExplainError::TargetOutOfRange { target: 999, .. })
        ));
        assert!(out[2].is_ok());
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = loan_engine(50, 1.0);
        assert!(engine
            .explain_batch(&[], WorkBudget::unlimited(), 4)
            .is_empty());
    }

    #[test]
    fn churned_engine_matches_fresh_engine() {
        // Interleave pushes and evictions, then require every logical
        // target's key to equal a from-scratch engine over the
        // materialized live context — the patched-index ≡ rebuild
        // guarantee at the engine level.
        let pool = loan_ctx(300);
        let mut engine = BatchEngine::new(loan_ctx(120), Alpha::ONE);
        let v0 = engine.version();
        for r in 0..90 {
            engine
                .push(pool.instance(r).clone(), pool.prediction(r))
                .unwrap();
            if r % 3 == 0 {
                engine.evict_oldest(2);
            }
        }
        assert!(engine.version() > v0);
        assert!(engine.tombstones() > 0, "interior tombstones expected");
        let fresh = BatchEngine::new(engine.materialize(), Alpha::ONE);
        assert_eq!(engine.len(), fresh.len());
        let targets: Vec<usize> = (0..engine.len()).collect();
        for budget in [WorkBudget::unlimited(), WorkBudget::new(60)] {
            assert_eq!(
                engine.explain_batch(&targets, budget, 2),
                fresh.explain_batch(&targets, budget, 2),
            );
        }
    }

    #[test]
    fn forced_compaction_preserves_results() {
        let cfg = EngineConfig {
            compact_min_slots: 1,
            max_tombstone_ratio: 0.1,
        };
        let mut engine = BatchEngine::with_config(loan_ctx(200), Alpha::ONE, cfg);
        let before_all: Vec<_> = engine.explain_batch(
            &(0..engine.len()).collect::<Vec<_>>(),
            WorkBudget::unlimited(),
            2,
        );
        // Evicting 40 rows crosses the 10% ratio repeatedly → compactions.
        engine.evict_oldest(40);
        assert_eq!(engine.tombstones(), 0, "compaction reclaimed tombstones");
        let after: Vec<_> = engine.explain_batch(
            &(0..engine.len()).collect::<Vec<_>>(),
            WorkBudget::unlimited(),
            2,
        );
        // Logical index i after eviction corresponds to old index i + 40.
        for (i, got) in after.iter().enumerate() {
            let fresh = BatchEngine::new(engine.materialize(), Alpha::ONE)
                .explain_one(i, WorkBudget::unlimited());
            assert_eq!(got, &fresh, "target {i}");
        }
        assert_eq!(before_all.len(), 200);
    }

    #[test]
    fn adhoc_matches_temporary_join() {
        let mut engine = loan_engine(150, 1.0);
        let pool = loan_ctx(300);
        let srk = Srk::new(engine.alpha());
        let v = engine.version();
        for r in (150..300).step_by(17) {
            let (x, p) = (pool.instance(r).clone(), pool.prediction(r));
            let got = engine.explain_adhoc(&x, p).map(|b| b.key);
            let mut joined = engine.materialize();
            joined.push(x, p).unwrap();
            let want = srk.explain(&joined, joined.len() - 1);
            assert_eq!(got, want, "target {r}");
        }
        assert_eq!(engine.version(), v, "adhoc must not invalidate the memo");
        assert_eq!(engine.tombstones(), 0, "adhoc must reclaim its slot");
    }

    #[test]
    fn memo_survives_batches_and_dies_on_delta() {
        let mut engine = loan_engine(120, 1.0);
        let first = engine.explain_one(5, WorkBudget::unlimited());
        // Second call is a memo hit — must be identical, not just equal.
        assert_eq!(first, engine.explain_one(5, WorkBudget::unlimited()));
        // Budgeted results memoize under their own key.
        let b = WorkBudget::new(30);
        assert_eq!(engine.explain_one(5, b), engine.explain_one(5, b));
        // A delta invalidates: the fresh result must match a fresh engine.
        let pool = loan_ctx(130);
        engine
            .push(pool.instance(125).clone(), pool.prediction(125))
            .unwrap();
        let fresh = BatchEngine::new(engine.materialize(), Alpha::ONE);
        assert_eq!(
            engine.explain_one(5, WorkBudget::unlimited()),
            fresh.explain_one(5, WorkBudget::unlimited()),
        );
    }

    #[test]
    fn eviction_shifts_logical_indices() {
        let mut engine = loan_engine(100, 1.0);
        let want = engine.explain_one(10, WorkBudget::unlimited());
        engine.evict_oldest(10);
        assert_eq!(engine.len(), 90);
        let got = engine.explain_one(0, WorkBudget::unlimited());
        assert_eq!(want, got, "old index 10 is new index 0");
        // Draining everything empties the context.
        engine.evict_oldest(1000);
        assert!(engine.is_empty());
        assert!(matches!(
            engine.explain_one(0, WorkBudget::unlimited()),
            Err(ExplainError::EmptyContext)
        ));
    }

    /// Draining the engine reclaims every slot; later pushes reuse the
    /// slots for different `(x, p)` rows, and no two distinct targets of
    /// one batch may share a key.
    #[test]
    fn pushes_after_a_drain_keep_distinct_classes() {
        let old = loan_ctx(60);
        let mut engine = BatchEngine::new(old.clone(), Alpha::ONE);
        assert_eq!(engine.evict_oldest(engine.len()), 60);
        let fresh_rows = {
            let raw = synth::loan::generate(40, 7);
            Context::from_recorded(&raw.encode(&BinSpec::uniform(6)))
        };
        for r in 0..fresh_rows.len() {
            let (x, p) = (fresh_rows.instance(r).clone(), fresh_rows.prediction(r));
            engine.push(x, p).unwrap();
            let (x, p) = (old.instance(r).clone(), old.prediction(r));
            engine.push(x, p).unwrap();
        }
        let srk = Srk::new(engine.alpha());
        let ctx = engine.materialize();
        let targets: Vec<usize> = (0..engine.len()).collect();
        for threads in [1, 2] {
            let batch = engine.explain_batch(&targets, WorkBudget::unlimited(), threads);
            for (&t, got) in targets.iter().zip(&batch) {
                let want = srk.explain_budgeted(&ctx, t, WorkBudget::unlimited());
                assert_eq!(&want, got, "target {t}, threads {threads}");
            }
        }
    }

    #[test]
    fn push_rejects_width_mismatch() {
        let mut engine = loan_engine(50, 1.0);
        let err = engine.push(Instance::new(vec![1]), Label(0)).unwrap_err();
        assert!(matches!(err, ExplainError::WidthMismatch { .. }));
        assert_eq!(engine.len(), 50, "engine untouched after rejection");
    }

    /// An out-of-cardinality value code must be rejected at the delta
    /// boundary — silently admitting it used to panic the seed-table
    /// argmax when the row was later explained as a target.
    #[test]
    fn push_rejects_out_of_cardinality_value() {
        let mut engine = loan_engine(50, 1.0);
        let version = engine.version();
        let mut bad: Vec<u32> = engine.materialize().instance(0).values().to_vec();
        bad[0] = u32::MAX;
        let err = engine.push(Instance::new(bad), Label(0)).unwrap_err();
        assert!(matches!(
            err,
            ExplainError::ValueOutOfRange { feature: 0, .. }
        ));
        assert_eq!(engine.len(), 50, "engine untouched after rejection");
        assert_eq!(engine.version(), version, "no delta applied");
        // Every existing target still explains fine.
        let targets: Vec<usize> = (0..engine.len()).collect();
        for r in engine.explain_batch(&targets, WorkBudget::unlimited(), 2) {
            assert!(!matches!(
                r,
                Err(ExplainError::ValueOutOfRange { .. } | ExplainError::TargetOutOfRange { .. })
            ));
        }
    }
}
