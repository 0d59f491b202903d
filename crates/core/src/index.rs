//! A bitset posting-list index over a context, accelerating repeated key
//! computation.
//!
//! `Srk::explain` spends its time counting, for every candidate feature,
//! how many live violators share the target's value. The index
//! precomputes one bitset per `(feature, value)` pair and one per
//! prediction class; the greedy step then reduces to `AND` + `popcount`
//! over `u64` words — a large constant-factor win that pays for itself as
//! soon as a handful of instances of the *same* context are explained
//! (the `explain_all` / evaluation workload).
//!
//! The word-level inner loops live in [`crate::kernels`]: runtime-
//! dispatched AVX2/NEON SIMD with the portable scalar path as fallback
//! and differential-testing oracle.
//!
//! The index is a count source for the one lazy-greedy driver
//! ([`crate::greedy`]): scores are `count_and` passes over the live
//! bitsets, round-0 seeds are tabulated at build time
//! (`ClassIndex::seed`), and the first pick materializes the live sets
//! fused with its intersection (`posting ∩ ¬class`).
//!
//! # Live-set buffers
//!
//! Each thread keeps one pair of live-set bitsets (`with_live_sets`),
//! shared by every explain and [`ContextIndex::round_counts`] it runs,
//! in RAM or paged. They grow to the widest context the thread has
//! explained and are freed when it exits. No count source reads them
//! before its first pick overwrites both, so a set left over from
//! another context, or from a panic, is never consulted.
//!
//! # Tail-bit invariant
//!
//! Every `RowSet` keeps its padding bits — bit positions at or above
//! `rows` in the last word — **clear at all times**. Constructors start
//! zeroed, `set` refuses out-of-range rows, `grow` adds clear bits, and
//! intersections only clear bits; every kernel entry checks the
//! invariant with
//! `RowSet::debug_assert_tail_clear`. This is what lets the fused
//! kernels skip per-call tail masking entirely (`b ∩ ¬a` is clean
//! because `b` is), at every `rows % 64` shape and SIMD lane width.

use std::cell::RefCell;
use std::collections::HashMap;
use std::convert::Infallible;

use cce_dataset::{Instance, Label};

use crate::alpha::Alpha;
use crate::context::Context;
use crate::error::ExplainError;
use crate::greedy::{self, record_run, CountSource};
use crate::kernels;
use crate::key::RelativeKey;
use crate::srk::{BudgetedKey, WorkBudget};

/// A dense bitset over context rows.
///
/// Padding bits above `rows` are always clear (the tail-bit invariant;
/// see the module docs). All word-level work is delegated to the
/// process-selected [`crate::kernels`] implementation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RowSet {
    words: Vec<u64>,
    /// Logical universe size; bits at or above it are zero.
    rows: usize,
}

impl RowSet {
    fn zeros(rows: usize) -> Self {
        Self {
            words: vec![0; rows.div_ceil(64)],
            rows,
        }
    }

    fn set(&mut self, row: usize) {
        debug_assert!(row < self.rows, "set({row}) beyond rows={}", self.rows);
        self.words[row / 64] |= 1 << (row % 64);
    }

    /// Clears one bit (freeing a slot keeps the tail invariant: only
    /// bits *below* `rows` are touched).
    fn clear(&mut self, row: usize) {
        debug_assert!(row < self.rows, "clear({row}) beyond rows={}", self.rows);
        self.words[row / 64] &= !(1 << (row % 64));
    }

    /// Whether `row` is set.
    fn get(&self, row: usize) -> bool {
        debug_assert!(row < self.rows, "get({row}) beyond rows={}", self.rows);
        self.words[row / 64] & (1 << (row % 64)) != 0
    }

    /// Extends the universe by one (clear) slot, pushing a fresh word
    /// only at 64-slot boundaries — the amortized-O(1) insert path.
    fn grow(&mut self) {
        self.rows += 1;
        if self.words.len() < self.rows.div_ceil(64) {
            self.words.push(0);
        }
    }

    /// Checks the tail-bit invariant (debug builds only): every bit at
    /// or above `rows` must be clear. Called on entry to every kernel so
    /// a constructor or mutator that leaks garbage above `rows` fails
    /// the nearest differential test instead of silently corrupting
    /// counts.
    #[inline]
    fn debug_assert_tail_clear(&self) {
        debug_assert_eq!(self.words.len(), self.rows.div_ceil(64));
        if cfg!(debug_assertions) {
            let tail = self.rows % 64;
            if tail != 0 {
                if let Some(last) = self.words.last() {
                    debug_assert_eq!(
                        last & !((1u64 << tail) - 1),
                        0,
                        "tail bits above rows={} are set",
                        self.rows
                    );
                }
            }
        }
    }

    fn count(&self) -> usize {
        self.debug_assert_tail_clear();
        (kernels::active().count)(&self.words) as usize
    }

    /// Fused `(|self ∩ a|, |self ∩ b|)` in a single pass over the words.
    ///
    /// The seed-table build needs a posting's coverage against every
    /// class; fusing two classes per pass halves the passes over the
    /// posting words.
    fn count_and2(&self, a: &RowSet, b: &RowSet) -> (usize, usize) {
        self.debug_assert_tail_clear();
        a.debug_assert_tail_clear();
        b.debug_assert_tail_clear();
        debug_assert_eq!(self.words.len(), a.words.len());
        debug_assert_eq!(self.words.len(), b.words.len());
        let (ca, cb) = (kernels::active().count_and2)(&self.words, &a.words, &b.words);
        (ca as usize, cb as usize)
    }

    /// `|self ∩ other|`.
    fn count_and(&self, other: &RowSet) -> usize {
        self.debug_assert_tail_clear();
        other.debug_assert_tail_clear();
        debug_assert_eq!(self.words.len(), other.words.len());
        (kernels::active().count_and)(&self.words, &other.words) as usize
    }

    /// `self ∩= other`, returning the new cardinality so the loop head
    /// never re-popcounts the whole set.
    fn and_assign_count(&mut self, other: &RowSet) -> usize {
        self.debug_assert_tail_clear();
        other.debug_assert_tail_clear();
        debug_assert_eq!(self.words.len(), other.words.len());
        (kernels::active().and_assign_count)(&mut self.words, &other.words) as usize
    }

    /// Overwrites `self` with `b ∩ ¬a`, returning the new cardinality —
    /// the fused first-pick materialization of the violator set
    /// (`posting ∩ ¬class`) in a single pass. `b`'s clear tail keeps the
    /// result's tail clear without masking.
    fn copy_and_not_count(&mut self, b: &RowSet, a: &RowSet) -> usize {
        b.debug_assert_tail_clear();
        a.debug_assert_tail_clear();
        debug_assert_eq!(b.words.len(), a.words.len());
        self.rows = b.rows;
        self.words.resize(b.words.len(), 0);
        (kernels::active().and_not_count)(&mut self.words, &b.words, &a.words) as usize
    }

    /// `self ∩= other`.
    fn and_assign(&mut self, other: &RowSet) {
        self.debug_assert_tail_clear();
        other.debug_assert_tail_clear();
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Overwrites `self` with `a ∩ b`, reusing the allocation.
    fn copy_and_from(&mut self, a: &RowSet, b: &RowSet) {
        a.debug_assert_tail_clear();
        b.debug_assert_tail_clear();
        self.rows = a.rows;
        self.words.clear();
        self.words
            .extend(a.words.iter().zip(&b.words).map(|(x, y)| x & y));
    }

    /// The raw word buffer — read access for the pagestore writer, which
    /// re-frames these exact words into CRC'd pages (so the on-disk
    /// columns inherit the tail-bit invariant for free).
    pub(crate) fn word_slice(&self) -> &[u64] {
        &self.words
    }

    /// Resizes the set to `rows` and hands out its words, unreset: for
    /// a paged source whose first pick overwrites every word before any
    /// is read.
    pub(crate) fn words_for(&mut self, rows: usize) -> &mut [u64] {
        self.rows = rows;
        self.words.resize(rows.div_ceil(64), 0);
        &mut self.words
    }
}

thread_local! {
    /// This thread's live violator and supporter sets; see the module
    /// docs.
    static LIVE_SETS: RefCell<(RowSet, RowSet)> = RefCell::default();
}

/// Runs `f` on this thread's live violator and supporter sets, as the
/// last user left them (see the module docs).
pub(crate) fn with_live_sets<R>(f: impl FnOnce(&mut RowSet, &mut RowSet) -> R) -> R {
    LIVE_SETS.with_borrow_mut(|(violators, supporters)| f(violators, supporters))
}

/// One prediction class of the indexed context, with its round-0 seed
/// scores.
///
/// The first greedy round scores every candidate feature against the
/// *initial* live sets, which depend on the target only through its
/// class: violator survivors are `|posting ∩ ¬class|` and supporter
/// coverage is `|posting ∩ class|`. Both are constants of the index, so
/// they are tabulated once at build time and round 0 of every
/// explanation becomes a table lookup — zero bitset passes.
#[derive(Debug, Clone)]
pub(crate) struct ClassIndex {
    label: Label,
    /// Rows carrying this prediction.
    rows: RowSet,
    /// `|rows|`; the initial violator count is `context rows - size`.
    size: usize,
    /// `seed[f][v] = (surv0, cover0)` for posting `(f, v)`.
    seed: Vec<Vec<(usize, usize)>>,
}

impl ClassIndex {
    /// The class's prediction label (pagestore export).
    pub(crate) fn label_ref(&self) -> Label {
        self.label
    }

    /// The class's row bitset (pagestore export).
    pub(crate) fn rows_ref(&self) -> &RowSet {
        &self.rows
    }

    /// `|rows|` (pagestore export).
    pub(crate) fn size_ref(&self) -> usize {
        self.size
    }

    /// The round-0 seed table (pagestore export).
    pub(crate) fn seed_ref(&self) -> &[Vec<(usize, usize)>] {
        &self.seed
    }
}

/// The in-RAM count source: live violator and supporter bitsets
/// intersected with postings through the dispatched kernels.
struct IndexCounts<'a> {
    idx: &'a ContextIndex,
    x0: &'a Instance,
    class: &'a ClassIndex,
    violators: &'a mut RowSet,
    supporters: &'a mut RowSet,
    /// Whether the first pick has materialized the live sets.
    materialized: bool,
}

impl CountSource for IndexCounts<'_> {
    type Fault = Infallible;

    fn n_features(&self) -> usize {
        self.idx.by_value.len()
    }

    fn start(&mut self) -> Result<(usize, usize), Infallible> {
        self.materialized = false;
        let live = self.idx.len();
        Ok((live, live - self.class.size))
    }

    fn seed(&self, f: usize) -> (usize, usize) {
        self.class.seed[f][self.x0[f] as usize]
    }

    // `surv` and `cover` run once per stale candidate: inlined into the
    // driver's round loop, they cost one kernel call each.
    #[inline]
    fn surv(&mut self, f: usize) -> Result<usize, Infallible> {
        let posting = &self.idx.by_value[f][self.x0[f] as usize];
        Ok(self.violators.count_and(posting))
    }

    #[inline]
    fn cover(&mut self, f: usize) -> Result<usize, Infallible> {
        let posting = &self.idx.by_value[f][self.x0[f] as usize];
        Ok(self.supporters.count_and(posting))
    }

    fn pick(&mut self, f: usize) -> Result<usize, Infallible> {
        let posting = &self.idx.by_value[f][self.x0[f] as usize];
        if self.materialized {
            self.supporters.and_assign(posting);
            return Ok(self.violators.and_assign_count(posting));
        }
        // First pick: materialize the live sets fused with the pick's
        // intersection — `posting ∩ ¬class` and `posting ∩ class`.
        self.materialized = true;
        self.supporters.copy_and_from(posting, &self.class.rows);
        Ok(self.violators.copy_and_not_count(posting, &self.class.rows))
    }

    fn twin_violators(&self) -> Option<usize> {
        Some(self.idx.twin_violators(self.x0, self.class.label))
    }
}

/// One greedy round's counts over an index, from
/// [`ContextIndex::round_counts`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundCounts {
    /// Live rows `|I|`.
    pub rows: usize,
    /// Live violators: rows agreeing with `x₀` on every picked feature
    /// and predicted other than `p₀`.
    pub violators: usize,
    /// Rows identical to `x₀` and predicted other than `p₀`: the
    /// violators no key can eliminate.
    pub twins: usize,
    /// Per feature `f`: the live violators sharing `x₀`'s value of `f`.
    pub surv: Vec<usize>,
    /// Per feature `f`: the live supporters sharing `x₀`'s value of `f`.
    pub cover: Vec<usize>,
}

/// The posting-list index of one [`Context`], **patchable in place**.
///
/// Built once over a frozen context snapshot, then kept current under
/// churn through [`ContextIndex::insert_row`] / [`ContextIndex::remove_row`]
/// deltas instead of a rebuild:
///
/// * **Reused slots.** A removed row's bit is eagerly cleared from every
///   posting and its class set, and its slot goes onto a free list; the
///   next insert takes a free slot and appends to the bitset universe
///   (`slots`) only when the list is empty. Because clears are eager,
///   the hot lazy-greedy path needs **no masking**: every posting
///   intersection already excludes free slots. Under a sliding window
///   the universe therefore stays at the peak live count, and no owner
///   ever rebuilds to reclaim width.
/// * **Seed-table deltas.** A row with values `x` only participates in
///   the `(f, x[f])` cells: an insert bumps `cover0` in its own class
///   and `surv0` in every other class for exactly those cells — `O(|I|·C)`
///   integer increments, no bitset pass. A class first seen mid-stream
///   is seeded from the current posting totals (`surv0 + cover0` of any
///   existing class).
/// * **Twin-hash certificate.** The unsatisfiability certificate is an
///   owned multiset `instance → per-label multiplicities`; an insert or
///   remove touches one entry, and the certificate for any target is one
///   hash lookup at explain time.
///
/// Under this maintenance the index over `k` live rows is
/// *count-equivalent* to a fresh build of the live context —
/// every popcount any explain path computes is identical — so patched
/// explains are byte-identical to rebuild explains (the churn
/// differential suite proves it).
#[derive(Debug, Clone)]
pub struct ContextIndex {
    /// Slot-universe size: live rows **plus** free slots. Every `RowSet`
    /// in the index is `slots` wide.
    slots: usize,
    /// Free slots, reused last-in first-out by [`ContextIndex::insert_row`]
    /// (`slots - free.len()` rows are live).
    free: Vec<usize>,
    /// `by_value[f][v]` — live slots where feature `f` takes value `v`.
    by_value: Vec<Vec<RowSet>>,
    /// Distinct predictions with their row sets and seed-score tables.
    classes: Vec<ClassIndex>,
    /// `instance → [(label, multiplicity)]` over live rows. The
    /// unsatisfiability certificate for a target `(x₀, p₀)` is the
    /// multiplicity mass of `x₀` under labels `≠ p₀` — the violators left
    /// after intersecting *all* postings (pick order cannot change a full
    /// intersection), so a target is unsatisfiable iff it exceeds the
    /// tolerance: an O(1) check replacing `n` futile greedy rounds on
    /// contradiction-heavy rows.
    twins: HashMap<Instance, Vec<(Label, u32)>>,
}

/// Counts one more `(x, p)` row in the twin certificate.
fn add_twin(twins: &mut HashMap<Instance, Vec<(Label, u32)>>, x: &Instance, p: Label) {
    let entry = match twins.get_mut(x) {
        Some(e) => e,
        None => twins.entry(x.clone()).or_default(),
    };
    match entry.iter_mut().find(|(l, _)| *l == p) {
        Some((_, c)) => *c += 1,
        None => entry.push((p, 1)),
    }
}

impl ContextIndex {
    /// Builds the index in `O(n·|I|)` time and `O(n·Σcard·|I|/64)` space.
    pub fn new(ctx: &Context) -> Self {
        let rows = ctx.len();
        let n = ctx.schema().n_features();
        let mut by_value: Vec<Vec<RowSet>> = (0..n)
            .map(|f| {
                (0..ctx.schema().feature(f).cardinality())
                    .map(|_| RowSet::zeros(rows))
                    .collect()
            })
            .collect();
        // Class discovery is hoisted into a pre-pass: one hash probe per
        // row replaces the per-row linear scan over the class list, so
        // the bit-setting loop below runs branch-predictably.
        let mut classes: Vec<ClassIndex> = Vec::new();
        let mut class_of: Vec<u32> = Vec::with_capacity(rows);
        let mut class_ids: HashMap<Label, u32> = HashMap::new();
        for r in 0..rows {
            let p = ctx.prediction(r);
            let id = *class_ids.entry(p).or_insert_with(|| {
                classes.push(ClassIndex {
                    label: p,
                    rows: RowSet::zeros(rows),
                    size: 0,
                    seed: Vec::new(),
                });
                (classes.len() - 1) as u32
            });
            class_of.push(id);
        }
        for r in 0..rows {
            let x = ctx.instance(r);
            for (f, posting) in by_value.iter_mut().enumerate() {
                let v = x[f] as usize;
                if v < posting.len() {
                    posting[v].set(r);
                }
            }
            classes[class_of[r] as usize].rows.set(r);
        }
        for class in &mut classes {
            class.size = class.rows.count();
            class.seed = by_value
                .iter()
                .map(|postings| vec![(0, 0); postings.len()])
                .collect();
        }
        Self::build_seed_tables(&by_value, &mut classes);
        // One hash pass tabulates the instance → per-label multiset — the
        // unsatisfiability certificate consulted before any greedy round
        // runs, and the structure insert/remove deltas keep current.
        let mut twins = HashMap::new();
        for r in 0..rows {
            add_twin(&mut twins, ctx.instance(r), ctx.prediction(r));
        }
        Self {
            slots: rows,
            free: Vec::new(),
            by_value,
            classes,
            twins,
        }
    }

    /// Tabulates the round-0 seed scores: per class, per posting, the
    /// violator-survivor and supporter-coverage counts against the
    /// initial live sets. Classes are consumed two at a time through the
    /// fused `count_and2` kernel, so a binary-label context pays a
    /// single pass per posting — amortized over every explanation the
    /// index will serve.
    fn build_seed_tables(by_value: &[Vec<RowSet>], classes: &mut [ClassIndex]) {
        let mut covers = vec![0; classes.len()];
        for (f, postings) in by_value.iter().enumerate() {
            for (v, posting) in postings.iter().enumerate() {
                let total = posting.count();
                let mut pairs = classes.chunks_exact(2);
                for (c, pair) in (&mut pairs).enumerate() {
                    let (c0, c1) = posting.count_and2(&pair[0].rows, &pair[1].rows);
                    covers[2 * c] = c0;
                    covers[2 * c + 1] = c1;
                }
                if let [last] = pairs.remainder() {
                    covers[classes.len() - 1] = posting.count_and(&last.rows);
                }
                for (class, &cover) in classes.iter_mut().zip(&covers) {
                    class.seed[f][v] = (total - cover, cover);
                }
            }
        }
    }

    /// Crate-internal read access for the pagestore writer: the posting
    /// bitsets by `(feature, value)`.
    pub(crate) fn postings_ref(&self) -> &[Vec<RowSet>] {
        &self.by_value
    }

    /// Crate-internal read access for the pagestore writer: the indexed
    /// classes with their seed tables.
    pub(crate) fn classes_ref(&self) -> &[ClassIndex] {
        &self.classes
    }

    /// Live rows indexed (free slots excluded).
    pub fn len(&self) -> usize {
        self.slots - self.free.len()
    }

    /// True when the index covers no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free slots awaiting reuse by the next inserts.
    pub fn tombstones(&self) -> usize {
        self.free.len()
    }

    /// SRK over the index: identical output to [`Srk::explain`], much
    /// faster when many targets share the context. A warm call allocates
    /// only the returned key: the live sets are this thread's (see the
    /// module docs).
    ///
    /// # Errors
    /// Same failure modes as [`Srk::explain`].
    ///
    /// [`Srk::explain`]: crate::Srk::explain
    pub fn explain(
        &self,
        ctx: &Context,
        target: usize,
        alpha: Alpha,
    ) -> Result<RelativeKey, ExplainError> {
        self.explain_budgeted(ctx, target, alpha, WorkBudget::unlimited())
            .map(|b| b.key)
    }

    /// Budget-guarded indexed explanation: byte-identical results *and*
    /// degradation behavior to [`Srk::explain_budgeted`], at indexed
    /// speed (the budget is in eager-scan units; see [`crate::greedy`]).
    ///
    /// # Errors
    /// Same failure modes as [`Srk::explain_budgeted`]; running out of
    /// budget is not an error.
    ///
    /// [`Srk::explain_budgeted`]: crate::Srk::explain_budgeted
    pub fn explain_budgeted(
        &self,
        ctx: &Context,
        target: usize,
        alpha: Alpha,
        budget: WorkBudget,
    ) -> Result<BudgetedKey, ExplainError> {
        self.check_frozen(ctx, target)?;
        let (x0, p0) = (ctx.instance(target), ctx.prediction(target));
        self.explain_value(x0, p0, alpha, budget)
    }

    /// Validates a context-addressed explain: the row-index entry points
    /// predate churn and address rows positionally, which is only
    /// meaningful on an index with no free slots, whose slots are exactly
    /// the context's rows. Churn owners address by value through
    /// [`ContextIndex::explain_value`] instead.
    fn check_frozen(&self, ctx: &Context, target: usize) -> Result<(), ExplainError> {
        ctx.check_target(target)?;
        assert_eq!(ctx.len(), self.slots, "index built for a different context");
        assert!(
            self.free.is_empty(),
            "context-addressed explain on a patched index; address by value"
        );
        Ok(())
    }

    /// The certificate lookup: live rows carrying the target's exact
    /// instance under a *different* label — the violators no feature set
    /// can eliminate.
    pub(crate) fn twin_violators(&self, x0: &Instance, p0: Label) -> usize {
        self.twins.get(x0).map_or(0, |entry| {
            entry
                .iter()
                .map(|&(l, c)| if l == p0 { 0 } else { c as usize })
                .sum()
        })
    }

    /// Value-addressed explain, the churn owners' entry point: the driver
    /// consults only `(x₀, p₀)`, so patched and rebuilt indexes agree byte
    /// for byte. An unindexed `p₀` is [`ExplainError::UnknownInstance`].
    pub(crate) fn explain_value(
        &self,
        x0: &Instance,
        p0: Label,
        alpha: Alpha,
        budget: WorkBudget,
    ) -> Result<BudgetedKey, ExplainError> {
        if self.is_empty() {
            return Err(ExplainError::EmptyContext);
        }
        let n = self.by_value.len();
        if x0.len() != n {
            return Err(ExplainError::WidthMismatch {
                expected: n,
                got: x0.len(),
            });
        }
        let Some(class) = self.classes.iter().find(|c| c.label == p0) else {
            return Err(ExplainError::UnknownInstance);
        };
        let Ok(run) = with_live_sets(|violators, supporters| {
            let mut src = IndexCounts {
                idx: self,
                x0,
                class,
                violators,
                supporters,
                materialized: false,
            };
            greedy::run(&mut src, alpha, budget)
        });
        record_run!("indexed", &run);
        run.result
    }

    /// Width and per-feature code range of an instance about to be
    /// indexed or counted against.
    fn check_codes(&self, x: &Instance) -> Result<(), ExplainError> {
        let n = self.by_value.len();
        if x.len() != n {
            return Err(ExplainError::WidthMismatch {
                expected: n,
                got: x.len(),
            });
        }
        for (f, postings) in self.by_value.iter().enumerate() {
            if x[f] as usize >= postings.len() {
                return Err(ExplainError::ValueOutOfRange {
                    feature: f,
                    value: x[f],
                    cardinality: postings.len(),
                });
            }
        }
        Ok(())
    }

    /// A class with no live row: nothing covers it, so every seed cell is
    /// (posting total, 0) — and any existing class's surv0 + cover0 *is*
    /// the posting total, so no bitset is popcounted.
    fn empty_class(&self, label: Label) -> ClassIndex {
        let seed = match self.classes.first() {
            Some(c0) => c0
                .seed
                .iter()
                .map(|cells| cells.iter().map(|&(s, c)| (s + c, 0)).collect())
                .collect(),
            None => self
                .by_value
                .iter()
                .map(|ps| vec![(0, 0); ps.len()])
                .collect(),
        };
        ClassIndex {
            label,
            rows: RowSet::zeros(self.slots),
            size: 0,
            seed,
        }
    }

    /// One greedy round's counts for `(x₀, p₀)` after `picked`: the counts
    /// a shard worker answers with. Every field adds up over disjoint row
    /// partitions, which is what lets a router sum shard answers into the
    /// single-process run. Recomputed from the postings on every call
    /// through the same count source the indexed explain drives, so it
    /// holds no state between rounds. A `p₀` with no live row is fine:
    /// every live row is then a violator and every cover is 0.
    ///
    /// # Errors
    /// [`ExplainError::WidthMismatch`] or [`ExplainError::ValueOutOfRange`]
    /// for a malformed `x₀`, and [`ExplainError::InvalidConfig`] for a
    /// picked feature out of range.
    pub fn round_counts(
        &self,
        x0: &Instance,
        p0: Label,
        picked: &[usize],
    ) -> Result<RoundCounts, ExplainError> {
        self.check_codes(x0)?;
        let n = self.by_value.len();
        if picked.iter().any(|&f| f >= n) {
            return Err(ExplainError::InvalidConfig {
                reason: "picked feature out of range",
            });
        }
        let absent;
        let class = match self.classes.iter().find(|c| c.label == p0) {
            Some(c) => c,
            None => {
                absent = self.empty_class(p0);
                &absent
            }
        };
        Ok(with_live_sets(|violators, supporters| {
            let mut src = IndexCounts {
                idx: self,
                x0,
                class,
                violators,
                supporters,
                materialized: false,
            };
            let Ok((rows, mut violators)) = src.start();
            for &f in picked {
                let Ok(v) = src.pick(f);
                violators = v;
            }
            let (surv, cover) = (0..n)
                .map(|f| {
                    if picked.is_empty() {
                        return src.seed(f);
                    }
                    let (Ok(s), Ok(c)) = (src.surv(f), src.cover(f));
                    (s, c)
                })
                .unzip();
            RoundCounts {
                rows,
                violators,
                twins: self.twin_violators(x0, p0),
                surv,
                cover,
            }
        }))
    }

    /// Inserts one live row, returning its slot: the most recently freed
    /// slot when there is one, else a new slot at the top of the universe.
    ///
    /// Cost: `O(|I|·C)` integer seed updates, `|I|` posting bit-sets, one
    /// certificate hash update, and — only when no slot is free — an
    /// amortized-O(1) grow of every bitset: microseconds against the
    /// hundreds of milliseconds a 100k+-row rebuild pays. A label first
    /// seen here opens a new class seeded from the current posting totals.
    ///
    /// # Errors
    /// [`ExplainError::WidthMismatch`] when `x` does not match the
    /// indexed feature count (the index is left untouched).
    pub fn insert_row(
        &mut self,
        x: &cce_dataset::Instance,
        p: Label,
    ) -> Result<usize, ExplainError> {
        // Reject bad codes before any mutation: posting lists and seed
        // tables are addressed by code, and a row silently skipped here
        // would later panic the seed argmax when explained as a target.
        self.check_codes(x)?;
        let cid = match self.classes.iter().position(|c| c.label == p) {
            Some(i) => i,
            None => {
                self.classes.push(self.empty_class(p));
                self.classes.len() - 1
            }
        };
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                for postings in &mut self.by_value {
                    for ps in postings {
                        ps.grow();
                    }
                }
                for c in &mut self.classes {
                    c.rows.grow();
                }
                self.slots += 1;
                self.slots - 1
            }
        };
        self.classes[cid].rows.set(slot);
        self.classes[cid].size += 1;
        let classes = &mut self.classes;
        for (f, postings) in self.by_value.iter_mut().enumerate() {
            let v = x[f] as usize;
            postings[v].set(slot);
            // Seed deltas touch only this row's (f, v) cells: the new
            // row covers its own class and survives every other.
            for (i, c) in classes.iter_mut().enumerate() {
                let cell = &mut c.seed[f][v];
                if i == cid {
                    cell.1 += 1;
                } else {
                    cell.0 += 1;
                }
            }
        }
        add_twin(&mut self.twins, x, p);
        cce_obs::counter!("cce_index_deltas_total", "op" => "insert").inc();
        Ok(slot)
    }

    /// Removes one live row and frees its slot for the next insert. The
    /// caller supplies the slot's original `(x, p)` — churn owners keep
    /// slot-addressed row storage — and the delta eagerly clears the
    /// row's bit from its postings and class set, and decrements its seed
    /// cells and certificate entry, so no explain path ever needs a mask.
    ///
    /// # Panics
    /// Panics when `slot` is out of range, free, or not in `p`'s class;
    /// debug builds also verify `x` matches the bits being cleared.
    pub fn remove_row(&mut self, slot: usize, x: &cce_dataset::Instance, p: Label) {
        let cid = self
            .classes
            .iter()
            .position(|c| c.label == p)
            .expect("removed row's class is indexed");
        assert!(
            slot < self.slots && self.classes[cid].rows.get(slot),
            "remove_row({slot}): slot free, out of range or of another class"
        );
        self.free.push(slot);
        self.classes[cid].rows.clear(slot);
        self.classes[cid].size -= 1;
        let classes = &mut self.classes;
        for (f, postings) in self.by_value.iter_mut().enumerate() {
            let v = x[f] as usize;
            if v < postings.len() {
                debug_assert!(postings[v].get(slot), "row data mismatch on remove");
                postings[v].clear(slot);
                for (i, c) in classes.iter_mut().enumerate() {
                    let cell = &mut c.seed[f][v];
                    if i == cid {
                        cell.1 -= 1;
                    } else {
                        cell.0 -= 1;
                    }
                }
            }
        }
        if let Some(entry) = self.twins.get_mut(x) {
            if let Some(pos) = entry.iter().position(|(l, _)| *l == p) {
                entry[pos].1 -= 1;
                if entry[pos].1 == 0 {
                    entry.swap_remove(pos);
                }
            }
            if entry.is_empty() {
                self.twins.remove(x);
            }
        }
        cce_obs::counter!("cce_index_deltas_total", "op" => "remove").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srk::Srk;
    use cce_dataset::{synth, BinSpec};

    /// Complement within the first `rows` rows, tail masked.
    fn not(s: &RowSet) -> RowSet {
        let mut out = RowSet {
            words: s.words.iter().map(|w| !w).collect(),
            rows: s.rows,
        };
        let tail = out.rows % 64;
        if tail != 0 {
            if let Some(last) = out.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        out
    }

    fn contexts() -> Vec<Context> {
        ["Loan", "Compas"]
            .iter()
            .map(|name| {
                let raw = synth::general_dataset(name, 0.2, 9).unwrap();
                Context::from_recorded(&raw.encode(&BinSpec::uniform(8)))
            })
            .collect()
    }

    /// The address and capacity of this thread's two live-set word
    /// buffers.
    fn live_sets_probe() -> [(usize, usize); 2] {
        with_live_sets(|v, s| [v, s].map(|set| (set.words.as_ptr() as usize, set.words.capacity())))
    }

    /// Runs `f` on a newly spawned thread, whose live sets and candidate
    /// heap no explain has touched.
    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().expect("fresh thread"))
    }

    #[test]
    fn indexed_explain_matches_srk_exactly() {
        // This thread explains every target after earlier targets, α
        // values and contexts; a fresh thread must give the same bytes.
        for ctx in contexts() {
            let idx = ContextIndex::new(&ctx);
            for &a in &[1.0, 0.95, 0.9] {
                let alpha = Alpha::new(a).unwrap();
                let srk = Srk::new(alpha);
                for t in (0..ctx.len()).step_by(7) {
                    let expected = srk.explain(&ctx, t);
                    assert_eq!(idx.explain(&ctx, t, alpha), expected, "α={a} target={t}");
                    assert_eq!(
                        on_fresh_thread(|| idx.explain(&ctx, t, alpha)),
                        expected,
                        "fresh thread α={a} target={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn budgeted_indexed_matches_srk_budgeted_exactly() {
        // The indexed budgeted path must agree with the budgeted oracle
        // on completion, degradation point, spent scans, and partial keys
        // — across budgets bracketing round boundaries.
        for ctx in contexts() {
            let idx = ContextIndex::new(&ctx);
            for &a in &[1.0, 0.95] {
                let alpha = Alpha::new(a).unwrap();
                let srk = Srk::new(alpha);
                for t in (0..ctx.len()).step_by(23) {
                    for budget in [0u64, 1, 100, 1_000, 50_000, u64::MAX - 1] {
                        let b = WorkBudget::new(budget);
                        assert_eq!(
                            idx.explain_budgeted(&ctx, t, alpha, b),
                            srk.explain_naive_budgeted(&ctx, t, b),
                            "α={a} target={t} budget={budget}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rowset_complement_is_exact_at_word_boundaries() {
        for rows in [1usize, 63, 64, 65, 128, 130] {
            let mut s = RowSet::zeros(rows);
            s.set(0);
            if rows > 2 {
                s.set(rows - 1);
            }
            let c = not(&s);
            assert_eq!(s.count() + c.count(), rows, "rows={rows}");
            assert_eq!(s.count_and(&c), 0);
        }
    }

    #[test]
    fn fused_copy_kernels_match_composed_ops() {
        // `copy_and_not_count` and `copy_and_from` must agree with the
        // composed not/and at every word-boundary shape, including a
        // posting with bits in the (masked) tail word's valid range.
        for rows in [1usize, 63, 64, 65, 128, 130, 300] {
            let mut class = RowSet::zeros(rows);
            let mut posting = RowSet::zeros(rows);
            for r in 0..rows {
                if r % 2 == 0 {
                    class.set(r);
                }
                if r % 3 != 1 {
                    posting.set(r);
                }
            }
            let mut fused = RowSet::default();
            let live = fused.copy_and_not_count(&posting, &class);
            let mut expected = not(&class);
            expected.and_assign(&posting);
            assert_eq!(fused, expected, "rows={rows}");
            assert_eq!(live, expected.count(), "rows={rows}");

            fused.copy_and_from(&posting, &class);
            let mut both = class.clone();
            both.and_assign(&posting);
            assert_eq!(fused, both, "rows={rows}");
        }
    }

    #[test]
    fn fused_count_and2_matches_two_count_ands() {
        // Cross the 4-word unrolling boundary (≤4, exactly 4, >4 words).
        for rows in [3usize, 64, 256, 300, 1027] {
            let mut p = RowSet::zeros(rows);
            let mut a = RowSet::zeros(rows);
            let mut b = RowSet::zeros(rows);
            for r in 0..rows {
                if r % 3 == 0 {
                    p.set(r);
                }
                if r % 2 == 0 {
                    a.set(r);
                }
                if r % 5 == 0 {
                    b.set(r);
                }
            }
            let (ca, cb) = p.count_and2(&a, &b);
            assert_eq!(ca, p.count_and(&a), "rows={rows}");
            assert_eq!(cb, p.count_and(&b), "rows={rows}");
        }
    }

    #[test]
    fn and_assign_count_returns_new_cardinality() {
        for rows in [5usize, 64, 200] {
            let mut a = RowSet::zeros(rows);
            let mut b = RowSet::zeros(rows);
            for r in 0..rows {
                if r % 2 == 0 {
                    a.set(r);
                }
                if r % 3 == 0 {
                    b.set(r);
                }
            }
            let expected = a.count_and(&b);
            assert_eq!(a.and_assign_count(&b), expected, "rows={rows}");
            assert_eq!(a.count(), expected);
        }
    }

    #[test]
    #[should_panic(expected = "tail bits")]
    #[cfg(debug_assertions)]
    fn tail_invariant_violations_are_caught() {
        // A constructor/mutator that leaked garbage above `rows` must
        // trip the kernel-entry assert, not silently corrupt counts.
        let mut s = RowSet::zeros(65);
        s.words[1] = u64::MAX; // bits 65..128 are padding garbage
        let _ = s.count();
    }

    #[test]
    fn index_len_tracks_context() {
        let ctx = contexts().remove(0);
        let idx = ContextIndex::new(&ctx);
        assert_eq!(idx.len(), ctx.len());
        assert!(!idx.is_empty());
        let empty = ContextIndex::new(&Context::empty(ctx.schema_arc()));
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "different context")]
    fn index_rejects_mismatched_context() {
        let cs = contexts();
        let idx = ContextIndex::new(&cs[0]);
        let _ = idx.explain(&cs[1], 0, Alpha::ONE);
    }

    #[test]
    fn contradictions_surface_identically() {
        let ctx = contexts().remove(0);
        let mut with_twin = ctx.clone();
        let twin = ctx.instance(0).clone();
        let p0 = ctx.prediction(0);
        let flipped = cce_dataset::Label(u32::from(p0.0 == 0));
        with_twin.push(twin, flipped).unwrap();
        let idx = ContextIndex::new(&with_twin);
        let srk = Srk::new(Alpha::ONE);
        let expected = srk.explain(&with_twin, 0);
        assert_eq!(idx.explain(&with_twin, 0, Alpha::ONE), expected);
        assert_eq!(srk.explain_naive(&with_twin, 0), expected);
    }

    /// Explains every live row of `idx` by value and asserts byte
    /// equality with a fresh rebuild over the live rows.
    fn assert_matches_rebuild(idx: &ContextIndex, live: &[(cce_dataset::Instance, Label)]) {
        let schema = contexts().remove(0).schema_arc();
        let (xs, ps): (Vec<_>, Vec<_>) = live.iter().cloned().unzip();
        let ctx = Context::new(schema, xs, ps);
        let rebuilt = ContextIndex::new(&ctx);
        for &a in &[1.0, 0.9] {
            let alpha = Alpha::new(a).unwrap();
            for (t, (x, p)) in live.iter().enumerate() {
                for budget in [WorkBudget::unlimited(), WorkBudget::new(40)] {
                    assert_eq!(
                        idx.explain_value(x, *p, alpha, budget),
                        rebuilt.explain_value(x, *p, alpha, budget),
                        "α={a} target={t} live={}",
                        live.len()
                    );
                }
            }
        }
    }

    #[test]
    fn patched_index_matches_rebuild_under_churn() {
        let ctx = contexts().remove(0);
        let mut idx = ContextIndex::new(&Context::empty(ctx.schema_arc()));
        // Slot-addressed shadow of what the owner would store.
        let mut slots: Vec<(cce_dataset::Instance, Label)> = Vec::new();
        let mut live_of: Vec<usize> = Vec::new(); // live order → slot
        for r in 0..ctx.len().min(140) {
            let (x, p) = (ctx.instance(r).clone(), ctx.prediction(r));
            let slot = idx.insert_row(&x, p).unwrap();
            // A reused slot is shadowed by overwrite.
            match slots.get_mut(slot) {
                Some(shadow) => *shadow = (x, p),
                None => slots.push((x, p)),
            }
            live_of.push(slot);
            // Evict from the middle to exercise interior free slots, at
            // word-boundary-crossing cadences.
            if r % 7 == 3 {
                let victim = live_of.remove(live_of.len() / 2);
                let (vx, vp) = slots[victim].clone();
                idx.remove_row(victim, &vx, vp);
            }
        }
        let live: Vec<_> = live_of.iter().map(|&s| slots[s].clone()).collect();
        assert_eq!(idx.len(), live.len());
        assert_matches_rebuild(&idx, &live);
    }

    #[test]
    fn incremental_build_equals_bulk_build_counts() {
        // Pure inserts: the patched index must carry identical seed
        // tables, class sizes, and certificate as the bulk build.
        let ctx = contexts().remove(0);
        let mut inc = ContextIndex::new(&Context::empty(ctx.schema_arc()));
        for r in 0..ctx.len() {
            inc.insert_row(ctx.instance(r), ctx.prediction(r)).unwrap();
        }
        let bulk = ContextIndex::new(&ctx);
        assert_eq!(inc.slots, bulk.slots);
        for (ci, cb) in inc.classes.iter().zip(&bulk.classes) {
            assert_eq!(ci.label, cb.label);
            assert_eq!(ci.size, cb.size);
            assert_eq!(ci.seed, cb.seed);
            assert_eq!(ci.rows, cb.rows);
        }
        assert_eq!(inc.twins, bulk.twins);
        for (f, (pi, pb)) in inc.by_value.iter().zip(&bulk.by_value).enumerate() {
            assert_eq!(pi, pb, "postings differ for feature {f}");
        }
    }

    #[test]
    fn transient_membership_grows_the_universe_by_at_most_one_slot() {
        let ctx = contexts().remove(0);
        let mut idx = ContextIndex::new(&ctx);
        let slots_before = idx.slots;
        let x = ctx.instance(3).clone();
        let p = ctx.prediction(3);
        let direct = idx
            .explain_value(&x, p, Alpha::ONE, WorkBudget::unlimited())
            .unwrap();
        for _ in 0..130 {
            let slot = idx.insert_row(&x, p).unwrap();
            idx.remove_row(slot, &x, p);
        }
        assert_eq!(idx.slots, slots_before + 1);
        assert_eq!(idx.tombstones(), 1);
        let after = idx
            .explain_value(&x, p, Alpha::ONE, WorkBudget::unlimited())
            .unwrap();
        assert_eq!(direct, after);
    }

    #[test]
    fn mid_churn_new_class_is_seeded_from_totals() {
        // A label first seen via insert_row must behave exactly like a
        // rebuild that always knew it.
        let ctx = contexts().remove(0);
        let mut idx = ContextIndex::new(&ctx);
        let mut live: Vec<_> = (0..ctx.len())
            .map(|r| (ctx.instance(r).clone(), ctx.prediction(r)))
            .collect();
        let exotic = (ctx.instance(5).clone(), Label(7));
        idx.insert_row(&exotic.0, exotic.1).unwrap();
        live.push(exotic);
        assert_matches_rebuild(&idx, &live);
    }

    #[test]
    fn remove_rejects_dead_slots() {
        let ctx = contexts().remove(0);
        let mut idx = ContextIndex::new(&ctx);
        let (x, p) = (ctx.instance(0).clone(), ctx.prediction(0));
        idx.remove_row(0, &x, p);
        assert_eq!(idx.len(), ctx.len() - 1);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            idx.remove_row(0, &x, p);
        }));
        assert!(err.is_err(), "double-remove must panic");
    }

    #[test]
    fn scratch_is_reusable_across_contexts_of_different_sizes() {
        // The thread's live sets grow to the wider context and are then
        // reused for the narrower one, in both orders.
        let mut cs = contexts();
        cs.extend(contexts().into_iter().rev());
        for ctx in &cs {
            let idx = ContextIndex::new(ctx);
            for t in (0..ctx.len()).step_by(31) {
                let (x0, p0) = (ctx.instance(t), ctx.prediction(t));
                let picked = [t % 3, 5];
                assert_eq!(
                    idx.explain(ctx, t, Alpha::ONE),
                    on_fresh_thread(|| idx.explain(ctx, t, Alpha::ONE)),
                    "rows={} target={t}",
                    ctx.len()
                );
                assert_eq!(
                    idx.round_counts(x0, p0, &picked),
                    on_fresh_thread(|| idx.round_counts(x0, p0, &picked)),
                    "rows={} target={t}",
                    ctx.len()
                );
            }
        }
    }

    /// An in-memory store converted from `ctx`, with a cache that holds
    /// every page.
    fn paged_of(ctx: &Context) -> crate::PagedContextIndex<crate::persist::MemVfs> {
        let mut vfs = crate::persist::MemVfs::new();
        crate::pagestore::write_store(&mut vfs, "ctx.pg", ctx, 256, &[]).unwrap();
        crate::PagedContextIndex::open(vfs, "ctx.pg", 1 << 24).unwrap()
    }

    #[test]
    fn every_explain_path_reuses_the_threads_live_sets() {
        // 300 rows: 5 words, and still 5 once an ad hoc explain adds a
        // slot.
        let raw = synth::loan::generate(300, 11);
        let ctx = Context::from_recorded(&raw.encode(&BinSpec::uniform(6)));
        let alpha = Alpha::new(0.95).unwrap();
        let idx = ContextIndex::new(&ctx);
        let mut engine = crate::BatchEngine::new(ctx.clone(), alpha);
        let paged = paged_of(&ctx);
        let t0 = (0..ctx.len())
            .find(|&t| {
                idx.explain(&ctx, t, alpha)
                    .is_ok_and(|k| k.succinctness() > 0)
            })
            .expect("a target whose key needs a pick");
        let first = live_sets_probe();
        assert!(first.iter().all(|&(_, cap)| cap >= 5), "{first:?}");
        let mut paths = 0;
        let mut check = |path: &str| {
            paths += 1;
            assert_eq!(live_sets_probe(), first, "{path} moved the live sets");
        };
        for t in (t0..ctx.len()).step_by(13) {
            let (x0, p0) = (ctx.instance(t), ctx.prediction(t));
            let _ = idx.explain(&ctx, t, alpha);
            check("explain");
            let _ = idx.explain_budgeted(&ctx, t, alpha, WorkBudget::new(60));
            check("explain_budgeted");
            let _ = idx.round_counts(x0, p0, &[t % 4, 6]);
            check("round_counts");
            // A distinct budget per target keeps the engine's memo cold.
            let _ = engine.explain_one(t, WorkBudget::new(1_000_000 + t as u64));
            check("explain_one");
            let _ = engine.explain_adhoc(x0, p0);
            check("explain_adhoc");
            let _ = paged.explain_row(t, alpha);
            check("explain_row");
        }
        assert!(paths >= 6 * 20, "{paths} explains checked");
    }

    /// A count source over 64 features no real context has, with scores
    /// no real context reaches. Its run takes two picks, so it leaves the
    /// thread's candidate heap full of stale candidates that would top
    /// any later round they were left in.
    struct Junk {
        picks: usize,
    }

    const JUNK_ROWS: usize = 1 << 40;

    impl CountSource for Junk {
        type Fault = Infallible;
        fn n_features(&self) -> usize {
            64
        }
        fn start(&mut self) -> Result<(usize, usize), Infallible> {
            Ok((JUNK_ROWS, JUNK_ROWS))
        }
        fn seed(&self, f: usize) -> (usize, usize) {
            (f, 0)
        }
        fn surv(&mut self, _f: usize) -> Result<usize, Infallible> {
            Ok(0)
        }
        fn cover(&mut self, _f: usize) -> Result<usize, Infallible> {
            Ok(0)
        }
        fn pick(&mut self, _f: usize) -> Result<usize, Infallible> {
            self.picks += 1;
            Ok(if self.picks < 2 { JUNK_ROWS } else { 0 })
        }
    }

    #[test]
    fn explains_after_a_panic_in_the_live_sets_match_a_fresh_thread() {
        let ctx = contexts().remove(0);
        let idx = ContextIndex::new(&ctx);
        let paged = paged_of(&ctx);
        let alpha = Alpha::new(0.95).unwrap();
        let answers = || {
            (0..ctx.len())
                .step_by(17)
                .map(|t| {
                    let (x0, p0) = (ctx.instance(t), ctx.prediction(t));
                    (
                        idx.explain(&ctx, t, alpha),
                        idx.round_counts(x0, p0, &[t % 5, 2]),
                        paged.explain_row(t, alpha),
                    )
                })
                .collect::<Vec<_>>()
        };
        let want = on_fresh_thread(answers);
        // Junk: a heap of stale candidates for absent features, then live
        // sets with every bit set, one wider and one narrower than the
        // context, abandoned by a panic.
        let junk = greedy::run(&mut Junk { picks: 0 }, Alpha::ONE, WorkBudget::unlimited());
        assert_eq!(
            junk.map(|run| run.result.map(|b| b.key.succinctness())),
            Ok(Ok(2))
        );
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_live_sets(|violators, supporters| {
                violators.words_for(3 * ctx.len() + 5).fill(u64::MAX);
                supporters.words_for(ctx.len() / 2 + 1).fill(u64::MAX);
                panic!("junk left in the live sets");
            })
        }));
        assert!(poisoned.is_err());
        assert_eq!(answers(), want);
    }

    /// `round_counts` by a literal row scan.
    fn scanned_counts(ctx: &Context, x0: &Instance, p0: Label, picked: &[usize]) -> RoundCounts {
        let n = ctx.schema().n_features();
        let mut want = RoundCounts {
            rows: ctx.len(),
            violators: 0,
            twins: 0,
            surv: vec![0; n],
            cover: vec![0; n],
        };
        for r in 0..ctx.len() {
            let (x, p) = (ctx.instance(r), ctx.prediction(r));
            want.twins += usize::from(x == x0 && p != p0);
            if picked.iter().any(|&f| x[f] != x0[f]) {
                continue;
            }
            want.violators += usize::from(p != p0);
            let cells = if p == p0 {
                &mut want.cover
            } else {
                &mut want.surv
            };
            for (f, cell) in cells.iter_mut().enumerate() {
                *cell += usize::from(x[f] == x0[f]);
            }
        }
        want
    }

    #[test]
    fn round_counts_match_a_row_scan_and_add_up_over_partitions() {
        for ctx in contexts() {
            let n = ctx.schema().n_features();
            // Partition `b` holds no row of the first row's class, so
            // its targets' class is absent there.
            let absent = ctx.prediction(0);
            let (mut a, mut b) = (
                Context::empty(ctx.schema_arc()),
                Context::empty(ctx.schema_arc()),
            );
            for r in 0..ctx.len() {
                let (x, p) = (ctx.instance(r).clone(), ctx.prediction(r));
                let part = if r % 2 == 0 || p == absent {
                    &mut a
                } else {
                    &mut b
                };
                part.push(x, p).unwrap();
            }
            let idx = [&ctx, &a, &b].map(ContextIndex::new);
            for t in (0..ctx.len()).step_by(37) {
                let (x0, p0) = (ctx.instance(t), ctx.prediction(t));
                for k in 0..=3 {
                    let picked: Vec<usize> = (0..k).map(|i| (t + 5 * i) % n).collect();
                    let [full, ra, rb] =
                        [0, 1, 2].map(|i| idx[i].round_counts(x0, p0, &picked).unwrap());
                    assert_eq!(full, scanned_counts(&ctx, x0, p0, &picked), "t={t} k={k}");
                    assert_eq!(rb, scanned_counts(&b, x0, p0, &picked), "t={t} k={k}");
                    let sum = |f: fn(&RoundCounts) -> &Vec<usize>| -> Vec<usize> {
                        f(&ra).iter().zip(f(&rb)).map(|(x, y)| x + y).collect()
                    };
                    assert_eq!(ra.rows + rb.rows, full.rows);
                    assert_eq!(ra.violators + rb.violators, full.violators);
                    assert_eq!(ra.twins + rb.twins, full.twins);
                    assert_eq!(sum(|c| &c.surv), full.surv);
                    assert_eq!(sum(|c| &c.cover), full.cover);
                }
            }
        }
    }

    #[test]
    fn round_counts_reject_malformed_requests() {
        let ctx = &contexts()[0];
        let idx = ContextIndex::new(ctx);
        let (x0, p0) = (ctx.instance(0), ctx.prediction(0));
        let mut wide = x0.values().to_vec();
        wide.push(0);
        assert!(matches!(
            idx.round_counts(&Instance::new(wide), p0, &[]),
            Err(ExplainError::WidthMismatch { .. })
        ));
        let mut bad = x0.values().to_vec();
        bad[1] = ctx.schema().feature(1).cardinality() as u32;
        assert!(matches!(
            idx.round_counts(&Instance::new(bad), p0, &[]),
            Err(ExplainError::ValueOutOfRange { feature: 1, .. })
        ));
        let n = ctx.schema().n_features();
        assert!(matches!(
            idx.round_counts(x0, p0, &[0, n]),
            Err(ExplainError::InvalidConfig { .. })
        ));
    }
}
