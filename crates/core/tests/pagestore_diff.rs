//! Differential proptests for the out-of-core explain path: a
//! [`PagedContextIndex`] over a converted store must return
//! **byte-identical** results to the in-RAM [`ContextIndex`] — same key
//! features in the same order, same achieved conformity, same errors
//! (including `NoConformantKey` contradiction counts) — across:
//!
//! * random contexts, including contradiction-heavy ones where exact
//!   twins with different labels make targets unsatisfiable;
//! * page sizes from 8 bytes (one bitset word per page) to 256,
//!   spanning the 64- and 128-row word boundaries;
//! * cache budgets from pathologically small (0 bytes: every unpinned
//!   page evicted immediately, maximal churn) to everything-resident;
//! * work budgets, where the paged path must degrade at exactly the
//!   same scan count with exactly the same partial key;
//! * concurrent explains: threads sharing one index and its page cache,
//!   each on its own live sets, under a one-page and a mid-size cache
//!   budget.

use std::sync::Arc;

use cce_core::persist::MemVfs;
use cce_core::{
    pagestore::write_store, Alpha, Context, ContextIndex, PagedContextIndex, Srk, WorkBudget,
};
use cce_dataset::{FeatureDef, Instance, Label, Schema};
use proptest::prelude::*;

/// Builds a context over `n_features` categorical features of
/// cardinality `card`, reading row `r`'s values from
/// `vals[r * n_features..]`.
fn build_ctx(n_features: usize, card: u32, vals: &[u32], labels: &[u32]) -> Context {
    let rows = labels.len();
    assert!(vals.len() >= rows * n_features, "not enough values");
    let names: Vec<String> = (0..card).map(|v| format!("v{v}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let feats = (0..n_features)
        .map(|f| FeatureDef::categorical(&format!("f{f}"), &name_refs))
        .collect();
    let instances = (0..rows)
        .map(|r| Instance::new(vals[r * n_features..(r + 1) * n_features].to_vec()))
        .collect();
    let predictions = labels.iter().map(|&l| Label(l)).collect();
    Context::new(Arc::new(Schema::new(feats)), instances, predictions)
}

/// Converts `ctx` into a fresh in-memory store and opens it.
fn paged_of(ctx: &Context, page_size: usize, cache_budget: usize) -> PagedContextIndex<MemVfs> {
    let mut vfs = MemVfs::new();
    write_store(&mut vfs, "ctx.pg", ctx, page_size, &[]).expect("convert");
    PagedContextIndex::open(vfs, "ctx.pg", cache_budget).expect("open")
}

/// Asserts paged and in-RAM explains agree on every sampled target.
fn assert_paged_matches(ctx: &Context, page_size: usize, cache_budget: usize, alpha: f64) {
    let alpha = Alpha::new(alpha).expect("valid alpha");
    let index = ContextIndex::new(ctx);
    let paged = paged_of(ctx, page_size, cache_budget);
    assert_eq!(paged.len(), ctx.len());
    for target in 0..ctx.len() {
        let ram = index.explain(ctx, target, alpha);
        let disk = paged.explain_row(target, alpha);
        assert_eq!(
            disk, ram,
            "paged explain diverged (target {target}, page_size {page_size}, \
             cache {cache_budget})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random contexts across the page-size × cache-budget grid. Page
    /// size 24 is the smallest that fits this schema's 20-byte row
    /// records; budget 0 forces an eviction on every unpinned insert.
    #[test]
    fn paged_matches_ram_across_page_sizes_and_budgets(
        vals in proptest::collection::vec(0u32..3, 80 * 4..=80 * 4),
        labels in proptest::collection::vec(0u32..2, 1..=80),
        page_pick in 0usize..4,
        budget_pick in 0usize..3,
        alpha_pct in 80u32..=100,
    ) {
        let ctx = build_ctx(4, 3, &vals, &labels);
        let page_size = [24, 32, 64, 256][page_pick];
        let cache_budget = [0, 96, 1 << 20][budget_pick];
        assert_paged_matches(&ctx, page_size, cache_budget, alpha_pct as f64 / 100.0);
    }

    /// One feature, 16-byte pages (the smallest that fits a row record:
    /// values + label + twin certificate): a bitset page holds two
    /// words, so rows straddling the 64- and 128-row boundaries
    /// exercise short tail words and 1- and 2-page columns, with the
    /// 128-row cases crossing a page boundary mid-column.
    #[test]
    fn paged_matches_ram_at_word_boundaries(
        rows_pick in 0usize..6,
        seed in any::<u64>(),
        budget_pick in 0usize..2,
    ) {
        let rows = [63, 64, 65, 127, 128, 129][rows_pick];
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as u32
        };
        let vals: Vec<u32> = (0..rows).map(|_| next() % 4).collect();
        let labels: Vec<u32> = (0..rows).map(|_| next() % 2).collect();
        let ctx = build_ctx(1, 4, &vals, &labels);
        let cache_budget = [16, 1 << 20][budget_pick];
        assert_paged_matches(&ctx, 16, cache_budget, 1.0);
    }

    /// Contradiction-heavy contexts: a handful of base rows tiled with
    /// flipped-label twins, so many targets are unsatisfiable — the
    /// paged path must report the *same* `NoConformantKey`
    /// contradiction counts without any on-disk twin table.
    #[test]
    fn paged_matches_ram_on_contradictions(
        base in proptest::collection::vec(0u32..2, 2 * 3..=2 * 3),
        rows in 4usize..=48,
        flip_mask in any::<u64>(),
    ) {
        let vals: Vec<u32> = (0..rows)
            .flat_map(|r| base[(r % 2) * 3..(r % 2) * 3 + 3].to_vec())
            .collect();
        let labels: Vec<u32> = (0..rows)
            .map(|r| u32::from(flip_mask >> (r % 64) & 1 == 1))
            .collect();
        let ctx = build_ctx(3, 2, &vals, &labels);
        assert_paged_matches(&ctx, 24, 0, 1.0);
        assert_paged_matches(&ctx, 64, 1 << 20, 0.9);
    }

    /// Budgeted explains: identical degradation points, partial keys,
    /// spent counts, and remaining-violator counts.
    #[test]
    fn paged_budgeted_matches_ram(
        vals in proptest::collection::vec(0u32..3, 60 * 4..=60 * 4),
        labels in proptest::collection::vec(0u32..2, 8..=60),
        max_scans in 0u64..400,
    ) {
        let ctx = build_ctx(4, 3, &vals, &labels);
        let alpha = Alpha::ONE;
        let budget = WorkBudget::new(max_scans);
        let index = ContextIndex::new(&ctx);
        let paged = paged_of(&ctx, 32, 1 << 20);
        for target in 0..ctx.len() {
            let ram = index.explain_budgeted(&ctx, target, alpha, budget);
            let disk = paged.explain_row_budgeted(target, alpha, budget);
            prop_assert_eq!(disk, ram, "budgeted divergence at target {}", target);
        }
    }
}

#[test]
fn empty_context_round_trips_and_errors_identically() {
    let ctx = build_ctx(2, 2, &[], &[]);
    let index = ContextIndex::new(&ctx);
    let paged = paged_of(&ctx, 24, 1 << 16);
    assert!(paged.is_empty());
    assert_eq!(
        paged.explain_row(0, Alpha::ONE),
        index.explain(&ctx, 0, Alpha::ONE),
    );
}

#[test]
fn warm_explains_hit_the_cache_and_tiny_budgets_churn() {
    let vals: Vec<u32> = (0..200 * 4).map(|i| (i as u32 * 7 + 3) % 3).collect();
    let labels: Vec<u32> = (0..200).map(|i| (i as u32) % 2).collect();
    let ctx = build_ctx(4, 3, &vals, &labels);

    // Generous budget: a second pass over the same targets should be
    // served (almost) entirely from cache.
    let warm = paged_of(&ctx, 32, 1 << 20);
    for t in 0..20 {
        warm.explain_row(t, Alpha::ONE).ok();
    }
    let cold_stats = warm.cache_stats();
    for t in 0..20 {
        warm.explain_row(t, Alpha::ONE).ok();
    }
    let warm_stats = warm.cache_stats();
    assert_eq!(
        warm_stats.misses, cold_stats.misses,
        "fully-resident store must not fault again on a warm pass"
    );
    assert!(warm_stats.hits > cold_stats.hits);
    assert_eq!(warm_stats.evictions, 0);

    // Pathological budget: everything still correct (checked by the
    // proptests above); here we pin down that eviction actually churns.
    let churn = paged_of(&ctx, 32, 36); // one 32-byte page + overhead
    for t in 0..20 {
        churn.explain_row(t, Alpha::ONE).ok();
    }
    let s = churn.cache_stats();
    assert!(s.evictions > 0, "tiny budget must evict");
    assert!(s.resident_bytes <= 64, "budget must bound residency");
}

#[test]
fn unknown_label_and_width_errors_match() {
    let vals: Vec<u32> = (0..20 * 2).map(|i| (i as u32) % 3).collect();
    let labels: Vec<u32> = vec![0; 20];
    let ctx = build_ctx(2, 3, &vals, &labels);
    let paged = paged_of(&ctx, 24, 1 << 16);
    // A label never recorded into the context.
    let miss = paged.explain_value(
        &Instance::new(vec![0, 0]),
        Label(9),
        Alpha::ONE,
        WorkBudget::unlimited(),
    );
    assert_eq!(miss, Err(cce_core::ExplainError::UnknownInstance));
    // A value code beyond the schema's cardinality.
    let oob = paged.explain_value(
        &Instance::new(vec![7, 0]),
        Label(0),
        Alpha::ONE,
        WorkBudget::unlimited(),
    );
    assert_eq!(
        oob,
        Err(cce_core::ExplainError::ValueOutOfRange {
            feature: 0,
            value: 7,
            cardinality: 3,
        })
    );
    // A malformed width.
    let wide = paged.explain_value(
        &Instance::new(vec![0; 5]),
        Label(0),
        Alpha::ONE,
        WorkBudget::unlimited(),
    );
    assert_eq!(
        wide,
        Err(cce_core::ExplainError::WidthMismatch {
            expected: 2,
            got: 5,
        })
    );
}

/// Threads sharing one index: every answer — row-addressed,
/// value-addressed and budgeted — equals the in-RAM index and the naive
/// reference, whatever the interleaving. The one-page budget keeps
/// every thread faulting and evicting pages the others have pinned.
#[test]
fn concurrent_explains_match_ram_and_naive() {
    const THREADS: u64 = 4;
    let mut s = 0x5EED_u64;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as u32
    };
    let rows = 300;
    let vals: Vec<u32> = (0..rows * 4).map(|_| next() % 3).collect();
    let labels: Vec<u32> = (0..rows).map(|_| next() % 2).collect();
    let ctx = build_ctx(4, 3, &vals, &labels);
    let alpha = Alpha::new(0.95).expect("valid alpha");
    let budget = WorkBudget::new(40);

    // Oracles, computed once: the in-RAM index, checked against the
    // naive reference where both are unbudgeted.
    let index = ContextIndex::new(&ctx);
    let srk = Srk::new(alpha);
    let full: Vec<_> = (0..ctx.len())
        .map(|t| {
            let ram = index.explain_budgeted(&ctx, t, alpha, WorkBudget::unlimited());
            assert_eq!(
                ram,
                srk.explain_naive_budgeted(&ctx, t, WorkBudget::unlimited()),
                "in-RAM index diverged from the naive reference at target {t}"
            );
            ram
        })
        .collect();
    let budgeted: Vec<_> = (0..ctx.len())
        .map(|t| index.explain_budgeted(&ctx, t, alpha, budget))
        .collect();
    assert!(
        budgeted
            .iter()
            .any(|b| matches!(b, Ok(k) if !k.status.is_complete())),
        "the work budget must cut some explains short"
    );

    // 24-byte pages: two pages per bitset column, one row per row page.
    let page_size = 24;
    let mid = 8 * page_size;
    for cache_budget in [page_size, mid] {
        let paged = paged_of(&ctx, page_size, cache_budget);
        std::thread::scope(|scope| {
            for seed in 0..THREADS {
                let (paged, ctx, full, budgeted) = (&paged, &ctx, &full, &budgeted);
                scope.spawn(move || {
                    // A per-thread Fisher-Yates order over the rows.
                    let mut order: Vec<usize> = (0..ctx.len()).collect();
                    let mut s = seed.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for i in (1..order.len()).rev() {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        order.swap(i, (s % (i as u64 + 1)) as usize);
                    }
                    for t in order {
                        let at = format!("target {t}, thread {seed}, cache {cache_budget}");
                        let row = paged.explain_row_budgeted(t, alpha, WorkBudget::unlimited());
                        assert_eq!(row, full[t], "row-addressed, {at}");
                        let by_value = paged.explain_value(
                            ctx.instance(t),
                            ctx.prediction(t),
                            alpha,
                            WorkBudget::unlimited(),
                        );
                        assert_eq!(by_value, full[t], "value-addressed, {at}");
                        let cut = paged.explain_row_budgeted(t, alpha, budget);
                        assert_eq!(cut, budgeted[t], "budgeted, {at}");
                    }
                });
            }
        });
        let stats = paged.cache_stats();
        assert!(stats.misses > 0 && stats.hits > 0, "{stats:?}");
    }
}
