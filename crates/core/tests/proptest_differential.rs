//! Property-based differential tests: the bitset-indexed explain paths
//! (lazy-greedy [`ContextIndex::explain`] and the scratch-reusing
//! [`ContextIndex::explain_with`]) and the optimized scan
//! ([`Srk::explain`]) must agree with the literal Algorithm 1
//! ([`Srk::explain_naive`]) on every context — keys, achieved
//! conformity, and failures alike — and the memoizing work-stealing
//! batch engine ([`Cce::explain_all_parallel`]) must return byte-equal
//! output to the sequential memo-free [`Cce::explain_all`] at every
//! thread count.
//!
//! Coverage deliberately includes the `rows % 64 == 0` boundary of the
//! index's `RowSet::not` (64- and 128-row contexts, where the complement
//! has no padding tail to mask), single-row contexts (zero violators by
//! construction), contradiction-heavy streams (rows identical on every
//! feature but differing in prediction, exercising the `NoConformantKey`
//! path), and duplicate-heavy contexts (tiled base rows with same- and
//! flipped-prediction twins, exercising duplicate-row memoization).

use std::sync::Arc;

use cce_core::{Alpha, Cce, CceConfig, Context, ContextIndex, ExplainScratch, Srk};
use cce_dataset::{FeatureDef, Instance, Label, Schema};
use proptest::prelude::*;

const N_FEATURES: usize = 4;
const CARD: u32 = 3;

/// Builds a context with `labels.len()` rows over [`N_FEATURES`] features
/// of cardinality [`CARD`], reading row `r`'s values from
/// `vals[r * N_FEATURES..]`.
fn build_ctx(vals: &[u32], labels: &[u32]) -> Context {
    let rows = labels.len();
    assert!(
        vals.len() >= rows * N_FEATURES,
        "not enough generated values"
    );
    let names: Vec<String> = (0..CARD).map(|v| format!("v{v}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let feats = (0..N_FEATURES)
        .map(|f| FeatureDef::categorical(&format!("f{f}"), &name_refs))
        .collect();
    let instances = (0..rows)
        .map(|r| Instance::new(vals[r * N_FEATURES..(r + 1) * N_FEATURES].to_vec()))
        .collect();
    let predictions = labels.iter().map(|&l| Label(l)).collect();
    Context::new(Arc::new(Schema::new(feats)), instances, predictions)
}

/// Runs all three implementations on `(ctx, target, alpha)` and asserts
/// they return byte-identical results (same key features in the same
/// order, same achieved conformity, or the same error).
fn assert_all_agree(ctx: &Context, target: usize, alpha: f64) {
    let alpha = Alpha::new(alpha).expect("valid alpha");
    let srk = Srk::new(alpha);
    let naive = srk.explain_naive(ctx, target);
    let fast = srk.explain(ctx, target);
    let index = ContextIndex::new(ctx);
    let indexed = index.explain(ctx, target, alpha);
    assert_eq!(
        fast, naive,
        "optimized scan diverged from Algorithm 1 (target {target})"
    );
    assert_eq!(
        indexed, naive,
        "lazy-greedy indexed path diverged from Algorithm 1 (target {target})"
    );
    if let Ok(key) = naive {
        // The greedy key must actually satisfy the bound it reports.
        let tolerance = alpha.tolerance(ctx.len());
        assert!(
            ctx.count_violators(key.features(), target) <= tolerance,
            "reported key is not α-conformant (target {target})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// 64-row contexts: `rows % 64 == 0`, so `RowSet::not` must not mask a
    /// padding tail — an off-by-one there would silently corrupt violator
    /// counts on exactly-full words.
    #[test]
    fn differential_at_one_full_word(
        vals in proptest::collection::vec(0u32..CARD, 64 * N_FEATURES..=64 * N_FEATURES),
        labels in proptest::collection::vec(0u32..2, 64..=64),
        target in 0usize..64,
    ) {
        let ctx = build_ctx(&vals, &labels);
        assert_all_agree(&ctx, target, 1.0);
    }

    /// 128-row contexts: two exactly-full words, the other `% 64 == 0`
    /// shape (multi-word complement, still no tail).
    #[test]
    fn differential_at_two_full_words(
        vals in proptest::collection::vec(0u32..CARD, 128 * N_FEATURES..=128 * N_FEATURES),
        labels in proptest::collection::vec(0u32..3, 128..=128),
        target in 0usize..128,
    ) {
        let ctx = build_ctx(&vals, &labels);
        assert_all_agree(&ctx, target, 1.0);
    }

    /// Arbitrary context sizes from 1 to ~100 rows, including single-row
    /// contexts (the target is its own context: the empty key conforms)
    /// and relaxed α values.
    #[test]
    fn differential_at_arbitrary_sizes(
        vals in proptest::collection::vec(0u32..CARD, 100 * N_FEATURES..=100 * N_FEATURES),
        labels in proptest::collection::vec(0u32..2, 1..=100),
        target_seed in 0usize..1000,
        alpha_pct in 80u32..=100,
    ) {
        let ctx = build_ctx(&vals, &labels);
        let target = target_seed % ctx.len();
        assert_all_agree(&ctx, target, f64::from(alpha_pct) / 100.0);
    }

    /// Duplicate-heavy contexts at the 64/128-row word boundaries: a few
    /// distinct base rows tiled across the whole context, with both
    /// same-prediction twins (tiling) and flipped-prediction twins
    /// (label reassignment), so the memoized + scratch-reusing +
    /// lazy-greedy path sees many rows per equivalence class and some
    /// contradictory classes.
    #[test]
    fn differential_on_duplicate_heavy_contexts(
        base_vals in proptest::collection::vec(0u32..CARD, 5 * N_FEATURES..=5 * N_FEATURES),
        assign in proptest::collection::vec(0usize..5, 128..=128),
        labels in proptest::collection::vec(0u32..2, 128..=128),
        use_full in 0usize..2,
        target_seed in 0usize..1000,
        alpha_pct in 90u32..=100,
    ) {
        let rows = if use_full == 1 { 128 } else { 64 };
        let vals: Vec<u32> = assign[..rows]
            .iter()
            .flat_map(|&b| base_vals[b * N_FEATURES..(b + 1) * N_FEATURES].iter().copied())
            .collect();
        let ctx = build_ctx(&vals, &labels[..rows]);
        let alpha = f64::from(alpha_pct) / 100.0;
        assert_all_agree(&ctx, target_seed % rows, alpha);

        // The scratch-reusing path must match a fresh-scratch call even
        // after being reused across many (duplicate) targets.
        let a = Alpha::new(alpha).unwrap();
        let index = ContextIndex::new(&ctx);
        let mut scratch = ExplainScratch::new();
        for t in (0..rows).step_by(7) {
            assert_eq!(
                index.explain_with(&ctx, t, a, &mut scratch),
                index.explain(&ctx, t, a),
                "scratch reuse diverged at target {t}"
            );
        }

        // And the memoizing work-stealing engine must be byte-identical
        // to the sequential memo-free batch at every thread count.
        let cce = Cce::with_context(ctx, CceConfig { alpha: a, ..CceConfig::default() });
        let seq = cce.explain_all();
        for threads in [1usize, 2, 4, 8] {
            prop_assert_eq!(
                &cce.explain_all_parallel(threads),
                &seq,
                "work stealing diverged at {} threads",
                threads
            );
        }
    }

    /// Contradiction-heavy streams: a single feature value pattern repeated
    /// with clashing predictions. Exact conformity (α = 1) is often
    /// unsatisfiable; all implementations must report the *same*
    /// `NoConformantKey` contradiction count.
    #[test]
    fn differential_under_contradictions(
        base in proptest::collection::vec(0u32..2, N_FEATURES..=N_FEATURES),
        labels in proptest::collection::vec(0u32..2, 2..=40),
        flips in proptest::collection::vec(0usize..(40 * N_FEATURES), 0..=6),
        target_seed in 0usize..1000,
    ) {
        // Start from identical rows, then flip a handful of cells so a few
        // rows become separable while most stay contradictory.
        let rows = labels.len();
        let mut vals: Vec<u32> = (0..rows).flat_map(|_| base.iter().copied()).collect();
        for &f in &flips {
            if f < vals.len() {
                vals[f] = (vals[f] + 1) % CARD;
            }
        }
        let ctx = build_ctx(&vals, &labels);
        assert_all_agree(&ctx, target_seed % rows, 1.0);
    }
}

/// A one-row context always yields the empty key at full conformity — no
/// other instance exists to violate it.
#[test]
fn single_row_context_yields_empty_key() {
    for v in 0..CARD {
        let vals = vec![v; N_FEATURES];
        let ctx = build_ctx(&vals, &[1]);
        let key = Srk::new(Alpha::new(1.0).unwrap())
            .explain(&ctx, 0)
            .expect("empty key conforms");
        assert!(key.features().is_empty());
        assert_eq!(key.achieved_conformity(), 1.0);
        let indexed = ContextIndex::new(&ctx)
            .explain(&ctx, 0, Alpha::new(1.0).unwrap())
            .expect("indexed agrees");
        assert_eq!(indexed, key);
    }
}

/// Fully contradictory two-row context: identical instances, different
/// predictions — every implementation must fail identically at α = 1.
#[test]
fn pure_contradiction_fails_identically() {
    let vals = [vec![1u32; N_FEATURES], vec![1u32; N_FEATURES]].concat();
    let ctx = build_ctx(&vals, &[0, 1]);
    let alpha = Alpha::new(1.0).unwrap();
    let srk = Srk::new(alpha);
    let naive = srk.explain_naive(&ctx, 0);
    assert!(
        naive.is_err(),
        "contradiction must be unexplainable at α = 1"
    );
    assert_eq!(srk.explain(&ctx, 0), naive);
    assert_eq!(ContextIndex::new(&ctx).explain(&ctx, 0, alpha), naive);
}
