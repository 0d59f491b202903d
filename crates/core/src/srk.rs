//! Algorithm 1 — SRK: greedy computation of succinct relative keys.
//!
//! SRK picks features one at a time, each time choosing the feature that
//! minimizes the number of remaining *violators*: context instances that
//! agree with the target on every selected feature yet carry a different
//! prediction. It stops as soon as the violator count drops within the
//! tolerance `⌊(1 - α)·|I|⌋`.
//!
//! Guarantees (paper §4): runs in `O(n²·|I|)` time and always returns an
//! α-conformant key whose succinctness is within `ln(α·|I|)` of the
//! optimum (Lemma 3) — computing the optimum itself is NP-complete
//! (Theorem 1).
//!
//! Implementation note: [`Srk::explain`] runs the shared lazy-greedy
//! driver ([`crate::greedy`]) over row-id lists that shrink as features
//! are picked; [`Srk::explain_naive`] keeps the literal re-scan of
//! Algorithm 1 as the independent oracle. Both select the same features
//! (see the `ablation` bench for the wall-clock difference).

use std::cmp::Reverse;
use std::convert::Infallible;

use cce_dataset::{Instance, Label};

use crate::alpha::Alpha;
use crate::context::Context;
use crate::error::ExplainError;
use crate::greedy::{self, record_run, CandidateHeap, CountSource};
use crate::key::RelativeKey;

/// A cap on the violator-scan work one explain call may spend.
///
/// On adversarial rows (huge violator sets that barely shrink) the greedy
/// loop's `O(n²·|I|)` worst case can stall a serving thread. A budget
/// turns that stall into *graceful degradation*: the call returns the
/// best partial key found within budget, explicitly labeled as such.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkBudget {
    /// Maximum violator-row scans in **eager-scan units**: each greedy
    /// round charges `unpicked features × live violators`, what the
    /// literal Algorithm 1 spends, whichever path serves the call.
    pub max_scans: u64,
}

impl WorkBudget {
    /// A budget of `max_scans` violator-row scans.
    pub fn new(max_scans: u64) -> Self {
        Self { max_scans }
    }

    /// Effectively no cap.
    pub fn unlimited() -> Self {
        Self {
            max_scans: u64::MAX,
        }
    }
}

/// Whether an explanation ran to completion or was cut short by its
/// [`WorkBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainStatus {
    /// The key satisfies the requested α bound.
    Complete,
    /// The budget ran out first: the key is a *partial* explanation —
    /// coherent with what a finished run would pick first, but with
    /// violators left uncovered.
    Degraded {
        /// Violator scans spent before stopping.
        spent: u64,
        /// Violators still uncovered when the budget ran out.
        remaining_violators: usize,
    },
}

impl ExplainStatus {
    /// True for [`ExplainStatus::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, ExplainStatus::Complete)
    }
}

/// The result of a budget-guarded explanation: a (possibly partial) key
/// plus the status telling whether the α bound was reached.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedKey {
    /// The key built within budget.
    pub key: RelativeKey,
    /// Completion status.
    pub status: ExplainStatus,
}

/// The greedy batch explainer.
///
/// ```
/// use cce_core::{Alpha, Context, Srk};
/// use cce_dataset::{FeatureDef, Instance, Label, Schema};
/// use std::sync::Arc;
///
/// // A tiny context: (Income, Credit) → decision.
/// let schema = Arc::new(Schema::new(vec![
///     FeatureDef::categorical("Income", &["low", "high"]),
///     FeatureDef::categorical("Credit", &["poor", "good"]),
/// ]));
/// let ctx = Context::new(
///     schema,
///     vec![
///         Instance::new(vec![0, 0]), // low income, poor credit → denied
///         Instance::new(vec![1, 0]), // high income, poor credit → approved
///         Instance::new(vec![0, 1]), // low income, good credit → approved
///     ],
///     vec![Label(0), Label(1), Label(1)],
/// );
///
/// // Explaining row 0 needs both features: each alone admits a violator.
/// let key = Srk::new(Alpha::ONE).explain(&ctx, 0)?;
/// assert_eq!(key.succinctness(), 2);
/// assert!(ctx.is_alpha_key(key.features(), 0, Alpha::ONE));
/// # Ok::<(), cce_core::ExplainError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Srk {
    alpha: Alpha,
}

impl Srk {
    /// An explainer targeting conformity bound `alpha`.
    pub fn new(alpha: Alpha) -> Self {
        Self { alpha }
    }

    /// The configured conformity bound.
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// Computes an α-conformant key for the instance at `target` relative
    /// to `ctx`.
    ///
    /// # Errors
    /// * [`ExplainError::EmptyContext`] / [`ExplainError::TargetOutOfRange`]
    ///   on bad inputs;
    /// * [`ExplainError::NoConformantKey`] when contradicting instances
    ///   (identical to the target, different prediction) exceed the
    ///   tolerance, so no feature subset can work.
    pub fn explain(&self, ctx: &Context, target: usize) -> Result<RelativeKey, ExplainError> {
        self.explain_budgeted(ctx, target, WorkBudget::unlimited())
            .map(|b| b.key)
    }

    /// Like [`Srk::explain`], but spends at most `budget` violator scans.
    ///
    /// When the budget runs out, the call returns the partial key built so
    /// far with [`ExplainStatus::Degraded`] instead of hanging on an
    /// adversarial row; the partial key is a prefix of what the unbounded
    /// run would have picked.
    ///
    /// # Errors
    /// Same as [`Srk::explain`]; running out of budget is *not* an error.
    pub fn explain_budgeted(
        &self,
        ctx: &Context,
        target: usize,
        budget: WorkBudget,
    ) -> Result<BudgetedKey, ExplainError> {
        ctx.check_target(target)?;
        let mut src = RowLists {
            ctx,
            x0: ctx.instance(target),
            p0: ctx.prediction(target),
            seeds: Vec::new(),
            violators: Vec::new(),
            supporters: Vec::new(),
        };
        let Ok(run) = greedy::run(&mut src, self.alpha, budget, &mut CandidateHeap::default());
        record_run!("srk", &run);
        run.result
    }

    /// Reference implementation that re-scans the context every iteration —
    /// the literal Algorithm 1. Kept for the ablation benchmark and as
    /// the independent oracle every driver-backed path is tested against.
    ///
    /// # Errors
    /// Same as [`Srk::explain`].
    pub fn explain_naive(&self, ctx: &Context, target: usize) -> Result<RelativeKey, ExplainError> {
        self.explain_naive_budgeted(ctx, target, WorkBudget::unlimited())
            .map(|b| b.key)
    }

    /// [`Srk::explain_naive`] under a [`WorkBudget`] (each round charges
    /// `unpicked features × live violators`): the budgeted reference.
    ///
    /// # Errors
    /// Same as [`Srk::explain`]; running out of budget is *not* an error.
    pub fn explain_naive_budgeted(
        &self,
        ctx: &Context,
        target: usize,
        budget: WorkBudget,
    ) -> Result<BudgetedKey, ExplainError> {
        ctx.check_target(target)?;
        let n = ctx.schema().n_features();
        let tolerance = self.alpha.tolerance(ctx.len());
        let mut picked: Vec<usize> = Vec::new();
        let mut spent: u64 = 0;
        let (violators, status) = loop {
            let violators = ctx.count_violators(&picked, target);
            if violators <= tolerance {
                break (violators, ExplainStatus::Complete);
            }
            if picked.len() == n {
                return Err(ExplainError::NoConformantKey {
                    contradictions: violators,
                    tolerance,
                });
            }
            if spent >= budget.max_scans {
                let status = ExplainStatus::Degraded {
                    spent,
                    remaining_violators: violators,
                };
                break (violators, status);
            }
            spent += ((n - picked.len()) * violators) as u64;
            // Fewest violators, then most covered rows, then (as
            // `min_by_key` keeps the first minimum) the lowest index.
            let best = (0..n)
                .filter(|f| !picked.contains(f))
                .min_by_key(|&f| {
                    let candidate = [picked.as_slice(), &[f]].concat();
                    let cover = ctx.covered_rows(&candidate, target).len();
                    (ctx.count_violators(&candidate, target), Reverse(cover))
                })
                .expect("an unpicked feature remains");
            picked.push(best);
        };
        let achieved = 1.0 - violators as f64 / ctx.len() as f64;
        Ok(BudgetedKey {
            key: RelativeKey::new(picked, self.alpha, achieved),
            status,
        })
    }
}

/// The row-list count source: the live sets as row-id lists over a
/// [`Context`], filtered as features are picked.
struct RowLists<'a> {
    ctx: &'a Context,
    x0: &'a Instance,
    p0: Label,
    seeds: Vec<(usize, usize)>,
    violators: Vec<u32>,
    supporters: Vec<u32>,
}

impl RowLists<'_> {
    fn matching(&self, rows: &[u32], f: usize) -> usize {
        rows.iter()
            .filter(|&&r| self.ctx.instance(r as usize)[f] == self.x0[f])
            .count()
    }
}

impl CountSource for RowLists<'_> {
    type Fault = Infallible;

    fn n_features(&self) -> usize {
        self.ctx.schema().n_features()
    }

    /// One pass splits the rows by prediction and tabulates the seeds.
    fn start(&mut self) -> Result<(usize, usize), Infallible> {
        let (ctx, x0) = (self.ctx, self.x0);
        self.seeds = vec![(0, 0); self.n_features()];
        self.violators.clear();
        self.supporters.clear();
        for r in 0..ctx.len() {
            let same = ctx.prediction(r) == self.p0;
            let live = if same {
                &mut self.supporters
            } else {
                &mut self.violators
            };
            live.push(r as u32);
            let values = ctx.instance(r).values().iter().zip(x0.values());
            for (seed, (v, v0)) in self.seeds.iter_mut().zip(values) {
                *if same { &mut seed.1 } else { &mut seed.0 } += usize::from(v == v0);
            }
        }
        Ok((ctx.len(), self.violators.len()))
    }

    fn seed(&self, f: usize) -> (usize, usize) {
        self.seeds[f]
    }

    fn surv(&mut self, f: usize) -> Result<usize, Infallible> {
        Ok(self.matching(&self.violators, f))
    }

    fn cover(&mut self, f: usize) -> Result<usize, Infallible> {
        Ok(self.matching(&self.supporters, f))
    }

    fn pick(&mut self, f: usize) -> Result<usize, Infallible> {
        let (ctx, x0) = (self.ctx, self.x0);
        let keeps = |r: &u32| ctx.instance(*r as usize)[f] == x0[f];
        self.violators.retain(keeps);
        self.supporters.retain(keeps);
        Ok(self.violators.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::figure2;
    use cce_dataset::{synth, BinSpec, Instance, Label};
    use cce_model::{Gbdt, GbdtParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn example6_alpha_one_picks_credit_then_income() {
        let (ctx, x0) = figure2();
        let key = Srk::new(Alpha::ONE).explain(&ctx, x0).unwrap();
        // SRK first picks Credit (1 violator), then Income (0 violators).
        assert_eq!(key.features(), &[2, 1], "Credit then Income");
        assert_eq!(key.succinctness(), 2);
        assert_eq!(key.achieved_conformity(), 1.0);
        assert!(ctx.is_alpha_key(key.features(), x0, Alpha::ONE));
    }

    #[test]
    fn example6_six_sevenths_returns_credit_only() {
        let (ctx, x0) = figure2();
        let alpha = Alpha::new(6.0 / 7.0).unwrap();
        let key = Srk::new(alpha).explain(&ctx, x0).unwrap();
        assert_eq!(key.features(), &[2], "Credit alone");
        assert!(ctx.is_alpha_key(key.features(), x0, alpha));
        assert!((key.achieved_conformity() - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn naive_and_optimized_agree() {
        let raw = synth::loan::generate(300, 21);
        let ds = raw.encode(&BinSpec::uniform(8));
        let ctx = crate::Context::from_recorded(&ds);
        let srk = Srk::new(Alpha::ONE);
        let srk9 = Srk::new(Alpha::new(0.9).unwrap());
        for t in (0..ctx.len()).step_by(17) {
            // Label noise can create genuine contradictions; both variants
            // must then agree on the error as well.
            assert_eq!(
                srk.explain(&ctx, t),
                srk.explain_naive(&ctx, t),
                "target {t} (α=1)"
            );
            assert_eq!(
                srk9.explain(&ctx, t),
                srk9.explain_naive(&ctx, t),
                "target {t} (α=0.9)"
            );
        }
    }

    #[test]
    fn output_is_always_alpha_conformant() {
        let raw = synth::compas::generate(400, 5);
        let ds = raw.encode(&BinSpec::uniform(10));
        let (train, infer) = ds.split(0.7, &mut StdRng::seed_from_u64(2));
        let model = Gbdt::train(&train, &GbdtParams::fast(), 0);
        let ctx = crate::Context::from_model(&infer, &model);
        for &a in &[1.0, 0.95, 0.9] {
            let alpha = Alpha::new(a).unwrap();
            let srk = Srk::new(alpha);
            for t in (0..ctx.len()).step_by(13) {
                let key = srk.explain(&ctx, t).unwrap();
                assert!(
                    ctx.is_alpha_key(key.features(), t, alpha),
                    "α={a}, target {t}, key {:?}",
                    key.features()
                );
            }
        }
    }

    #[test]
    fn smaller_alpha_never_longer() {
        let raw = synth::german::generate(400, 6);
        let ds = raw.encode(&BinSpec::uniform(10));
        let ctx = crate::Context::from_recorded(&ds);
        for t in (0..ctx.len()).step_by(29) {
            let k1 = Srk::new(Alpha::ONE).explain(&ctx, t).unwrap();
            let k9 = Srk::new(Alpha::new(0.9).unwrap()).explain(&ctx, t).unwrap();
            assert!(
                k9.succinctness() <= k1.succinctness(),
                "relaxing α should not lengthen keys (target {t})"
            );
        }
    }

    #[test]
    fn contradictions_are_detected() {
        let (mut ctx, x0) = figure2();
        // A doppelgänger of x0 with the opposite prediction: no key exists.
        let twin = ctx.instance(x0).clone();
        ctx.push(twin, Label(1)).unwrap();
        let err = Srk::new(Alpha::ONE).explain(&ctx, x0).unwrap_err();
        assert!(matches!(
            err,
            ExplainError::NoConformantKey {
                contradictions: 1,
                tolerance: 0
            }
        ));
        // A relaxed bound tolerates it.
        let key = Srk::new(Alpha::new(0.8).unwrap())
            .explain(&ctx, x0)
            .unwrap();
        assert!(ctx.is_alpha_key(key.features(), x0, Alpha::new(0.8).unwrap()));
    }

    #[test]
    fn single_instance_context_gives_empty_key() {
        let (ctx, _) = figure2();
        let schema = ctx.schema_arc();
        let mut solo = crate::Context::empty(schema);
        solo.push(Instance::new(vec![0, 0, 0, 0]), Label(0))
            .unwrap();
        let key = Srk::new(Alpha::ONE).explain(&solo, 0).unwrap();
        assert_eq!(key.succinctness(), 0, "nothing to distinguish from");
    }

    #[test]
    fn uniform_prediction_context_gives_empty_key() {
        let (ctx, _) = figure2();
        let mut all_same = crate::Context::empty(ctx.schema_arc());
        for i in 0..5u32 {
            all_same
                .push(Instance::new(vec![i % 2, i % 3, i % 2, i % 3]), Label(0))
                .unwrap();
        }
        let key = Srk::new(Alpha::ONE).explain(&all_same, 2).unwrap();
        assert_eq!(key.succinctness(), 0);
    }

    #[test]
    fn errors_on_bad_target() {
        let (ctx, _) = figure2();
        assert!(Srk::new(Alpha::ONE).explain(&ctx, 99).is_err());
    }

    #[test]
    fn unlimited_budget_matches_plain_explain() {
        let raw = synth::loan::generate(250, 31);
        let ds = raw.encode(&BinSpec::uniform(8));
        let ctx = crate::Context::from_recorded(&ds);
        let srk = Srk::new(Alpha::ONE);
        for t in (0..ctx.len()).step_by(23) {
            let plain = srk.explain(&ctx, t);
            let budgeted = srk.explain_budgeted(&ctx, t, WorkBudget::unlimited());
            match (plain, budgeted) {
                (Ok(k), Ok(b)) => {
                    assert_eq!(k, b.key, "target {t}");
                    assert!(b.status.is_complete());
                }
                (Err(e1), Err(e2)) => assert_eq!(e1, e2),
                (p, b) => panic!("divergence at {t}: {p:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn exhausted_budget_degrades_to_a_partial_prefix() {
        let raw = synth::german::generate(300, 12);
        let ds = raw.encode(&BinSpec::uniform(10));
        let ctx = crate::Context::from_recorded(&ds);
        let srk = Srk::new(Alpha::ONE);
        // Find a target that genuinely needs multiple features.
        let target = (0..ctx.len())
            .find(|&t| {
                srk.explain(&ctx, t)
                    .map(|k| k.succinctness() >= 2)
                    .unwrap_or(false)
            })
            .expect("some target needs a multi-feature key");
        let full = srk.explain(&ctx, target).unwrap();
        // A budget covering exactly one pick round: n·|violators| scans.
        let one_round = (ctx.schema().n_features() * ctx.count_violators(&[], target)) as u64;
        let b = srk
            .explain_budgeted(&ctx, target, WorkBudget::new(one_round))
            .unwrap();
        match b.status {
            ExplainStatus::Degraded {
                spent,
                remaining_violators,
            } => {
                assert!(spent >= one_round);
                assert!(remaining_violators > 0);
            }
            ExplainStatus::Complete => panic!("budget should have been exhausted"),
        }
        assert!(b.key.succinctness() < full.succinctness());
        // The partial key is a prefix of the unbounded greedy pick order.
        assert_eq!(
            full.features()[..b.key.succinctness()],
            *b.key.features(),
            "degraded key must be a greedy prefix"
        );
    }

    #[test]
    fn zero_budget_returns_empty_degraded_key() {
        let (ctx, x0) = figure2();
        let b = Srk::new(Alpha::ONE)
            .explain_budgeted(&ctx, x0, WorkBudget::new(0))
            .unwrap();
        assert_eq!(b.key.succinctness(), 0);
        assert!(!b.status.is_complete());
    }
}
