//! The one SRK driver: lazy-greedy (CELF) selection over any
//! [`CountSource`].
//!
//! Algorithm 1 is a single rule: pick the feature that leaves the fewest
//! violators — ties go to the feature keeping the most supporters (keys
//! that apply to more instances, §2; Lemma 3 holds for any argmin), then
//! to the lowest index — until the violators fit the tolerance
//! `⌊(1 − α)·|I|⌋`. Every explain path runs that rule through [`run`]
//! over its own counts: row lists (`Srk`), bitset postings
//! (`ContextIndex`), paged columns (`PagedContextIndex`), or sums over
//! shards (the `cce-serve` router). The independent reference is
//! [`Srk::explain_naive`], which shares no code with this module.
//!
//! **Laziness.** A feature's gain and its supporter coverage only shrink
//! as picks shrink the live sets, so an earlier round's score is an
//! upper bound. Each round re-evaluates heap tops only until the top is
//! fresh (skips: `cce_lazy_greedy_skips_total`); the pick, tie-breaks
//! included, is exactly the full rescan's. Round 0 reads seeds only.
//!
//! **Budgets** are in eager-scan units: each round charges `unpicked
//! features × live violators`, what the literal Algorithm 1 spends, so
//! completion, degradation and `spent` are the same for every source.
//! The twin certificate is consulted only under an unlimited budget: a
//! finite one must degrade wherever the reference scan would.
//!
//! [`Srk::explain_naive`]: crate::Srk::explain_naive

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::alpha::Alpha;
use crate::error::ExplainError;
use crate::key::RelativeKey;
use crate::srk::{BudgetedKey, ExplainStatus, WorkBudget};

/// Where the greedy driver gets its counts.
///
/// A source is bound to one target `(x₀, p₀)`. Its *live sets* are the
/// violators (rows predicted differently) and supporters (rows predicted
/// alike) that agree with `x₀` on every feature picked so far.
pub trait CountSource {
    /// Why a count could not be produced (a page fault, a failed shard);
    /// [`std::convert::Infallible`] for sources that cannot fail.
    type Fault;

    /// Candidate features are `0..n_features()`.
    fn n_features(&self) -> usize;

    /// Resets the live sets to the whole context and returns its size
    /// `|I|` (never zero: sources reject empty contexts up front) and the
    /// violator count of the empty key.
    fn start(&mut self) -> Result<(usize, usize), Self::Fault>;

    /// Round-0 `(surv₀, cover₀)` of feature `f`: violators and supporters
    /// of the whole context sharing `x₀`'s value of `f`.
    fn seed(&self, f: usize) -> (usize, usize);

    /// Live violators sharing `x₀`'s value of `f`.
    fn surv(&mut self, f: usize) -> Result<usize, Self::Fault>;

    /// Live supporters sharing `x₀`'s value of `f`.
    fn cover(&mut self, f: usize) -> Result<usize, Self::Fault>;

    /// Adds `f` to the key: narrows the live sets to `x₀`'s value of `f`
    /// and returns the new violator count.
    fn pick(&mut self, f: usize) -> Result<usize, Self::Fault>;

    /// Rows identical to `x₀` but predicted differently, when the source
    /// keeps that certificate: the violators left after picking every
    /// feature, in any order.
    fn twin_violators(&self) -> Option<usize> {
        None
    }
}

/// The outcome of one [`run`], with its work counters for the caller to
/// record under its own `algo` label.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyRun {
    /// The key (complete or degraded), or `NoConformantKey`.
    pub result: Result<BudgetedKey, ExplainError>,
    /// Candidate scores refreshed against the live violators.
    pub evaluated: u64,
    /// Evaluations an eager rescan would have made in the same rounds.
    pub eager_scans: u64,
}

/// A candidate, ordered by the greedy objective: most violators
/// eliminated, then most supporters kept, then the lowest index. Each
/// score component carries the round it was last computed in; a stale
/// one is an upper bound. Separate stamps let a round refresh `killed`
/// alone: `cover` matters only when the runner-up ties on `killed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    killed: usize,
    cover: usize,
    /// Unique per candidate, so the stamps never decide the order.
    feat: Reverse<usize>,
    kstamp: usize,
    cstamp: usize,
}

/// The driver's reusable candidate heap; a worker holding one across
/// its batch keeps the steady-state loop allocation-free.
#[derive(Debug, Default, Clone)]
pub struct CandidateHeap(BinaryHeap<Candidate>);

/// A round-0 candidate, scored from the source's seed table.
fn seeded<S: CountSource>(src: &S, f: usize, initial: usize) -> Candidate {
    let (surv0, cover0) = src.seed(f);
    Candidate {
        killed: initial - surv0,
        cover: cover0,
        feat: Reverse(f),
        kstamp: 0,
        cstamp: 0,
    }
}

/// Runs SRK over `src` for conformity bound `alpha` within `budget`.
/// Records no metrics: a `cce_obs` handle interned in this generic
/// function would be shared by every source.
///
/// # Errors
/// Only the source's fault; explain outcomes are in
/// [`GreedyRun::result`].
pub fn run<S: CountSource>(
    src: &mut S,
    alpha: Alpha,
    budget: WorkBudget,
    heap: &mut CandidateHeap,
) -> Result<GreedyRun, S::Fault> {
    let n = src.n_features();
    let (rows, initial) = src.start()?;
    let tolerance = alpha.tolerance(rows);
    let budgeted = budget != WorkBudget::unlimited();
    let no_key = |contradictions| {
        Err(ExplainError::NoConformantKey {
            contradictions,
            tolerance,
        })
    };
    let certificate = if budgeted || initial <= tolerance {
        None
    } else {
        src.twin_violators()
    };

    let heap = &mut heap.0;
    let (mut evaluated, mut eager_scans, mut spent) = (0, 0, 0);
    let mut violators = initial;
    let mut picked = Vec::new();
    let status = match certificate.filter(|&twins| twins > tolerance) {
        Some(twins) => no_key(twins),
        None => loop {
            if violators <= tolerance {
                break Ok(ExplainStatus::Complete);
            }
            if picked.len() == n {
                break no_key(violators);
            }
            if budgeted && spent >= budget.max_scans {
                break Ok(ExplainStatus::Degraded {
                    spent,
                    remaining_violators: violators,
                });
            }
            let round = picked.len();
            eager_scans += (n - round) as u64;
            spent += ((n - round) * violators) as u64;
            let best = if round == 0 {
                // No heap for round 0: one-feature keys are the common
                // case. Scanning upward, a strict `>` keeps the lowest
                // index on ties.
                let mut best = seeded(src, 0, initial);
                for f in 1..n {
                    let c = seeded(src, f, initial);
                    if (c.killed, c.cover) > (best.killed, best.cover) {
                        best = c;
                    }
                }
                best
            } else {
                if round == 1 {
                    heap.clear();
                    let rest = (0..n).filter(|&f| f != picked[0]);
                    heap.extend(rest.map(|f| seeded(src, f, initial)));
                }
                loop {
                    let mut top = heap.pop().expect("unpicked candidates remain");
                    let Reverse(f) = top.feat;
                    if top.kstamp < round {
                        top.killed = violators - src.surv(f)?;
                        top.kstamp = round;
                        evaluated += 1;
                    } else if top.cstamp == round
                        || heap.peek().is_none_or(|next| next.killed < top.killed)
                    {
                        // Fresh scores beat every upper bound below them.
                        break top;
                    } else {
                        top.cover = src.cover(f)?;
                        top.cstamp = round;
                    }
                    heap.push(top);
                }
            };
            let Reverse(f) = best.feat;
            picked.push(f);
            violators = src.pick(f)?;
        },
    };
    let achieved = 1.0 - violators as f64 / rows as f64;
    Ok(GreedyRun {
        result: status.map(|status| BudgetedKey {
            key: RelativeKey::new(picked, alpha, achieved),
            status,
        }),
        evaluated,
        eager_scans,
    })
}

/// Records a [`GreedyRun`] in the explain metrics under the caller's
/// literal `algo` label; a macro so each label gets its own call-site
/// handles.
macro_rules! record_run {
    ($algo:literal, $run:expr) => {{
        let run: &$crate::greedy::GreedyRun = $run;
        match &run.result {
            Ok(b) if b.status.is_complete() => {
                cce_obs::counter!("cce_explain_keys_total", "algo" => $algo).inc();
                cce_obs::histogram!("cce_explain_key_length", "algo" => $algo)
                    .record(b.key.succinctness() as u64);
                cce_obs::counter!("cce_explain_violator_scans_total", "algo" => $algo)
                    .add(run.evaluated);
                cce_obs::counter!("cce_lazy_greedy_skips_total")
                    .add(run.eager_scans - run.evaluated);
            }
            Ok(_) => {
                cce_obs::counter!("cce_explain_degraded_total").inc();
                cce_obs::counter!("cce_explain_violator_scans_total", "algo" => $algo)
                    .add(run.evaluated);
            }
            Err($crate::ExplainError::NoConformantKey { .. }) => {
                cce_obs::counter!("cce_explain_errors_total", "kind" => "no_conformant_key").inc();
            }
            Err(_) => {}
        }
    }};
}
pub(crate) use record_run;
