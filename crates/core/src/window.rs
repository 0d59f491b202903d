//! Sliding-window contexts for dynamic models (Appendix B, Exp-4).
//!
//! When the served model evolves *without notifying the client*, CCE keeps
//! the context fresh with a sliding window: every `ΔI` arrivals it drops
//! the `ΔI` oldest instances. An instance explained under several
//! overlapping windows can receive different keys; a [`ResolutionPolicy`]
//! reconciles them (the paper's First-wins / Last-wins / Union-key, with
//! Last-wins the default).
//!
//! The window rides on a churn-capable [`BatchEngine`]: every arrival and
//! every `ΔI` slide is an in-place index **delta**
//! ([`BatchEngine::push`] / [`BatchEngine::evict_oldest`]), not a rebuild,
//! and [`SlidingWindow::explain`] joins the target transiently through
//! [`BatchEngine::explain_adhoc`] — so a full window is always hot for
//! explanation, at any size, without re-paying the index build.

use std::collections::HashMap;
use std::sync::Arc;

use cce_dataset::{Instance, Label, Schema};

use crate::alpha::Alpha;
use crate::context::Context;
use crate::engine::BatchEngine;
use crate::error::ExplainError;
use crate::key::RelativeKey;

/// How keys from overlapping windows are reconciled for one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResolutionPolicy {
    /// Keep the key from the earliest context that explained the instance.
    FirstWins,
    /// Keep the key from the latest context (the paper's default).
    #[default]
    LastWins,
    /// Union of all keys computed for the instance.
    UnionKey,
}

/// The ΔI slide rule over a live context: once the engine holds more
/// than `capacity` rows, every `delta` further arrivals evict the `delta`
/// oldest — each a tombstone delta, never a rebuild.
///
/// [`SlidingWindow`] and the serving daemon's `--window` both slide
/// through [`LiveWindow::slide`]; each keeps its own staged count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveWindow {
    /// Live rows beyond which the context starts sliding.
    pub capacity: usize,
    /// ΔI: evictions happen in granules of this many rows.
    pub delta: usize,
}

impl LiveWindow {
    /// Applies the rule after one arrival has joined `engine`. `staged`
    /// counts the arrivals past capacity since the last slide; returns
    /// the rows this call evicted (0 unless it completed a granule).
    pub fn slide(&self, engine: &mut BatchEngine, staged: &mut usize) -> usize {
        if engine.len() <= self.capacity {
            return 0;
        }
        *staged += 1;
        if *staged < self.delta {
            return 0;
        }
        let evicted = engine.evict_oldest(*staged);
        *staged = 0;
        evicted
    }
}

/// A bounded, sliding explanation context.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    window: LiveWindow,
    policy: ResolutionPolicy,
    /// The live, delta-patched index over the windowed rows.
    engine: BatchEngine,
    /// Arrivals since the last slide; sliding happens in ΔI granules.
    staged: usize,
    /// Resolved keys per explained instance.
    resolved: HashMap<Instance, RelativeKey>,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` instances, sliding by
    /// `delta` (`ΔI`) at a time.
    ///
    /// # Panics
    /// Panics when `capacity == 0` or `delta == 0` or `delta > capacity`.
    pub fn new(
        schema: Arc<Schema>,
        capacity: usize,
        delta: usize,
        alpha: Alpha,
        policy: ResolutionPolicy,
    ) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(delta > 0 && delta <= capacity, "ΔI must be in 1..=capacity");
        Self {
            window: LiveWindow { capacity, delta },
            policy,
            engine: BatchEngine::new(Context::new(schema, Vec::new(), Vec::new()), alpha),
            staged: 0,
            resolved: HashMap::new(),
        }
    }

    /// Number of instances currently in the window.
    pub fn len(&self) -> usize {
        self.engine.len()
    }

    /// True when the window holds no instances.
    pub fn is_empty(&self) -> bool {
        self.engine.is_empty()
    }

    /// The delta-patched engine the window maintains (always explainable;
    /// read-only — mutate only through [`SlidingWindow::push`]).
    pub fn engine(&self) -> &BatchEngine {
        &self.engine
    }

    /// Pushes one serving-time observation, sliding the window in `ΔI`
    /// granules once it is full. Both the arrival and the slide patch the
    /// index in place.
    ///
    /// # Errors
    /// [`ExplainError::WidthMismatch`] on a wrong-width instance.
    pub fn push(&mut self, x: Instance, pred: Label) -> Result<(), ExplainError> {
        self.engine.push(x, pred)?;
        if self.window.slide(&mut self.engine, &mut self.staged) > 0 {
            cce_obs::counter!("cce_window_slides_total").inc();
        }
        Ok(())
    }

    /// Materializes the current window as a [`Context`].
    pub fn context(&self) -> Context {
        self.engine.materialize()
    }

    /// Explains `(x, pred)` against the current window, reconciling with
    /// previous keys for the same instance under the configured policy.
    ///
    /// The instance does not need to be in the window; it joins the
    /// context *transiently* through an insert delta (and leaves the same
    /// way), identical to materializing the window with the target
    /// appended and running [`Srk::explain`].
    ///
    /// # Errors
    /// Failure modes of [`Srk::explain`].
    ///
    /// [`Srk::explain`]: crate::Srk::explain
    pub fn explain(&mut self, x: &Instance, pred: Label) -> Result<RelativeKey, ExplainError> {
        let fresh = self.engine.explain_adhoc(x, pred)?.key;

        if let Some(prev) = self.resolved.get(x) {
            // Overlapping windows produced differing keys: the event the
            // resolution policy exists to reconcile.
            if prev.features() != fresh.features() {
                let policy = match self.policy {
                    ResolutionPolicy::FirstWins => "first_wins",
                    ResolutionPolicy::LastWins => "last_wins",
                    ResolutionPolicy::UnionKey => "union_key",
                };
                // Registry lookup, not the caching macro: the label varies
                // at runtime and conflicts are rare (cold path).
                cce_obs::registry()
                    .counter(
                        "cce_window_resolution_conflicts_total",
                        &[("policy", policy)],
                    )
                    .inc();
            }
        }
        let resolved = match (self.policy, self.resolved.get(x)) {
            (ResolutionPolicy::FirstWins, Some(prev)) => prev.clone(),
            (ResolutionPolicy::UnionKey, Some(prev)) => {
                let mut feats = prev.features().to_vec();
                for &f in fresh.features() {
                    if !feats.contains(&f) {
                        feats.push(f);
                    }
                }
                // Rare reconciliation path: materializing here is fine,
                // the hot explain above went through the live index.
                let mut ctx = self.context();
                ctx.push(x.clone(), pred)?;
                let achieved = ctx.max_alpha(&feats, ctx.len() - 1);
                RelativeKey::new(feats, self.engine.alpha(), achieved)
            }
            _ => fresh,
        };
        self.resolved.insert(x.clone(), resolved.clone());
        Ok(resolved)
    }

    /// The currently resolved key for an instance, if it was explained.
    pub fn resolved_key(&self, x: &Instance) -> Option<&RelativeKey> {
        self.resolved.get(x)
    }

    /// Drops the buffered context and resolved keys — the Appendix B path
    /// for a *known* model change ("CCE naturally cleans its context and
    /// switches to inference instances ... from the updated M").
    pub fn reset(&mut self) {
        let schema = Arc::clone(self.engine.schema());
        let alpha = self.engine.alpha();
        self.engine = BatchEngine::new(Context::new(schema, Vec::new(), Vec::new()), alpha);
        self.staged = 0;
        self.resolved.clear();
    }
}

impl crate::persist::PersistState for SlidingWindow {
    const TYPE_TAG: u8 = 4;

    fn encode_state(&self, enc: &mut crate::persist::Enc) {
        enc.schema(self.engine.schema());
        enc.usize(self.window.capacity);
        enc.usize(self.window.delta);
        enc.f64(self.engine.alpha().get());
        enc.u8(match self.policy {
            ResolutionPolicy::FirstWins => 0,
            ResolutionPolicy::LastWins => 1,
            ResolutionPolicy::UnionKey => 2,
        });
        enc.usize(self.engine.len());
        for (x, p) in self.engine.rows_in_order() {
            enc.instance(x);
            enc.label(p);
        }
        enc.usize(self.staged);
        // HashMap iteration order is nondeterministic; sort entries by
        // instance values so the encoding is canonical (the byte-equality
        // witness the crash tests compare).
        let mut entries: Vec<(&Instance, &RelativeKey)> = self.resolved.iter().collect();
        entries.sort_by(|a, b| a.0.values().cmp(b.0.values()));
        enc.usize(entries.len());
        for (x, k) in entries {
            enc.instance(x);
            enc.usizes(k.features());
            enc.f64(k.alpha().get());
            enc.f64(k.achieved_conformity());
        }
    }

    fn decode_state(
        dec: &mut crate::persist::Dec<'_>,
    ) -> Result<Self, crate::persist::PersistError> {
        use crate::persist::PersistError;
        let schema = Arc::new(dec.schema()?);
        let n = schema.n_features();
        let capacity = dec.usize()?;
        let delta = dec.usize()?;
        if capacity == 0 || delta == 0 || delta > capacity {
            return Err(PersistError::corrupt("invalid window geometry"));
        }
        let alpha = Alpha::new(dec.f64()?).map_err(|_| PersistError::corrupt("invalid alpha"))?;
        let policy = match dec.u8()? {
            0 => ResolutionPolicy::FirstWins,
            1 => ResolutionPolicy::LastWins,
            2 => ResolutionPolicy::UnionKey,
            _ => return Err(PersistError::corrupt("unknown resolution policy")),
        };
        let n_buf = dec.len()?;
        let mut xs = Vec::with_capacity(n_buf);
        let mut ps = Vec::with_capacity(n_buf);
        for _ in 0..n_buf {
            let x = dec.instance()?;
            if x.len() != n {
                return Err(PersistError::corrupt("buffered instance width mismatch"));
            }
            let p = dec.label()?;
            xs.push(x);
            ps.push(p);
        }
        let staged = dec.usize()?;
        let n_res = dec.len()?;
        let mut resolved = HashMap::with_capacity(n_res);
        for _ in 0..n_res {
            let x = dec.instance()?;
            let feats = dec.usizes()?;
            if feats.iter().any(|&f| f >= n) {
                return Err(PersistError::corrupt("resolved key feature out of range"));
            }
            let k_alpha =
                Alpha::new(dec.f64()?).map_err(|_| PersistError::corrupt("invalid alpha"))?;
            let achieved = dec.f64()?;
            resolved.insert(x, RelativeKey::new(feats, k_alpha, achieved));
        }
        // One bulk build on recovery; deltas take over from here.
        let engine = BatchEngine::new(Context::new(schema, xs, ps), alpha);
        Ok(Self {
            window: LiveWindow { capacity, delta },
            policy,
            engine,
            staged,
            resolved,
        })
    }
}

impl crate::persist::Replayable for SlidingWindow {
    fn replay(&mut self, x: Instance, pred: Label) {
        let _ = self.push(x, pred);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srk::Srk;
    use cce_dataset::{synth, BinSpec};

    fn setup(
        policy: ResolutionPolicy,
        capacity: usize,
        delta: usize,
    ) -> (SlidingWindow, cce_dataset::Dataset) {
        let raw = synth::loan::generate(400, 3);
        let ds = raw.encode(&BinSpec::uniform(8));
        let w = SlidingWindow::new(ds.schema_arc(), capacity, delta, Alpha::ONE, policy);
        (w, ds)
    }

    #[test]
    fn window_respects_capacity_and_delta() {
        let (mut w, ds) = setup(ResolutionPolicy::LastWins, 50, 10);
        for (x, y) in ds.iter().take(200) {
            w.push(x.clone(), y).unwrap();
            assert!(w.len() <= 50 + 10, "len={}", w.len());
        }
        assert!(w.len() >= 50);
    }

    #[test]
    fn explains_against_current_window() {
        let (mut w, ds) = setup(ResolutionPolicy::LastWins, 80, 20);
        for (x, y) in ds.iter().take(100) {
            w.push(x.clone(), y).unwrap();
        }
        let (x, y) = (ds.instance(150), ds.label(150));
        let key = w.explain(x, y).unwrap();
        let mut ctx = w.context();
        ctx.push(x.clone(), y).unwrap();
        assert!(ctx.is_alpha_key(key.features(), ctx.len() - 1, Alpha::ONE));
    }

    #[test]
    fn explain_matches_materialized_srk() {
        // The windowed explain goes through the delta-patched index
        // (transient join); it must equal the paper's reference: append
        // the target to a fresh context and run SRK.
        let (mut w, ds) = setup(ResolutionPolicy::LastWins, 64, 16);
        for (i, (x, y)) in ds.iter().take(230).enumerate() {
            w.push(x.clone(), y).unwrap();
            if i % 13 == 0 {
                let (tx, ty) = (ds.instance(300 + i % 50), ds.label(300 + i % 50));
                let got = w.explain(tx, ty).unwrap();
                let mut ctx = w.context();
                ctx.push(tx.clone(), ty).unwrap();
                let want = Srk::new(Alpha::ONE).explain(&ctx, ctx.len() - 1);
                // LastWins always stores the fresh key, so `got` is it.
                assert_eq!(Ok(got), want, "arrival {i}");
            }
        }
    }

    #[test]
    fn first_wins_keeps_initial_key() {
        let (mut w, ds) = setup(ResolutionPolicy::FirstWins, 60, 20);
        for (x, y) in ds.iter().take(60) {
            w.push(x.clone(), y).unwrap();
        }
        let (x, y) = (ds.instance(200).clone(), ds.label(200));
        let k1 = w.explain(&x, y).unwrap();
        for (xi, yi) in ds.iter().skip(60).take(120) {
            w.push(xi.clone(), yi).unwrap();
        }
        let k2 = w.explain(&x, y).unwrap();
        assert_eq!(k1, k2, "first-wins must freeze the key");
    }

    #[test]
    fn union_key_accumulates_features() {
        let (mut w, ds) = setup(ResolutionPolicy::UnionKey, 60, 20);
        for (x, y) in ds.iter().take(60) {
            w.push(x.clone(), y).unwrap();
        }
        let (x, y) = (ds.instance(200).clone(), ds.label(200));
        let k1 = w.explain(&x, y).unwrap();
        for (xi, yi) in ds.iter().skip(60).take(200) {
            w.push(xi.clone(), yi).unwrap();
        }
        let k2 = w.explain(&x, y).unwrap();
        for f in k1.features() {
            assert!(k2.features().contains(f), "union must keep feature {f}");
        }
    }

    #[test]
    fn last_wins_reflects_latest_window() {
        let (mut w, ds) = setup(ResolutionPolicy::LastWins, 60, 20);
        for (x, y) in ds.iter().take(60) {
            w.push(x.clone(), y).unwrap();
        }
        let (x, y) = (ds.instance(200).clone(), ds.label(200));
        let _ = w.explain(&x, y).unwrap();
        for (xi, yi) in ds.iter().skip(60).take(120) {
            w.push(xi.clone(), yi).unwrap();
        }
        let k2 = w.explain(&x, y).unwrap();
        assert_eq!(w.resolved_key(&x), Some(&k2));
    }

    #[test]
    fn reset_empties_the_window() {
        let (mut w, ds) = setup(ResolutionPolicy::LastWins, 40, 10);
        for (x, y) in ds.iter().take(80) {
            w.push(x.clone(), y).unwrap();
        }
        w.reset();
        assert!(w.is_empty());
        // Still fully usable after the model change.
        for (x, y) in ds.iter().skip(100).take(20) {
            w.push(x.clone(), y).unwrap();
        }
        assert_eq!(w.len(), 20);
        assert!(w.explain(ds.instance(200), ds.label(200)).is_ok());
    }

    #[test]
    #[should_panic(expected = "ΔI")]
    fn rejects_bad_delta() {
        let raw = synth::loan::generate(50, 3);
        let ds = raw.encode(&BinSpec::uniform(4));
        let _ = SlidingWindow::new(ds.schema_arc(), 10, 0, Alpha::ONE, Default::default());
    }
}
