//! CCE — the client-centric feature-explanation framework (§6).
//!
//! CCE sits between a (possibly remote) model and its client. It collects
//! `(instance, prediction)` pairs during model serving as the context and
//! answers explanation requests with relative keys — without ever querying
//! the model:
//!
//! * **batch mode** — the client holds the whole inference set; keys are
//!   computed by [`Srk`],
//! * **online mode** — inference instances stream in; keys are maintained
//!   by [`OsrkMonitor`] (or [`SsrkMonitor`] when the instance universe is
//!   static and known, §5.3).

use std::collections::HashMap;
use std::sync::OnceLock;

use cce_dataset::{Instance, Label};

use crate::alpha::Alpha;
use crate::context::Context;
use crate::error::ExplainError;
use crate::key::RelativeKey;
use crate::osrk::OsrkMonitor;
use crate::srk::Srk;
use crate::ssrk::SsrkMonitor;

/// Which context-handling mode CCE runs in (§6, "Handling context").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The client holds the complete inference set.
    #[default]
    Batch,
    /// Inference instances arrive as a stream.
    Online,
}

/// Configuration of a [`Cce`] instance.
#[derive(Debug, Clone, Copy)]
pub struct CceConfig {
    /// Conformity bound for every produced key.
    pub alpha: Alpha,
    /// Mode of operation.
    pub mode: Mode,
    /// Seed for the randomized online algorithm.
    pub seed: u64,
}

impl Default for CceConfig {
    fn default() -> Self {
        Self {
            alpha: Alpha::ONE,
            mode: Mode::Batch,
            seed: 0xCCE,
        }
    }
}

/// The CCE framework facade.
#[derive(Debug, Clone)]
pub struct Cce {
    ctx: Context,
    config: CceConfig,
    /// Lazily-built map from instance to its first context row, backing
    /// [`Cce::explain_instance`]'s O(1) lookup. Kept coherent by
    /// [`Cce::record`].
    row_lookup: OnceLock<HashMap<Instance, usize>>,
}

impl Cce {
    /// Builds a batch-mode CCE over an already-collected context.
    pub fn with_context(ctx: Context, config: CceConfig) -> Self {
        Self {
            ctx,
            config,
            row_lookup: OnceLock::new(),
        }
    }

    /// The collected context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// The active configuration.
    pub fn config(&self) -> CceConfig {
        self.config
    }

    /// Records one more serving-time observation into the context.
    ///
    /// # Errors
    /// [`ExplainError::WidthMismatch`] on a wrong-width instance.
    pub fn record(&mut self, x: Instance, pred: Label) -> Result<(), ExplainError> {
        let row = self.ctx.len();
        if self.row_lookup.get().is_some() {
            // Keep the built lookup warm; first occurrence wins, and the
            // entry is only added once the width check has passed.
            let key = x.clone();
            self.ctx.push(x, pred)?;
            if let Some(map) = self.row_lookup.get_mut() {
                map.entry(key).or_insert(row);
            }
            Ok(())
        } else {
            self.ctx.push(x, pred)
        }
    }

    /// Explains the context row `target` with an α-conformant relative key.
    ///
    /// Dispatches on the configured [`Mode`] (§6 "Handling context"):
    /// * [`Mode::Batch`] — Algorithm 1 (SRK) over the full context: the
    ///   most succinct result the framework offers;
    /// * [`Mode::Online`] — replays the context through Algorithm 2
    ///   (OSRK), reproducing exactly the (coherent, typically larger) key
    ///   a streaming client would have maintained.
    ///
    /// # Errors
    /// See [`Srk::explain`] / [`OsrkMonitor::observe`].
    pub fn explain_row(&self, target: usize) -> Result<RelativeKey, ExplainError> {
        self.ctx.check_target(target)?;
        match self.config.mode {
            Mode::Batch => Srk::new(self.config.alpha).explain(&self.ctx, target),
            Mode::Online => {
                let mut monitor = self.monitor(
                    self.ctx.instance(target).clone(),
                    self.ctx.prediction(target),
                );
                // Mid-stream errors (early contradictions) may become
                // tolerable as |I| grows under α < 1; judge the final state.
                for r in 0..self.ctx.len() {
                    if r == target {
                        continue;
                    }
                    let _ = monitor.observe(self.ctx.instance(r).clone(), self.ctx.prediction(r));
                }
                if !self
                    .ctx
                    .is_alpha_key(monitor.key(), target, self.config.alpha)
                {
                    return Err(ExplainError::NoConformantKey {
                        contradictions: monitor.n_violators(),
                        tolerance: self.config.alpha.tolerance(self.ctx.len()),
                    });
                }
                Ok(monitor.to_relative_key())
            }
        }
    }

    /// Explains an instance by locating it in the context (it must have
    /// been served, i.e. recorded). The first lookup builds a hash map
    /// from instance to its first row; subsequent lookups are O(1)
    /// instead of an `O(n·|I|)` linear scan.
    ///
    /// # Errors
    /// [`ExplainError::UnknownInstance`] when the instance was never
    /// recorded, plus the failure modes of [`Srk::explain`].
    pub fn explain_instance(&self, x: &Instance) -> Result<RelativeKey, ExplainError> {
        let lookup = self.row_lookup.get_or_init(|| {
            let mut map = HashMap::with_capacity(self.ctx.len());
            for (r, y) in self.ctx.instances().iter().enumerate() {
                map.entry(y.clone()).or_insert(r);
            }
            map
        });
        let row = *lookup.get(x).ok_or(ExplainError::UnknownInstance)?;
        self.explain_row(row)
    }

    /// Starts an online monitor (Algorithm 2) for a target served
    /// prediction. The monitor is seeded from the configuration so runs
    /// are reproducible.
    pub fn monitor(&self, x0: Instance, pred0: Label) -> OsrkMonitor {
        OsrkMonitor::new(x0, pred0, self.config.alpha, self.config.seed)
    }

    /// Starts a deterministic online monitor (Algorithm 3) when the
    /// universe of instances and predictions is known up front (§5.3).
    pub fn monitor_with_universe(
        &self,
        x0: Instance,
        pred0: Label,
        universe: &[(Instance, Label)],
    ) -> SsrkMonitor {
        SsrkMonitor::new(x0, pred0, self.config.alpha, universe)
    }

    /// Explains every context row, skipping rows with no conformant key;
    /// returns `(row, key)` pairs. Convenience for evaluation runs.
    ///
    /// In batch mode this amortizes a [`crate::ContextIndex`] across the
    /// whole batch (identical keys to [`Cce::explain_row`], differentially
    /// tested); online mode replays each monitor as usual.
    pub fn explain_all(&self) -> Vec<(usize, RelativeKey)> {
        let timer = cce_obs::SpanTimer::start(cce_obs::histogram!(
            "cce_batch_explain_ns",
            "mode" => "sequential"
        ));
        let out = match self.config.mode {
            Mode::Batch => {
                let idx = crate::ContextIndex::new(&self.ctx);
                (0..self.ctx.len())
                    .filter_map(|t| {
                        idx.explain(&self.ctx, t, self.config.alpha)
                            .ok()
                            .map(|k| (t, k))
                    })
                    .collect()
            }
            Mode::Online => (0..self.ctx.len())
                .filter_map(|t| self.explain_row(t).ok().map(|k| (t, k)))
                .collect(),
        };
        timer.stop();
        out
    }

    /// [`Cce::explain_all`] fanned out over `threads` worker threads
    /// (clamped to `1..=len`): the batch engine.
    ///
    /// Targets are independent (the context is read-only), so this is an
    /// embarrassingly parallel batch job; results are identical to the
    /// sequential version and returned in row order. Two engine-level
    /// optimizations ride on top of the lazy-greedy indexed path:
    ///
    /// * **Duplicate-row memoization**: every algorithm here depends on
    ///   the target only through its `(instance, prediction)` pair, so
    ///   identical rows provably receive identical keys. The engine
    ///   partitions rows into equivalence classes
    ///   ([`Context::duplicate_classes`]), explains each class's first
    ///   row once, and fans the key out (`cce_batch_memo_hits_total`).
    /// * **Work stealing**: workers claim chunks of classes from a
    ///   shared atomic cursor, so a run of slow targets (long keys, big
    ///   violator sets) cannot straggle the batch behind one unlucky
    ///   worker.
    ///
    /// The batch survives worker failures: each finished class is
    /// published to its slot immediately, so a panic loses only the
    /// in-flight class; unfinished classes are recovered sequentially
    /// with each target isolated under `catch_unwind`, and one poisoned
    /// target costs only its own key — never the batch. Panics are
    /// counted in `cce_parallel_worker_panics_total` and
    /// `cce_explain_errors_total{kind="panic"}`.
    ///
    /// Online mode replays the stream per target, which depends on the
    /// target's position, so it has nothing to share and runs
    /// [`Cce::explain_all`].
    pub fn explain_all_parallel(&self, threads: usize) -> Vec<(usize, RelativeKey)> {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        if self.config.mode == Mode::Online {
            return self.explain_all();
        }
        let n = self.ctx.len();
        let idx = crate::ContextIndex::new(&self.ctx);
        let (reps, class_of) = self.ctx.duplicate_classes();
        cce_obs::counter!("cce_batch_memo_hits_total").add((n - reps.len()) as u64);
        cce_obs::counter!("cce_batch_memo_classes_total").add(reps.len() as u64);

        let explain_rep = |c: usize| idx.explain(&self.ctx, reps[c] as usize, self.config.alpha);
        #[cfg(test)]
        let trap = |row: usize| {
            if row == tests::PANIC_TARGET.load(std::sync::atomic::Ordering::Relaxed) {
                panic!("injected test panic for target {row}");
            }
        };

        let timer = cce_obs::SpanTimer::start(cce_obs::histogram!(
            "cce_batch_explain_ns",
            "mode" => "parallel"
        ));
        let slots = crate::fanout::fan_out(reps.len(), threads, |c| {
            #[cfg(test)]
            class_of
                .iter()
                .enumerate()
                .filter(|&(_, &cc)| cc as usize == c)
                .for_each(|(row, _)| trap(row));
            explain_rep(c)
        });
        let keys = slots.iter().filter(|s| matches!(s, Some(Ok(_)))).count();
        cce_obs::counter!("cce_batch_worker_keys_total").add(keys as u64);
        // Fan classes back out to rows, in row order. A class left unset
        // by a panic is recovered here with each of its rows isolated,
        // so only a genuinely poisoned target loses its key.
        let mut out = Vec::with_capacity(n);
        for (r, &class) in class_of.iter().enumerate() {
            let c = class as usize;
            match &slots[c] {
                Some(Ok(k)) => out.push((r, k.clone())),
                Some(Err(_)) => {}
                None => {
                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(test)]
                        trap(r);
                        explain_rep(c)
                    }));
                    match attempt {
                        Ok(Ok(k)) => out.push((r, k)),
                        Ok(Err(_)) => {}
                        Err(_) => {
                            cce_obs::counter!("cce_explain_errors_total", "kind" => "panic").inc();
                        }
                    }
                }
            }
        }
        timer.stop();
        out
    }

    /// Context-relative Shapley importance for the context row `target`
    /// (§8 future work (a)); sampled estimator, seeded from the config.
    ///
    /// # Errors
    /// Standard context/target validation failures.
    pub fn importance(&self, target: usize) -> Result<Vec<f64>, ExplainError> {
        crate::importance::shapley_sampled(
            &self.ctx,
            target,
            crate::importance::ImportanceParams {
                seed: self.config.seed,
                ..Default::default()
            },
        )
    }

    /// A pattern-level summary of the whole context (§8 future work (b)),
    /// every pattern α-conformant at the configured bound.
    ///
    /// # Errors
    /// [`ExplainError::EmptyContext`] when nothing was recorded.
    pub fn summarize(&self) -> Result<crate::patterns::RelativeSummary, ExplainError> {
        crate::patterns::summarize(
            &self.ctx,
            crate::patterns::SummaryParams {
                alpha: self.config.alpha,
                ..Default::default()
            },
        )
    }

    /// A drift monitor configured like this CCE instance (§7.4): feed it
    /// the ongoing prediction stream to watch for accuracy dips.
    ///
    /// # Errors
    /// [`ExplainError::InvalidConfig`] if `panel_size` or `sample_every`
    /// is zero.
    pub fn drift_monitor(
        &self,
        panel_size: usize,
        sample_every: usize,
    ) -> Result<crate::DriftMonitor, ExplainError> {
        crate::DriftMonitor::new(
            self.config.alpha,
            panel_size,
            sample_every,
            self.config.seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_dataset::{synth, BinSpec};
    use cce_model::{Gbdt, GbdtParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Target index `explain_all_parallel` panics on (test-only fault
    /// injection); `usize::MAX` disarms it.
    pub(super) static PANIC_TARGET: std::sync::atomic::AtomicUsize =
        std::sync::atomic::AtomicUsize::new(usize::MAX);

    /// Serializes the tests that touch [`PANIC_TARGET`] so concurrent
    /// parallel-explain tests never see an armed trap.
    fn panic_trap_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn setup() -> Cce {
        let raw = synth::loan::generate(300, 7);
        let ds = raw.encode(&BinSpec::uniform(8));
        let (train, infer) = ds.split(0.7, &mut StdRng::seed_from_u64(1));
        let model = Gbdt::train(&train, &GbdtParams::fast(), 0);
        let ctx = Context::from_model(&infer, &model);
        Cce::with_context(ctx, CceConfig::default())
    }

    #[test]
    fn explain_row_yields_valid_key() {
        let cce = setup();
        let key = cce.explain_row(0).unwrap();
        assert!(cce.context().is_alpha_key(key.features(), 0, Alpha::ONE));
    }

    #[test]
    fn explain_instance_locates_row() {
        let cce = setup();
        let x = cce.context().instance(5).clone();
        let by_instance = cce.explain_instance(&x).unwrap();
        // Row 5 may not be the first occurrence of x; both must be valid.
        assert!(!by_instance.features().is_empty() || by_instance.succinctness() == 0);
    }

    #[test]
    fn explain_unknown_instance_fails() {
        let cce = setup();
        let n = cce.context().schema().n_features();
        // A value outside every feature's domain cannot be in the context.
        let ghost = Instance::new(vec![u32::MAX; n]);
        assert_eq!(
            cce.explain_instance(&ghost),
            Err(ExplainError::UnknownInstance)
        );
    }

    #[test]
    fn explain_instance_lookup_stays_coherent_after_record() {
        let mut cce = setup();
        let n = cce.context().schema().n_features();
        let ghost = Instance::new(vec![u32::MAX; n]);
        // Build the lookup, prove the instance is unknown...
        assert_eq!(
            cce.explain_instance(&ghost),
            Err(ExplainError::UnknownInstance)
        );
        // ...then record it: the warm lookup must see the new row.
        cce.record(ghost.clone(), Label(0)).unwrap();
        assert!(cce.explain_instance(&ghost).is_ok());
        // After recording a duplicate, the incrementally-updated lookup
        // must agree with a from-scratch rebuild (first occurrence wins
        // in both).
        let first = cce.context().instance(0).clone();
        cce.record(first.clone(), Label(1)).unwrap();
        let warm = cce.explain_instance(&first);
        let fresh = Cce::with_context(cce.context().clone(), cce.config());
        assert_eq!(fresh.explain_instance(&first), warm);
        // And a wrong-width record still fails without poisoning the map.
        assert!(cce.record(Instance::new(vec![0]), Label(0)).is_err());
        assert_eq!(cce.explain_instance(&first), warm);
    }

    #[test]
    fn record_grows_context() {
        let mut cce = setup();
        let before = cce.context().len();
        let x = cce.context().instance(0).clone();
        cce.record(x, Label(0)).unwrap();
        assert_eq!(cce.context().len(), before + 1);
    }

    #[test]
    fn explain_all_covers_most_rows() {
        let cce = setup();
        let keys = cce.explain_all();
        assert!(keys.len() as f64 >= cce.context().len() as f64 * 0.95);
        for (t, k) in keys.iter().take(20) {
            assert!(cce.context().is_alpha_key(k.features(), *t, Alpha::ONE));
        }
    }

    #[test]
    fn parallel_explain_matches_sequential() {
        let _guard = panic_trap_lock();
        let cce = setup();
        let seq = cce.explain_all();
        for threads in [1usize, 2, 4] {
            let par = cce.explain_all_parallel(threads);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    /// A duplicate-heavy context: the base context plus same-prediction
    /// twins of every 3rd row and flipped-prediction twins of every 11th,
    /// exercising both memo sharing and memoized error classes.
    fn setup_with_duplicates() -> Cce {
        let base = setup();
        let mut ctx = base.context().clone();
        for t in (0..base.context().len()).step_by(3) {
            let x = base.context().instance(t).clone();
            ctx.push(x, base.context().prediction(t)).unwrap();
        }
        for t in (0..base.context().len()).step_by(11) {
            let x = base.context().instance(t).clone();
            let flipped = Label(u32::from(base.context().prediction(t).0 == 0));
            ctx.push(x, flipped).unwrap();
        }
        Cce::with_context(
            ctx,
            CceConfig {
                alpha: Alpha::new(0.95).unwrap(),
                ..CceConfig::default()
            },
        )
    }

    #[test]
    fn work_stealing_is_deterministic_across_thread_counts() {
        let _guard = panic_trap_lock();
        let cce = setup_with_duplicates();
        // The sequential path is memo-free, so this differentially checks
        // memoization + work stealing against per-row recomputation.
        let seq = cce.explain_all();
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(cce.explain_all_parallel(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn memoized_twins_get_identical_keys() {
        let _guard = panic_trap_lock();
        let cce = setup_with_duplicates();
        let keys: std::collections::HashMap<usize, RelativeKey> =
            cce.explain_all_parallel(4).into_iter().collect();
        let (reps, class_of) = cce.context().duplicate_classes();
        for r in 0..cce.context().len() {
            let rep = reps[class_of[r] as usize] as usize;
            assert_eq!(keys.get(&r), keys.get(&rep), "row {r} vs rep {rep}");
        }
    }

    #[test]
    fn parallel_explain_clamps_zero_threads() {
        let _guard = panic_trap_lock();
        let cce = setup();
        // Previously an assert; now clamped to one worker.
        assert_eq!(cce.explain_all_parallel(0), cce.explain_all());
    }

    #[test]
    fn parallel_explain_survives_worker_panic() {
        let _guard = panic_trap_lock();
        let cce = setup();
        let seq = cce.explain_all();
        // Quiet the expected worker-panic backtraces for this test only.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        PANIC_TARGET.store(7, std::sync::atomic::Ordering::Relaxed);
        let runs: Vec<_> = [1, 4]
            .into_iter()
            .map(|threads| cce.explain_all_parallel(threads))
            .collect();
        PANIC_TARGET.store(usize::MAX, std::sync::atomic::Ordering::Relaxed);
        std::panic::set_hook(hook);
        // Only target 7 may be missing; every other key survives intact.
        let expect: Vec<_> = seq.iter().filter(|(t, _)| *t != 7).cloned().collect();
        for par in runs {
            assert_eq!(par, expect);
        }
    }

    #[test]
    fn parallel_explain_handles_empty_context() {
        let cce = setup();
        let empty = Cce::with_context(
            Context::empty(cce.context().schema_arc()),
            CceConfig::default(),
        );
        assert!(empty.explain_all_parallel(4).is_empty());
    }

    #[test]
    fn online_mode_replays_the_stream() {
        let batch = setup();
        let online = Cce::with_context(
            batch.context().clone(),
            CceConfig {
                mode: Mode::Online,
                ..CceConfig::default()
            },
        );
        let (kb, ko) = (
            batch.explain_row(0).unwrap(),
            online.explain_row(0).unwrap(),
        );
        // Both are valid keys; the online one is coherent-streaming and
        // thus no more succinct than the batch key.
        assert!(batch.context().is_alpha_key(kb.features(), 0, Alpha::ONE));
        assert!(batch.context().is_alpha_key(ko.features(), 0, Alpha::ONE));
        assert!(ko.succinctness() >= kb.succinctness());
    }

    #[test]
    fn facade_exposes_future_work_apis() {
        let cce = setup();
        let phi = cce.importance(0).unwrap();
        assert_eq!(phi.len(), cce.context().schema().n_features());
        let summary = cce.summarize().unwrap();
        assert!(!summary.is_empty());
        for p in summary.patterns() {
            assert_eq!(p.precision, 1.0, "α = 1 patterns are exact");
        }
        let mut dm = cce.drift_monitor(4, 10).unwrap();
        for t in 0..cce.context().len().min(50) {
            dm.observe(
                cce.context().instance(t).clone(),
                cce.context().prediction(t),
            );
        }
        assert!(dm.n_seen() > 0);
    }

    #[test]
    fn monitors_share_config() {
        let cce = setup();
        let x0 = cce.context().instance(0).clone();
        let p0 = cce.context().prediction(0);
        let m = cce.monitor(x0.clone(), p0);
        assert_eq!(m.succinctness(), 0);
        let uni: Vec<_> = cce
            .context()
            .instances()
            .iter()
            .cloned()
            .zip(cce.context().predictions().iter().copied())
            .collect();
        let s = cce.monitor_with_universe(x0, p0, &uni);
        assert_eq!(s.succinctness(), 0);
    }
}
