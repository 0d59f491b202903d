//! The in-RAM backend: a request-coalescing queue over the live engine.
//!
//! Concurrent `POST /explain` requests land in one queue; a single
//! batcher thread drains it in micro-batches bounded by `max_batch` and
//! a linger window, and runs each batch through the shared
//! [`BatchEngine`] — so requests arriving together share one
//! duplicate-row memo pass and fan out across the engine's scoped
//! workers, exactly like the offline batch path. Each connection thread
//! blocks on a oneshot-style channel for its own result; batching is
//! invisible in the response bytes (the coalescing differential test
//! proves them identical to per-request [`Srk::explain`]).
//!
//! Every job carries the budget admission granted it; a batch that
//! straddles a level change runs as one engine pass per budget. The
//! queue depth is this backend's load. Acknowledged ingests join the
//! engine as insert deltas, sliding the context in ΔI granules when a
//! [`LiveWindow`] bounds it.
//!
//! [`Srk::explain`]: cce_core::Srk::explain

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

use cce_core::{Alpha, BatchEngine, BudgetedKey, ExplainError, WorkBudget};
use cce_dataset::{Instance, Label};

use crate::backend::{Answer, Backend};

/// Coalescing parameters.
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Largest micro-batch drained at once.
    pub max_batch: usize,
    /// How long the batcher waits for co-travelers after the first
    /// request of a batch arrives.
    pub linger: Duration,
    /// Worker threads the engine may fan one batch over.
    pub threads: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            linger: Duration::from_millis(2),
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
        }
    }
}

/// Sliding bound on the live ingest context: once the engine holds more
/// than `capacity` rows, every `delta` further arrivals evict the
/// `delta` oldest — each a tombstone delta, never a rebuild.
#[derive(Debug, Clone, Copy)]
pub struct LiveWindow {
    /// Live rows beyond which the context starts sliding.
    pub capacity: usize,
    /// ΔI: evictions happen in granules of this many rows.
    pub delta: usize,
}

struct Job {
    target: usize,
    budget: WorkBudget,
    tx: mpsc::Sender<Result<BudgetedKey, ExplainError>>,
}

struct QueueState {
    queue: VecDeque<Job>,
    open: bool,
}

/// The coalescing queue, its drain loop, and the live context's window.
///
/// The engine sits behind an `RwLock` so the ingest path can apply
/// context **deltas** concurrently with serving: explain batches take
/// the read lock, arrivals/evictions take the write lock briefly (the
/// patch is microseconds — no index rebuild happens on either side).
pub struct Batcher {
    engine: Arc<RwLock<BatchEngine>>,
    alpha: Alpha,
    cfg: BatcherConfig,
    /// Optional ΔI bound on the live context (`None` → it only grows).
    window: Option<LiveWindow>,
    /// Arrivals past capacity awaiting the next ΔI slide; mutated only
    /// under the engine write lock.
    staged: AtomicUsize,
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl Batcher {
    /// A new open queue over `engine`; `window`, when set, bounds the
    /// live ingest context by ΔI slides.
    pub fn new(
        engine: Arc<RwLock<BatchEngine>>,
        cfg: BatcherConfig,
        window: Option<LiveWindow>,
    ) -> Self {
        let alpha = engine.read().unwrap_or_else(|e| e.into_inner()).alpha();
        Self {
            engine,
            alpha,
            cfg,
            window,
            staged: AtomicUsize::new(0),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                open: true,
            }),
            cv: Condvar::new(),
        }
    }

    /// The shared engine (health reporting and the live ingest deltas).
    pub fn engine(&self) -> &Arc<RwLock<BatchEngine>> {
        &self.engine
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks for the next micro-batch; `None` means closed and drained.
    fn next_batch(&self) -> Option<Vec<Job>> {
        let mut st = self.lock();
        while st.queue.is_empty() {
            if !st.open {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        // First job seen: linger briefly so concurrent requests coalesce
        // into one engine pass (bounded by max_batch).
        let deadline = Instant::now() + self.cfg.linger;
        while st.queue.len() < self.cfg.max_batch && st.open {
            let now = Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            let (guard, timeout) = self
                .cv
                .wait_timeout(st, left)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
            if timeout.timed_out() {
                break;
            }
        }
        let take = st.queue.len().min(self.cfg.max_batch);
        let batch: Vec<Job> = st.queue.drain(..take).collect();
        cce_obs::gauge!("cce_serve_queue_depth").set(st.queue.len() as i64);
        Some(batch)
    }
}

impl Backend for Batcher {
    fn alpha(&self) -> Alpha {
        self.alpha
    }

    fn load(&self) -> usize {
        self.lock().queue.len()
    }

    fn explain(&self, target: usize, budget: WorkBudget) -> Answer {
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.lock();
            if !st.open {
                return Answer::Closed;
            }
            st.queue.push_back(Job { target, budget, tx });
            cce_obs::gauge!("cce_serve_queue_depth").set(st.queue.len() as i64);
        }
        self.cv.notify_all();
        match rx.recv() {
            Ok(result) => Answer::Done {
                result,
                missing_shards: Vec::new(),
            },
            // The batcher thread died without answering.
            Err(_) => Answer::Failed,
        }
    }

    /// Joins the arrival to the live context as an insert delta, plus
    /// any due ΔI slide; returns the live row count.
    fn ingest(&self, x: Instance, pred: Label) -> usize {
        let mut engine = self.engine.write().unwrap_or_else(|e| e.into_inner());
        if engine.push(x, pred).is_err() {
            // Unreachable when monitor and context share a schema, but a
            // mismatched arrival must not poison the serving context.
            cce_obs::counter!("cce_serve_live_push_rejected_total").inc();
            return engine.len();
        }
        if let Some(w) = self.window {
            if engine.len() > w.capacity {
                let staged = self.staged.fetch_add(1, Ordering::SeqCst) + 1;
                if staged >= w.delta {
                    engine.evict_oldest(staged);
                    self.staged.store(0, Ordering::SeqCst);
                    cce_obs::counter!("cce_serve_window_slides_total").inc();
                }
            }
        }
        engine.len()
    }

    fn health(&self) -> String {
        let engine = self.engine.read().unwrap_or_else(|e| e.into_inner());
        format!(
            "\"rows\":{},\"version\":{},\"tombstones\":{},\"queue_depth\":{}",
            engine.len(),
            engine.version(),
            engine.tombstones(),
            self.load(),
        )
    }

    /// The batcher thread body: drains micro-batches until the queue is
    /// closed *and* empty. Every dequeued job is answered — even during
    /// drain — so no accepted request is ever dropped.
    fn run(&self) {
        while let Some(batch) = self.next_batch() {
            cce_obs::histogram!("cce_serve_batch_size").record(batch.len() as u64);
            for group in batch.chunk_by(|a, b| a.budget == b.budget) {
                let budget = group[0].budget;
                if budget != WorkBudget::unlimited() {
                    cce_obs::counter!("cce_serve_degraded_batches_total").inc();
                }
                let targets: Vec<usize> = group.iter().map(|j| j.target).collect();
                let t0 = Instant::now();
                let results = self
                    .engine
                    .read()
                    .unwrap_or_else(|e| e.into_inner())
                    .explain_batch(&targets, budget, self.cfg.threads);
                cce_obs::histogram!("cce_serve_batch_explain_ns")
                    .record(t0.elapsed().as_nanos() as u64);
                for (job, result) in group.iter().zip(results) {
                    // A receiver may have given up (client gone); that is fine.
                    let _ = job.tx.send(result);
                }
            }
        }
    }

    /// Closes the queue: new explains get [`Answer::Closed`]; the run
    /// loop drains what is already queued, then returns.
    fn close(&self) {
        self.lock().open = false;
        self.cv.notify_all();
    }
}
