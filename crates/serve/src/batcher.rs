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
//! proves them identical to per-request [`Srk::explain_budgeted`]).
//!
//! Every job carries the budget admission granted it; a batch that
//! straddles a level change runs as one engine pass per budget. A batch
//! whose engine pass panics drops its jobs' channels (each of those
//! requests answers `500`) and the batcher thread carries on. Once the
//! queue is closed for drain, an explain runs on the caller's thread.
//! Acknowledged ingests join the engine as insert deltas, sliding the
//! context in ΔI granules when a [`LiveWindow`] bounds it.
//!
//! [`Srk::explain_budgeted`]: cce_core::Srk::explain_budgeted

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use cce_core::{Alpha, BatchEngine, BudgetedKey, ExplainError, LiveWindow, WorkBudget};
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

struct Job {
    target: usize,
    budget: WorkBudget,
    tx: mpsc::Sender<Result<BudgetedKey, ExplainError>>,
}

struct QueueState {
    queue: VecDeque<Job>,
    open: bool,
}

/// The engine and the window's staged arrivals, mutated together under
/// the write lock.
struct Live {
    engine: BatchEngine,
    /// Arrivals past capacity awaiting the next ΔI slide.
    staged: usize,
}

/// The coalescing queue, its drain loop, and the live context's window.
///
/// The engine sits behind an `RwLock` so the ingest path can apply
/// context **deltas** concurrently with serving: explain batches take
/// the read lock, arrivals/evictions take the write lock briefly (the
/// patch is microseconds — no index rebuild happens on either side).
pub struct Batcher {
    live: RwLock<Live>,
    alpha: Alpha,
    cfg: BatcherConfig,
    /// Optional ΔI bound on the live context (`None` → it only grows).
    window: Option<LiveWindow>,
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl Batcher {
    /// A new open queue over `engine`; `window`, when set, bounds the
    /// live ingest context by ΔI slides.
    pub fn new(engine: BatchEngine, cfg: BatcherConfig, window: Option<LiveWindow>) -> Self {
        Self {
            alpha: engine.alpha(),
            live: RwLock::new(Live { engine, staged: 0 }),
            cfg,
            window,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                open: true,
            }),
            cv: Condvar::new(),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Live> {
        self.live.read().unwrap_or_else(|e| e.into_inner())
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
        Some(st.queue.drain(..take).collect())
    }
}

impl Backend for Batcher {
    fn alpha(&self) -> Alpha {
        self.alpha
    }

    fn explain(&self, target: usize, budget: WorkBudget) -> Answer {
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.lock();
            if st.open {
                st.queue.push_back(Job { target, budget, tx });
            } else {
                // Drained: no batcher thread will take the job.
                drop(st);
                return Answer::Done {
                    result: self.read().engine.explain_one(target, budget),
                    missing_shards: Vec::new(),
                };
            }
        }
        self.cv.notify_all();
        // A dropped channel means the job's engine pass panicked; the
        // panic propagates to `App::explain`, which answers 500.
        let result = rx.recv().expect("explanation batch panicked");
        Answer::Done {
            result,
            missing_shards: Vec::new(),
        }
    }

    /// Joins the arrival to the live context as an insert delta, plus
    /// any due ΔI slide; returns the live row count.
    fn ingest(&self, x: Instance, pred: Label) -> usize {
        let mut live = self.live.write().unwrap_or_else(|e| e.into_inner());
        let Live { engine, staged } = &mut *live;
        if engine.push(x, pred).is_err() {
            // Unreachable when monitor and context share a schema, but a
            // mismatched arrival must not poison the serving context.
            cce_obs::counter!("cce_serve_live_push_rejected_total").inc();
            return engine.len();
        }
        if let Some(w) = self.window {
            if w.slide(engine, staged) > 0 {
                cce_obs::counter!("cce_serve_window_slides_total").inc();
            }
        }
        engine.len()
    }

    fn health(&self) -> String {
        let live = self.read();
        format!(
            "\"rows\":{},\"version\":{},\"tombstones\":{},\"queue_depth\":{}",
            live.engine.len(),
            live.engine.version(),
            live.engine.tombstones(),
            self.lock().queue.len(),
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
                let targets: Vec<usize> = group.iter().map(|j| j.target).collect();
                let t0 = Instant::now();
                let results = catch_unwind(AssertUnwindSafe(|| {
                    self.read()
                        .engine
                        .explain_batch(&targets, budget, self.cfg.threads)
                }));
                cce_obs::histogram!("cce_serve_batch_explain_ns")
                    .record(t0.elapsed().as_nanos() as u64);
                // On a panic the group's senders drop with the batch.
                let Ok(results) = results else { continue };
                for (job, result) in group.iter().zip(results) {
                    // A receiver may have given up (client gone); that is fine.
                    let _ = job.tx.send(result);
                }
            }
        }
    }

    /// Closes the queue: the run loop drains what is already queued,
    /// then returns; later explains run on the caller's thread.
    fn close(&self) {
        self.lock().open = false;
        self.cv.notify_all();
    }
}
