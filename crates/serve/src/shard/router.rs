//! The scatter/gather router: a distributed `Srk::explain_budgeted`.
//!
//! The router runs the one greedy driver (`cce_core::greedy`) over a
//! count source backed by the shards. The source scatters one stateless
//! [`Req::Counts`] — target instance, its prediction, key-so-far — to
//! all live shards at the start and after every pick, and sums counts
//! that are each additive over disjoint row partitions:
//!
//! * the live **violator** count (rows matching the target on every
//!   picked feature with a different prediction),
//! * the **twin** count (rows identical to the target with a different
//!   prediction): the driver's unsatisfiability certificate,
//! * per candidate feature, the **surviving** violators after also
//!   fixing that feature, and the **supporter coverage** used by the
//!   tie-break.
//!
//! Seeds, survivors and coverage come from the latest gather, so a
//! `k`-feature key costs exactly `k + 1` scatter rounds, and a target
//! with no conformant key is certified from the first round's twins.
//! With no faults the result — errors included — is byte-identical to
//! the single-process engine. A round spawns nothing: it writes to every
//! live shard, then collects each answer in turn on the caller's thread,
//! with every shard's retries in lockstep so that hung shards cost the
//! round one policy window, not one each.
//!
//! Faults: when shard calls ultimately fail (after retries, hedge, and
//! breaker), every shard that failed the round is excluded for the rest
//! of this request and the greedy **restarts from round zero** over the
//! reduced live set — rounds
//! are cheap, and a restart guarantees every count in the final answer
//! was computed over one consistent partition set. The answer is then a
//! clean explanation over the surviving sub-context, labeled with the
//! missing shards so the caller can tell. Only when the *target row's
//! owner* is unreachable is there nothing left to explain against —
//! that surfaces as [`ShardedAnswer::Unavailable`] (a `503`, never a
//! `500`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cce_core::greedy::{self, CountSource};
use cce_core::{Alpha, ExplainError, RoundCounts, WorkBudget};
use cce_dataset::{Instance, Label};

use super::client::{call_all, ShardClient};
use super::shard_of;
use super::supervisor::SupervisorHandle;
use super::wire::{Req, Resp};
use crate::backend::{Answer, Backend};
use crate::http::Response;

/// The in-memory ingest record the supervisor replays into a respawned
/// worker: every accepted live row, as `(global_index, values,
/// prediction)`. The PR-4 durable WAL remains the *persistence*
/// authority; this log exists so a worker respawned mid-flight can be
/// rebuilt without touching disk.
#[derive(Default)]
pub struct IngestLog {
    entries: Mutex<Vec<(u64, Vec<u32>, u32)>>,
}

impl IngestLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one accepted row.
    pub fn append(&self, global: u64, x: Vec<u32>, pred: u32) {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((global, x, pred));
    }

    /// The slice of the log owned by `shard` — what a respawned worker
    /// must replay on top of its base partition.
    #[must_use]
    pub fn for_shard(&self, shard: usize, n_shards: usize) -> Vec<(u64, Vec<u32>, u32)> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|(g, _, _)| shard_of(*g, n_shards) == shard)
            .cloned()
            .collect()
    }
}

/// What a sharded explain produced: the daemon's [`Answer`].
pub use crate::backend::Answer as ShardedAnswer;

/// The sharded serving backend: shard clients, the ingest log, the row
/// counter that assigns global indices, and the supervisor handle.
pub struct ShardedBackend {
    alpha: Alpha,
    n_features: usize,
    clients: Vec<Arc<ShardClient>>,
    /// Total rows ever accepted (base CSV + live ingest); the next
    /// ingested row takes this as its global index.
    total_rows: AtomicU64,
    log: Arc<IngestLog>,
    supervisor: Mutex<Option<SupervisorHandle>>,
    chaos: bool,
}

impl ShardedBackend {
    /// A backend over `clients`, with `base_rows` rows already in the
    /// workers' base partitions. `chaos` enables the kill-shard admin
    /// endpoint.
    #[must_use]
    pub fn new(
        alpha: Alpha,
        n_features: usize,
        clients: Vec<Arc<ShardClient>>,
        base_rows: u64,
        log: Arc<IngestLog>,
        chaos: bool,
    ) -> Self {
        Self {
            alpha,
            n_features,
            clients,
            total_rows: AtomicU64::new(base_rows),
            log,
            supervisor: Mutex::new(None),
            chaos,
        }
    }

    /// Attaches the supervisor once the workers are up.
    pub fn set_supervisor(&self, handle: SupervisorHandle) {
        *self.supervisor.lock().unwrap_or_else(|e| e.into_inner()) = Some(handle);
    }

    /// Shard count.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.clients.len()
    }

    /// Shards currently reachable.
    #[must_use]
    pub fn shards_up(&self) -> usize {
        self.clients.iter().filter(|c| c.is_up()).count()
    }

    /// Total rows (base + live ingest).
    #[must_use]
    pub fn total_rows(&self) -> u64 {
        self.total_rows.load(Ordering::SeqCst)
    }

    /// Stops the supervisor and all workers (drain path). Idempotent.
    pub fn stop(&self) {
        if let Some(h) = self
            .supervisor
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            h.stop();
        }
    }

    /// Accepts one live row: assigns it the next global index, records
    /// it in the replay log, and forwards it to its owner shard. A
    /// forward that fails after retries triggers a supervisor-driven
    /// restart of the owner, whose replay delivers the row — so an
    /// accepted row is never silently absent once the shard is healthy.
    ///
    /// Returns `(global_index, total_rows_after)`.
    pub fn push(&self, x: Vec<u32>, pred: u32) -> (u64, u64) {
        let global = self.total_rows.fetch_add(1, Ordering::SeqCst);
        self.log.append(global, x.clone(), pred);
        let owner = shard_of(global, self.n_shards());
        match self.clients[owner].call(&Req::Push { global, x, pred }) {
            Ok(Resp::Pushed { .. }) => {}
            _ => {
                cce_obs::counter!("cce_shard_push_forward_failures_total").inc();
                if let Some(h) = &*self.supervisor.lock().unwrap_or_else(|e| e.into_inner()) {
                    h.restart(owner);
                }
            }
        }
        (global, global + 1)
    }

    /// Distributed `Srk::explain_budgeted` for global row `target`.
    ///
    /// With all shards reachable the returned result is byte-identical
    /// to the single-process engine over the same rows. With shards down
    /// or failing mid-request, the greedy restarts over the surviving
    /// partitions and the answer is labeled with the missing shards.
    pub fn explain(&self, target: u64, budget: WorkBudget) -> ShardedAnswer {
        let answer = self.explain_inner(target, budget);
        if let ShardedAnswer::Done { missing_shards, .. } = &answer {
            if !missing_shards.is_empty() {
                cce_obs::counter!("cce_shard_partial_answers_total").inc();
            }
        }
        answer
    }

    fn explain_inner(&self, target: u64, budget: WorkBudget) -> ShardedAnswer {
        let n_shards = self.n_shards();
        // Shards already known-down are excluded from the start; shards
        // that fail mid-request join them and trigger a restart.
        let mut excluded: Vec<usize> = (0..n_shards)
            .filter(|&i| !self.clients[i].is_up())
            .collect();

        // Input validation mirrors `Context::check_target` over the full
        // (global) row space.
        let total = self.total_rows();
        if total == 0 {
            return ShardedAnswer::Done {
                result: Err(ExplainError::EmptyContext),
                missing_shards: excluded,
            };
        }
        if target >= total {
            return ShardedAnswer::Done {
                result: Err(ExplainError::TargetOutOfRange {
                    target: target as usize,
                    len: total as usize,
                }),
                missing_shards: excluded,
            };
        }

        // The target row lives on exactly one shard; without it there is
        // nothing to explain relative to.
        let unavailable = |mut missing: Vec<usize>| {
            missing.sort_unstable();
            ShardedAnswer::Unavailable {
                missing_shards: missing,
            }
        };
        let owner = shard_of(target, n_shards);
        if excluded.contains(&owner) {
            return unavailable(excluded);
        }
        let (x0, p0) = match self.clients[owner].call(&Req::Fetch { global: target }) {
            Ok(Resp::Row { x, pred }) if x.len() == self.n_features => (x, pred),
            _ => {
                excluded.push(owner);
                return unavailable(excluded);
            }
        };

        // Restart loop: each iteration runs the whole greedy over one
        // fixed live set; a shard failure shrinks the set and retries.
        let mut src = ShardCounts {
            backend: self,
            live: Vec::new(),
            x0: &x0,
            p0,
            picked: Vec::new(),
            gathers: Vec::new(),
        };
        loop {
            src.live = (0..n_shards).filter(|i| !excluded.contains(i)).collect();
            if !src.live.contains(&owner) {
                return unavailable(excluded);
            }
            match greedy::run(&mut src, self.alpha, budget) {
                Ok(run) => {
                    excluded.sort_unstable();
                    return ShardedAnswer::Done {
                        result: run.result,
                        missing_shards: excluded,
                    };
                }
                Err(failed) => excluded.extend(failed),
            }
        }
    }
}

impl Backend for ShardedBackend {
    fn alpha(&self) -> Alpha {
        self.alpha
    }

    fn explain(&self, target: usize, budget: WorkBudget) -> Answer {
        ShardedBackend::explain(self, target as u64, budget)
    }

    /// Forwards the row to its owner shard (and the replay log); returns
    /// the new global row count.
    fn ingest(&self, x: Instance, pred: Label) -> usize {
        self.push(x.values().to_vec(), pred.0).1 as usize
    }

    fn health(&self) -> String {
        format!(
            "\"rows\":{},\"shards\":{{\"total\":{},\"up\":{}}}",
            self.total_rows(),
            self.n_shards(),
            self.shards_up(),
        )
    }

    /// Stops the supervisor and workers — only after every in-flight
    /// scatter has been answered, since the server closes the backend
    /// after joining its connections.
    fn close(&self) {
        self.stop();
    }

    /// Kills one random live shard worker, when the daemon was started
    /// with chaos testing enabled (`--chaos`).
    fn chaos_kill(&self) -> Response {
        if !self.chaos {
            return Response::error_json(403, "chaos endpoints disabled");
        }
        match &*self.supervisor.lock().unwrap_or_else(|e| e.into_inner()) {
            Some(h) if h.kill_random() => {
                Response::json(200, "{\"status\":\"killed\"}".to_string())
            }
            _ => Response::error_json(503, "shard supervisor unavailable"),
        }
    }
}

/// The shard count source: every count is a sum over one gather from
/// the live shards, fixed per attempt — and with them the context size.
struct ShardCounts<'a> {
    backend: &'a ShardedBackend,
    live: Vec<usize>,
    x0: &'a [u32],
    p0: u32,
    picked: Vec<u32>,
    /// One gather per round: the empty key's (the seeds), then one after
    /// each pick. The driver asks for live counts only after a pick.
    gathers: Vec<RoundCounts>,
}

impl ShardCounts<'_> {
    /// Scatters one `Counts` round for the key so far and keeps the
    /// sums, returning the violator count — or every shard that failed,
    /// for the caller to exclude before restarting.
    fn gather(&mut self) -> Result<usize, Vec<usize>> {
        cce_obs::counter!("cce_shard_scatter_rounds_total").inc();
        let req = Req::Counts {
            x: self.x0.to_vec(),
            pred: self.p0,
            picked: self.picked.clone(),
        };
        let clients: Vec<&ShardClient> = self
            .live
            .iter()
            .map(|&i| &*self.backend.clients[i])
            .collect();
        let n = self.backend.n_features;
        let mut g = RoundCounts {
            surv: vec![0; n],
            cover: vec![0; n],
            ..RoundCounts::default()
        };
        let mut failed = Vec::new();
        for (&i, answer) in self.live.iter().zip(call_all(&clients, &req)) {
            match answer {
                Ok(Resp::Counts {
                    rows,
                    violators,
                    twins,
                    surv,
                    cover,
                }) if surv.len() == n && cover.len() == n => {
                    g.rows += rows as usize;
                    g.violators += violators as usize;
                    g.twins += twins as usize;
                    let cells = g.surv.iter_mut().zip(surv);
                    let cells = cells.chain(g.cover.iter_mut().zip(cover));
                    cells.for_each(|(a, b)| *a += b as usize);
                }
                _ => failed.push(i),
            }
        }
        if !failed.is_empty() {
            return Err(failed);
        }
        let violators = g.violators;
        self.gathers.push(g);
        Ok(violators)
    }
}

impl CountSource for ShardCounts<'_> {
    /// The shards that failed.
    type Fault = Vec<usize>;

    fn n_features(&self) -> usize {
        self.backend.n_features
    }

    fn start(&mut self) -> Result<(usize, usize), Vec<usize>> {
        self.picked.clear();
        self.gathers.clear();
        let violators = self.gather()?;
        Ok((self.gathers[0].rows, violators))
    }

    fn seed(&self, f: usize) -> (usize, usize) {
        (self.gathers[0].surv[f], self.gathers[0].cover[f])
    }

    fn surv(&mut self, f: usize) -> Result<usize, Vec<usize>> {
        Ok(self.gathers[self.picked.len()].surv[f])
    }

    fn cover(&mut self, f: usize) -> Result<usize, Vec<usize>> {
        Ok(self.gathers[self.picked.len()].cover[f])
    }

    fn pick(&mut self, f: usize) -> Result<usize, Vec<usize>> {
        self.picked.push(f as u32);
        self.gather()
    }

    /// Summed over the live shards from the empty key's gather.
    fn twin_violators(&self) -> Option<usize> {
        Some(self.gathers[0].twins)
    }
}
