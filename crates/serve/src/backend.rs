//! The one seam between the routes and the explain paths.
//!
//! [`App`](crate::App) holds exactly one [`Backend`] and never asks which
//! one it is: the in-RAM [`Batcher`](crate::Batcher) (`--data`), a
//! read-only converted store (`--store`; ingest feeds only the monitor),
//! or the [`ShardedBackend`](crate::shard::ShardedBackend) (`--shards`).
//! `App` counts the explains in flight for admission and answers `500`
//! for a panicking one. DESIGN.md §7 "Backends" tabulates what ingest
//! and health mean for each.

use cce_core::{Alpha, BudgetedKey, ExplainError, WorkBudget};
use cce_dataset::{Instance, Label};

use crate::http::Response;

/// What one explain produced.
#[derive(Debug)]
pub enum Answer {
    /// An answer was computed — over the whole context (`missing_shards`
    /// empty) or over the reachable shards only (explicitly partial).
    Done {
        /// The engine-shaped result, rendered by `explain_response`.
        result: Result<BudgetedKey, ExplainError>,
        /// Shards that contributed nothing, ascending. Empty ⇒ complete.
        missing_shards: Vec<usize>,
    },
    /// The target row's owner shard (or every shard) was unreachable:
    /// there is no sub-context to answer from. Retryable — the
    /// supervisor is respawning.
    Unavailable {
        /// The unreachable shards, ascending.
        missing_shards: Vec<usize>,
    },
}

/// One explain path behind the daemon's routes.
pub trait Backend: Send + Sync {
    /// The conformity bound every answer is computed at.
    fn alpha(&self) -> Alpha;

    /// Explains context row `target` under `budget`.
    fn explain(&self, target: usize, budget: WorkBudget) -> Answer;

    /// Applies one arrival the monitor has already acknowledged and
    /// returns the row count of the context `/explain` answers from.
    fn ingest(&self, x: Instance, pred: Label) -> usize;

    /// This backend's own `/healthz` members, `"rows"` first: JSON
    /// object members without the enclosing braces.
    fn health(&self) -> String;

    /// The backend's worker loop; returns once [`Backend::close`] has
    /// been called and all accepted work is answered. Backends without
    /// a worker return at once.
    fn run(&self) {}

    /// Stops taking work (drain) and releases what the backend owns (a
    /// sharded backend stops its supervisor and workers). Idempotent.
    fn close(&self) {}

    /// `POST /admin/chaos/kill-shard`: only a sharded backend has a
    /// worker to kill.
    fn chaos_kill(&self) -> Response {
        Response::error_json(404, "not serving sharded")
    }
}
