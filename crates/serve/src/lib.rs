//! `cce-serve` — the explanation-serving daemon.
//!
//! The front door the ROADMAP's "millions of users" north star asks for:
//! a zero-dependency HTTP/1.1 service wrapping the CCE explainability
//! core, in the mold of an analytics service around an explanation
//! engine. Every production substrate the repo already has is wired
//! through it:
//!
//! * `POST /explain` goes through one [`Backend`] ([`backend`]): the
//!   in-RAM [`Batcher`] coalesces concurrent requests into micro-batches
//!   over the shared [`BatchEngine`], exploiting duplicate-row
//!   memoization *across requests* ([`batcher`]); a converted store
//!   answers out-of-core ([`store`]); shard workers answer by
//!   scatter/gather ([`shard`]);
//! * overload triggers **budgeted admission control** over the explains
//!   in flight — degraded partial keys via [`WorkBudget`]s, then `429`
//!   shedding — with an explicit hysteresis state machine
//!   ([`admission`]);
//! * `POST /monitor/ingest` runs the online monitor behind the
//!   [`Durable`] WAL wrapper, so an HTTP `200` *is* a durability
//!   acknowledgment that survives `kill -9` ([`ingest`]); the ack's
//!   `context_rows` counts the context `/explain` answers from (a store
//!   is read-only: its ingest feeds only the monitor);
//! * `GET /metrics` exposes the whole `cce-obs` registry in Prometheus
//!   text format, including per-endpoint latency histograms and the
//!   in-flight explain gauge (`cce_serve_queue_depth`);
//! * `POST /admin/shutdown` runs the graceful drain protocol
//!   ([`server`] module docs).
//!
//! [`Durable`]: cce_core::Durable
//! [`WorkBudget`]: cce_core::WorkBudget

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod app;
pub mod backend;
pub mod batcher;
pub mod http;
pub mod ingest;
pub mod json;
pub mod server;
pub mod shard;
pub mod store;

pub use admission::{Admission, AdmissionConfig, Level};
pub use app::{explain_response, App};
pub use backend::{Answer, Backend};
pub use batcher::{Batcher, BatcherConfig};
pub use cce_core::LiveWindow;
pub use ingest::{IngestAck, IngestError, IngestState, MonitorBackend};
pub use server::{Server, ServerConfig};
pub use store::PagedBackend;

use std::sync::Arc;

use cce_core::engine::EngineConfig;
use cce_core::persist::Vfs;
use cce_core::{Alpha, BatchEngine, Context, PagedContextIndex};

use crate::store::StoreBackend;

/// Assembles an [`App`] from its parts: engine over `ctx`, coalescing
/// batcher, and an ingest state over `backend`. The CLI, the tests, and
/// the fault-injection harness all build the daemon through here.
pub fn build_app<V: Vfs>(
    ctx: Context,
    alpha: Alpha,
    batcher_cfg: BatcherConfig,
    admission_cfg: AdmissionConfig,
    backend: MonitorBackend<V>,
) -> Arc<App<V>> {
    build_app_with(
        ctx,
        alpha,
        EngineConfig::default(),
        batcher_cfg,
        admission_cfg,
        backend,
        None,
    )
}

/// [`build_app`] with an optional [`LiveWindow`] bound on the ingest
/// context — the CLI's entry point, carrying `--window`/`--window-delta`
/// into the ΔI slide policy. The [`EngineConfig`] is ignored (it has no
/// fields); the parameter stays because the `perfbench` harness passes it.
#[allow(clippy::too_many_arguments)]
pub fn build_app_with<V: Vfs>(
    ctx: Context,
    alpha: Alpha,
    _engine_cfg: EngineConfig,
    batcher_cfg: BatcherConfig,
    admission_cfg: AdmissionConfig,
    backend: MonitorBackend<V>,
    window: Option<LiveWindow>,
) -> Arc<App<V>> {
    let schema = ctx.schema_arc();
    let engine = BatchEngine::new(ctx, alpha);
    let batcher = Arc::new(Batcher::new(engine, batcher_cfg, window));
    Arc::new(App::new(batcher, schema, admission_cfg, backend))
}

/// An [`App`] over a disk-backed store, a read-only context: `/explain`
/// answers from the paged index through the LRU page cache, and ingest
/// feeds only the monitor. `ctx` should be an empty context over the
/// store's schema; the store and the monitor share one [`Vfs`] type, so
/// fault injection covers both. There is no engine, queue or window to
/// configure (`cce serve` rejects `--store` with `--window`).
#[allow(clippy::too_many_arguments)]
pub fn build_app_paged<V: Vfs + Send + 'static>(
    ctx: Context,
    alpha: Alpha,
    _engine_cfg: EngineConfig,
    _batcher_cfg: BatcherConfig,
    admission_cfg: AdmissionConfig,
    backend: MonitorBackend<V>,
    _window: Option<LiveWindow>,
    paged: PagedContextIndex<V>,
) -> Arc<App<V>> {
    let store = Arc::new(StoreBackend::new(PagedBackend::new(paged), alpha));
    Arc::new(App::new(store, ctx.schema_arc(), admission_cfg, backend))
}

/// An [`App`] over a sharded scatter/gather backend: `/explain` and
/// live ingest route to supervised shard workers. `ctx` should be an
/// empty context over the serving schema; `alpha` and `batcher_cfg` are
/// unused (the router carries its own α, and there is no queue).
pub fn build_app_sharded<V: Vfs>(
    ctx: Context,
    _alpha: Alpha,
    _batcher_cfg: BatcherConfig,
    admission_cfg: AdmissionConfig,
    backend: MonitorBackend<V>,
    sharded: Arc<shard::ShardedBackend>,
) -> Arc<App<V>> {
    Arc::new(App::new(sharded, ctx.schema_arc(), admission_cfg, backend))
}
