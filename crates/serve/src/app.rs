//! Route handling: the transport-independent half of the daemon.
//!
//! [`App::handle`] maps one [`Request`] to one [`Response`]; the TCP
//! layer ([`crate::server`]) and the tests drive the same code. The app
//! is generic over the [`Vfs`] so the kill-during-ingest test can run
//! the production handler on the fault-injecting `MemVfs`.
//!
//! Endpoints:
//!
//! | route                  | behavior                                            |
//! |------------------------|-----------------------------------------------------|
//! | `POST /explain`        | coalesced, budgeted relative-key explanation        |
//! | `POST /monitor/ingest` | WAL-durable online monitor arrival (ack = fsynced)  |
//! | `GET /metrics`         | Prometheus text exposition of the whole registry    |
//! | `GET /healthz`         | liveness + context/queue/drain summary              |
//! | `POST /admin/shutdown` | begins graceful drain, idempotent                   |

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cce_core::persist::Vfs;
use cce_core::{Alpha, BudgetedKey, ExplainError, ExplainStatus};
use cce_dataset::{Instance, Label};

use crate::admission::Level;
use crate::batcher::{Batcher, Submission};
use crate::http::{Request, Response};
use crate::ingest::{IngestError, IngestState};
use crate::json::{escape, int_array, Json};
use crate::shard::router::ShardedAnswer;
use crate::shard::ShardedBackend;
use crate::store::PagedBackend;

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

/// The daemon's shared state.
pub struct App<V: Vfs> {
    batcher: Arc<Batcher>,
    ingest: Mutex<IngestState<V>>,
    /// Optional ΔI bound on the live context (`None` → it only grows).
    window: Option<LiveWindow>,
    /// Arrivals past capacity awaiting the next ΔI slide; mutated only
    /// under the ingest lock (the WAL serializes arrivals anyway).
    staged: AtomicUsize,
    /// Disk-backed explain backend (`cce serve --store`). When present,
    /// `/explain` targets address the store's rows through the page
    /// cache instead of the in-RAM batch engine.
    paged: Option<PagedBackend<V>>,
    /// Sharded scatter/gather backend (`cce serve --shards N`). When
    /// present, `/explain` and live-context ingest route to the shard
    /// workers instead of the in-RAM batch engine.
    sharded: Option<Arc<ShardedBackend>>,
    draining: AtomicBool,
}

impl<V: Vfs> App<V> {
    /// Assembles the app over a running batcher and an ingest state.
    /// `window`, when set, bounds the live ingest context by ΔI slides.
    pub fn new(batcher: Arc<Batcher>, ingest: IngestState<V>, window: Option<LiveWindow>) -> Self {
        Self {
            batcher,
            ingest: Mutex::new(ingest),
            window,
            staged: AtomicUsize::new(0),
            paged: None,
            sharded: None,
            draining: AtomicBool::new(false),
        }
    }

    /// Attaches a disk-backed explain backend: `/explain` routes through
    /// the paged index, and `/healthz` reports its page-cache stats.
    #[must_use]
    pub fn with_paged(mut self, backend: PagedBackend<V>) -> Self {
        self.paged = Some(backend);
        self
    }

    /// The disk-backed backend, when serving from a store.
    pub fn paged(&self) -> Option<&PagedBackend<V>> {
        self.paged.as_ref()
    }

    /// Attaches the sharded scatter/gather backend: `/explain` routes
    /// through the shard router, ingest forwards to owner shards, and
    /// `/healthz` reports shard liveness.
    #[must_use]
    pub fn with_sharded(mut self, backend: Arc<ShardedBackend>) -> Self {
        self.sharded = Some(backend);
        self
    }

    /// The sharded backend, when serving sharded.
    pub fn sharded(&self) -> Option<&Arc<ShardedBackend>> {
        self.sharded.as_ref()
    }

    /// Stops the shard supervisor and workers (drain path). No-op when
    /// not sharded; idempotent.
    pub fn stop_shards(&self) {
        if let Some(s) = &self.sharded {
            s.stop();
        }
    }

    /// The coalescing queue (the server spawns its run loop).
    pub fn batcher(&self) -> &Arc<Batcher> {
        &self.batcher
    }

    /// True once a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts the drain: new ingests get `503`, the explain queue closes
    /// after flushing, connections stop being kept alive. Idempotent.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Drain protocol final step: checkpoint the durable monitor so a
    /// clean shutdown never needs WAL replay on the next boot.
    ///
    /// # Errors
    /// Propagates snapshot-write failures from the durability layer.
    pub fn final_checkpoint(&self) -> Result<(), cce_core::persist::PersistError> {
        self.ingest
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .final_checkpoint()
    }

    /// Read access to the ingest monitor (tests, health).
    pub fn with_ingest<R>(&self, f: impl FnOnce(&IngestState<V>) -> R) -> R {
        f(&self.ingest.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Routes one request. Every path records a per-endpoint latency
    /// histogram and a status-code counter.
    pub fn handle(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        let (endpoint, resp) = match (req.method.as_str(), route_of(&req.path)) {
            ("POST", "/explain") => ("explain", self.explain(req)),
            ("POST", "/monitor/ingest") => ("ingest", self.monitor_ingest(req)),
            ("GET", "/metrics") => ("metrics", metrics_response()),
            ("GET", "/healthz") => ("healthz", self.healthz()),
            ("POST", "/admin/shutdown") => ("shutdown", self.shutdown()),
            ("POST", "/admin/chaos/kill-shard") => ("chaos", self.chaos_kill()),
            (
                _,
                "/explain"
                | "/monitor/ingest"
                | "/metrics"
                | "/healthz"
                | "/admin/shutdown"
                | "/admin/chaos/kill-shard",
            ) => ("method", Response::error_json(405, "method not allowed")),
            _ => ("unknown", Response::error_json(404, "no such route")),
        };
        observe_request(endpoint, resp.status, t0);
        resp
    }

    fn explain(&self, req: &Request) -> Response {
        let body = match parse_body(req) {
            Ok(v) => v,
            Err(resp) => return *resp,
        };
        let Some(target) = body.get("target").and_then(Json::as_u64) else {
            return Response::error_json(400, "body must carry a non-negative integer \"target\"");
        };
        let target = target as usize;
        // Sharded serving: the router runs the greedy driver over
        // scatter/gather counts, bypassing the batcher. Admission observes the
        // scatter concurrency instead of a queue depth, reusing the same
        // Normal→Degraded→Shedding machine and budgets.
        if let Some(sharded) = &self.sharded {
            if self.draining() {
                return Response::error_json(503, "server is draining");
            }
            let admission = self.batcher.admission();
            if admission.observe(sharded.inflight()) == Level::Shedding {
                return Response::json(
                    429,
                    "{\"status\":\"shed\",\"error\":\"server overloaded, retry later\"}"
                        .to_string(),
                )
                .with_header("Retry-After", "1".to_string());
            }
            let alpha = sharded.alpha();
            return match sharded.explain(target as u64, admission.budget()) {
                ShardedAnswer::Done {
                    result,
                    missing_shards,
                } => {
                    let resp = explain_response(target, alpha, &result);
                    if missing_shards.is_empty() {
                        resp
                    } else {
                        mark_partial(resp, &missing_shards)
                    }
                }
                ShardedAnswer::Unavailable { missing_shards } => Response::json(
                    503,
                    format!(
                        "{{\"status\":\"unavailable\",\"error\":\"target row's shard is down, retry shortly\",\"missing_shards\":{}}}",
                        int_array(missing_shards),
                    ),
                )
                .with_header("Retry-After", "1".to_string()),
            };
        }
        // Disk-backed serving: answer from the store, bypassing the
        // coalescing batcher (its memoization keys on live-context rows,
        // not store rows). Drain semantics match the batcher's Closed.
        if let Some(paged) = &self.paged {
            if self.draining() {
                return Response::error_json(503, "server is draining");
            }
            let alpha = self
                .batcher
                .engine()
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .alpha();
            let result = paged.explain(target, alpha);
            return explain_response(target, alpha, &result);
        }
        match self.batcher.submit(target) {
            Submission::Shed => Response::json(
                429,
                "{\"status\":\"shed\",\"error\":\"server overloaded, retry later\"}".to_string(),
            )
            .with_header("Retry-After", "1".to_string()),
            Submission::Closed => Response::error_json(503, "server is draining"),
            Submission::Enqueued(rx) => match rx.recv() {
                Ok(result) => {
                    let alpha = self
                        .batcher
                        .engine()
                        .read()
                        .unwrap_or_else(|e| e.into_inner())
                        .alpha();
                    explain_response(target, alpha, &result)
                }
                // The batcher thread died without answering: a server
                // bug, reported as such.
                Err(_) => Response::error_json(500, "explanation worker unavailable"),
            },
        }
    }

    fn monitor_ingest(&self, req: &Request) -> Response {
        if self.draining() {
            return Response::error_json(503, "server is draining");
        }
        let body = match parse_body(req) {
            Ok(v) => v,
            Err(resp) => return *resp,
        };
        let Some(values) = body.get("values").and_then(Json::as_array) else {
            return Response::error_json(400, "body must carry a \"values\" array");
        };
        let Some(pred) = body.get("prediction").and_then(Json::as_u64) else {
            return Response::error_json(
                400,
                "body must carry a non-negative integer \"prediction\"",
            );
        };
        let mut cats = Vec::with_capacity(values.len());
        for v in values {
            match v.as_u64() {
                Some(c) if c <= u32::MAX as u64 => cats.push(c as u32),
                _ => return Response::error_json(400, "\"values\" must be non-negative integers"),
            }
        }
        if pred > u32::MAX as u64 {
            return Response::error_json(400, "\"prediction\" out of range");
        }
        let x = Instance::new(cats);
        let pred = Label(pred as u32);
        // Validate value codes against the serving schema BEFORE the WAL
        // observe: a row the live context would reject must not become
        // durable monitor state, and an out-of-cardinality code would
        // otherwise poison the value-addressed index.
        {
            let engine = self
                .batcher
                .engine()
                .read()
                .unwrap_or_else(|e| e.into_inner());
            let schema = engine.schema();
            if x.len() != schema.n_features() {
                return Response::error_json(
                    400,
                    &format!(
                        "instance width {} does not match context width {}",
                        x.len(),
                        schema.n_features()
                    ),
                );
            }
            for f in 0..x.len() {
                let card = schema.feature(f).cardinality();
                if x[f] as usize >= card {
                    cce_obs::counter!("cce_serve_ingest_rejected_total", "kind" => "value").inc();
                    return Response::error_json(
                        400,
                        &format!(
                            "value code {} at feature {f} exceeds cardinality {card}",
                            x[f]
                        ),
                    );
                }
            }
        }
        let mut ingest = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        match ingest.observe(x.clone(), pred) {
            Ok(ack) => {
                // The arrival is durable (or the backend is plain): join
                // it to the live explanation context as an insert delta,
                // sliding in ΔI granules when a window bound is set. Held
                // under the ingest lock so the staged counter is exact.
                // Sharded: the row goes to its owner worker (and the
                // replay log) instead of the local engine.
                let context_rows = match &self.sharded {
                    Some(s) => {
                        let codes: Vec<u32> = (0..x.len()).map(|f| x[f]).collect();
                        s.push(codes, pred.0).1 as usize
                    }
                    None => self.push_live(x, pred),
                };
                Response::json(
                    200,
                    format!(
                        "{{\"status\":\"ok\",\"n_seen\":{},\"key\":{},\"violators\":{},\"durable\":{},\"context_rows\":{}}}",
                        ack.n_seen,
                        int_array(ack.key),
                        ack.n_violators,
                        ack.durable,
                        context_rows,
                    ),
                )
            }
            Err(IngestError::Width { expected, got }) => Response::error_json(
                400,
                &format!("instance width {got} does not match monitor width {expected}"),
            ),
            Err(IngestError::Persist(e)) => {
                cce_obs::counter!("cce_serve_ingest_rejected_total", "kind" => "persist").inc();
                Response::error_json(
                    500,
                    &format!("durability failure, arrival NOT recorded: {e}"),
                )
            }
        }
    }

    /// Applies one live-context insert delta (plus any due ΔI slide) and
    /// returns the resulting live row count.
    fn push_live(&self, x: Instance, pred: Label) -> usize {
        let mut engine = self
            .batcher
            .engine()
            .write()
            .unwrap_or_else(|e| e.into_inner());
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

    fn healthz(&self) -> Response {
        let engine = self
            .batcher
            .engine()
            .read()
            .unwrap_or_else(|e| e.into_inner());
        let m = self.with_ingest(|i| (i.monitor().n_seen(), i.is_durable()));
        // When disk-backed, surface the page cache so operators can see
        // residency and hit rate without scraping /metrics.
        let pagestore = match &self.paged {
            Some(p) => {
                let s = p.stats();
                format!(
                    ",\"pagestore\":{{\"store_rows\":{},\"resident_bytes\":{},\"budget_bytes\":{},\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{}}}",
                    p.rows(),
                    s.resident_bytes,
                    s.budget_bytes,
                    s.hits,
                    s.misses,
                    s.evictions,
                    s.hit_rate(),
                )
            }
            None => String::new(),
        };
        // Sharded: the authoritative row count lives with the router, and
        // operators need shard liveness at a glance.
        let (rows, shards) = match &self.sharded {
            Some(s) => (
                s.total_rows() as usize,
                format!(
                    ",\"shards\":{{\"total\":{},\"up\":{}}}",
                    s.n_shards(),
                    s.shards_up(),
                ),
            ),
            None => (engine.len(), String::new()),
        };
        Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",\"rows\":{},\"features\":{},\"alpha\":{},\"version\":{},\"tombstones\":{},\"queue_depth\":{},\"ingested\":{},\"durable\":{},\"draining\":{}{shards}{pagestore}}}",
                rows,
                engine.schema().n_features(),
                engine.alpha().get(),
                engine.version(),
                engine.tombstones(),
                self.batcher.depth(),
                m.0,
                m.1,
                self.draining(),
            ),
        )
    }

    fn shutdown(&self) -> Response {
        self.begin_drain();
        Response::json(200, "{\"status\":\"draining\"}".to_string())
    }

    /// Chaos hook: kills one random live shard worker. Only honored when
    /// the daemon was started with chaos testing enabled (`--chaos`).
    fn chaos_kill(&self) -> Response {
        match &self.sharded {
            Some(s) if s.chaos_enabled() => {
                if s.kill_random_shard() {
                    Response::json(200, "{\"status\":\"killed\"}".to_string())
                } else {
                    Response::error_json(503, "shard supervisor unavailable")
                }
            }
            Some(_) => Response::error_json(403, "chaos endpoints disabled"),
            None => Response::error_json(404, "not serving sharded"),
        }
    }
}

/// Stamps a sharded response as explicitly partial: injects the
/// `"degraded":{"missing_shards":[...]}` field right after the leading
/// `{` and converts `200` into `206 Partial Content`. Error statuses
/// keep their code but still carry the field, so a caller can always
/// tell a full-context answer from a degraded one.
fn mark_partial(mut resp: Response, missing: &[usize]) -> Response {
    cce_obs::counter!("cce_serve_partial_responses_total").inc();
    let field = format!(
        "\"degraded\":{{\"missing_shards\":{}}},",
        int_array(missing.iter().copied()),
    );
    if resp.body.first() == Some(&b'{') {
        let mut body = Vec::with_capacity(resp.body.len() + field.len());
        body.push(b'{');
        body.extend_from_slice(field.as_bytes());
        body.extend_from_slice(&resp.body[1..]);
        resp.body = body;
    }
    if resp.status == 200 {
        resp.status = 206;
    }
    resp
}

/// Strips the query string: routing ignores it.
fn route_of(path: &str) -> &str {
    path.split('?').next().unwrap_or(path)
}

fn parse_body(req: &Request) -> Result<Json, Box<Response>> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Box::new(Response::error_json(400, "body is not UTF-8")))?;
    Json::parse(text).map_err(|e| {
        Box::new(Response::error_json(
            400,
            &format!("invalid JSON body: {e}"),
        ))
    })
}

fn metrics_response() -> Response {
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        extra_headers: Vec::new(),
        body: cce_obs::registry()
            .snapshot()
            .to_prometheus_string()
            .into_bytes(),
    }
}

fn observe_request(endpoint: &str, status: u16, t0: Instant) {
    let ns = t0.elapsed().as_nanos() as u64;
    cce_obs::registry()
        .histogram("cce_serve_request_ns", &[("endpoint", endpoint)])
        .record(ns);
    let class = match status {
        200..=299 => "2xx",
        400..=428 | 430..=499 => "4xx",
        429 => "429",
        _ => "5xx",
    };
    cce_obs::registry()
        .counter(
            "cce_serve_requests_total",
            &[("endpoint", endpoint), ("status", class)],
        )
        .inc();
}

/// Renders the deterministic `/explain` response for `result`.
///
/// This function is `pub` because the coalescing differential test feeds
/// it per-request [`Srk::explain_budgeted`] outputs and asserts the
/// served bytes are identical — batching must be invisible.
///
/// [`Srk::explain_budgeted`]: cce_core::Srk::explain_budgeted
pub fn explain_response(
    target: usize,
    alpha: Alpha,
    result: &Result<BudgetedKey, ExplainError>,
) -> Response {
    match result {
        Ok(b) => {
            let status_field = match b.status {
                ExplainStatus::Complete => "\"status\":\"complete\"".to_string(),
                ExplainStatus::Degraded {
                    spent,
                    remaining_violators,
                } => format!(
                    "\"status\":\"degraded\",\"spent\":{spent},\"remaining_violators\":{remaining_violators}"
                ),
            };
            Response::json(
                200,
                format!(
                    "{{{status_field},\"target\":{target},\"alpha\":{},\"features\":{},\"succinctness\":{},\"achieved_conformity\":{}}}",
                    alpha.get(),
                    int_array(b.key.features().iter().copied()),
                    b.key.succinctness(),
                    b.key.achieved_conformity(),
                ),
            )
        }
        Err(e) => {
            let status = match e {
                ExplainError::TargetOutOfRange { .. } | ExplainError::EmptyContext => 400,
                ExplainError::NoConformantKey { .. } => 409,
                // A page that failed to fault is a server-side fault, not
                // a bad request.
                ExplainError::Storage { .. } => 500,
                _ => 422,
            };
            Response::json(
                status,
                format!(
                    "{{\"status\":\"error\",\"target\":{target},\"error\":\"{}\"}}",
                    escape(&e.to_string())
                ),
            )
        }
    }
}
