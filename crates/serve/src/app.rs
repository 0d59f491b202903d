//! Route handling: the transport-independent half of the daemon.
//!
//! [`App::handle`] maps one [`Request`] to one [`Response`]; the TCP
//! layer ([`crate::server`]) and the tests drive the same code. The app
//! is generic over the [`Vfs`] so the kill-during-ingest test can run
//! the production handler on the fault-injecting `MemVfs`.
//!
//! Every explain path sits behind one [`Backend`]; the routes never ask
//! which one. The drain `503`, the in-flight count admission observes,
//! the `429` shed decision, the `500` for a panicking explain, answer
//! rendering and the ingest ack are each written here once.
//!
//! Endpoints:
//!
//! | route                          | behavior                                            |
//! |--------------------------------|-----------------------------------------------------|
//! | `POST /explain`                | budgeted relative-key explanation from the backend  |
//! | `POST /monitor/ingest`         | WAL-durable online monitor arrival (ack = fsynced)  |
//! | `GET /metrics`                 | Prometheus text exposition of the whole registry    |
//! | `GET /healthz`                 | liveness + context/backend/drain summary            |
//! | `POST /admin/shutdown`         | begins graceful drain, idempotent                   |
//! | `POST /admin/chaos/kill-shard` | kills a shard worker (sharded `--chaos` only)       |

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cce_core::persist::Vfs;
use cce_core::{Alpha, BudgetedKey, ExplainError, ExplainStatus, WorkBudget};
use cce_dataset::{Instance, Label, Schema};

use crate::admission::{Admission, AdmissionConfig, Level};
use crate::backend::{Answer, Backend};
use crate::http::{Request, Response};
use crate::ingest::{IngestError, IngestState, MonitorBackend};
use crate::json::{escape, int_array, Json};

/// The daemon's shared state: one backend, one admission machine, the
/// explains in flight, the ingest monitor and the drain flag.
pub struct App<V: Vfs> {
    backend: Arc<dyn Backend>,
    /// The serving schema: ingests are validated against it.
    schema: Arc<Schema>,
    admission: Admission,
    /// Explains admitted and not yet answered, on every backend; exported
    /// as the `cce_serve_queue_depth` gauge.
    inflight: AtomicUsize,
    ingest: Mutex<IngestState<V>>,
    draining: AtomicBool,
}

impl<V: Vfs> App<V> {
    /// Assembles the app over `backend`, whose contexts share `schema`,
    /// with an ingest monitor over `monitor`.
    pub fn new(
        backend: Arc<dyn Backend>,
        schema: Arc<Schema>,
        admission: AdmissionConfig,
        monitor: MonitorBackend<V>,
    ) -> Self {
        let width = schema.n_features();
        Self {
            backend,
            schema,
            admission: Admission::new(admission),
            inflight: AtomicUsize::new(0),
            ingest: Mutex::new(IngestState::new(monitor, width)),
            draining: AtomicBool::new(false),
        }
    }

    /// The backend (the server spawns its [`Backend::run`] loop and
    /// [`Backend::close`]s it after the connections drain). Named for
    /// the in-RAM backend, the coalescing [`Batcher`](crate::Batcher).
    pub fn batcher(&self) -> &Arc<dyn Backend> {
        &self.backend
    }

    /// Closes the backend; for a sharded one that stops the supervisor
    /// and workers. Idempotent.
    pub fn stop_shards(&self) {
        self.backend.close();
    }

    /// True once a drain has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts the drain: new explains and ingests get `503`, the backend
    /// closes after the connections finish, connections stop being kept
    /// alive. Idempotent.
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
            ("POST", "/admin/chaos/kill-shard") => ("chaos", self.backend.chaos_kill()),
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
        if self.draining() {
            return draining_response();
        }
        // Admission sees the explains in flight with this request
        // included; that one observation decides the shed and the
        // budget. A shed costs the backend nothing.
        let level = self
            .admission
            .observe(self.inflight.load(Ordering::SeqCst) + 1);
        if level == Level::Shedding {
            cce_obs::counter!("cce_serve_shed_total").inc();
            return Response::json(
                429,
                "{\"status\":\"shed\",\"error\":\"server overloaded, retry later\"}".to_string(),
            )
            .with_header("Retry-After", "1".to_string());
        }
        let budget = self.admission.budget_at(level);
        if budget != WorkBudget::unlimited() {
            cce_obs::counter!("cce_serve_degraded_batches_total").inc();
        }
        let depth = cce_obs::gauge!("cce_serve_queue_depth");
        self.inflight.fetch_add(1, Ordering::SeqCst);
        depth.add(1);
        // A panicking explain is one 500; the next request is served as
        // usual (the backend's locks recover from poisoning).
        let answer = catch_unwind(AssertUnwindSafe(|| self.backend.explain(target, budget)));
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        depth.add(-1);
        match answer {
            Ok(Answer::Done {
                result,
                missing_shards,
            }) => {
                let resp = explain_response(target, self.backend.alpha(), &result);
                if missing_shards.is_empty() {
                    resp
                } else {
                    mark_partial(resp, &missing_shards)
                }
            }
            Ok(Answer::Unavailable { missing_shards }) => Response::json(
                503,
                format!(
                    "{{\"status\":\"unavailable\",\"error\":\"target row's shard is down, retry shortly\",\"missing_shards\":{}}}",
                    int_array(missing_shards),
                ),
            )
            .with_header("Retry-After", "1".to_string()),
            Err(_) => Response::error_json(500, "explanation failed: internal error"),
        }
    }

    fn monitor_ingest(&self, req: &Request) -> Response {
        if self.draining() {
            return draining_response();
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
        // observe (which checks the width): a row the context would
        // reject must not become durable monitor state, and an
        // out-of-cardinality code would otherwise poison the
        // value-addressed index.
        for (f, (&v, def)) in x.values().iter().zip(self.schema.features()).enumerate() {
            let card = def.cardinality();
            if v as usize >= card {
                cce_obs::counter!("cce_serve_ingest_rejected_total", "kind" => "value").inc();
                return Response::error_json(
                    400,
                    &format!("value code {v} at feature {f} exceeds cardinality {card}"),
                );
            }
        }
        let mut ingest = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        match ingest.observe(x.clone(), pred) {
            Ok(ack) => {
                // The arrival is durable (or the monitor is plain): hand
                // it to the backend under the ingest lock, so arrivals
                // reach the context in acknowledgment order.
                let context_rows = self.backend.ingest(x, pred);
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

    fn healthz(&self) -> Response {
        let (ingested, durable) = {
            let i = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
            (i.monitor().n_seen(), i.is_durable())
        };
        Response::json(
            200,
            format!(
                "{{\"status\":\"ok\",{},\"features\":{},\"alpha\":{},\"ingested\":{ingested},\"durable\":{durable},\"draining\":{}}}",
                self.backend.health(),
                self.schema.n_features(),
                self.backend.alpha().get(),
                self.draining(),
            ),
        )
    }

    fn shutdown(&self) -> Response {
        self.begin_drain();
        Response::json(200, "{\"status\":\"draining\"}".to_string())
    }
}

/// The one drain refusal: once draining, no new explain or ingest is
/// taken.
fn draining_response() -> Response {
    Response::error_json(503, "server is draining")
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{Batcher, BatcherConfig};
    use cce_core::persist::MemVfs;
    use cce_core::{BatchEngine, Context, OsrkMonitor};
    use cce_dataset::{synth, BinSpec};

    /// Panics on target 0 and serves every other target from a real
    /// in-RAM backend (closed, so it explains on the caller's thread).
    struct PanicsOnZero(Batcher);

    impl Backend for PanicsOnZero {
        fn alpha(&self) -> Alpha {
            self.0.alpha()
        }

        fn explain(&self, target: usize, budget: WorkBudget) -> Answer {
            assert_ne!(target, 0, "injected explain panic");
            self.0.explain(target, budget)
        }

        fn ingest(&self, x: Instance, pred: Label) -> usize {
            self.0.ingest(x, pred)
        }

        fn health(&self) -> String {
            self.0.health()
        }
    }

    fn explain(app: &App<MemVfs>, target: usize) -> Response {
        app.handle(&Request {
            method: "POST".to_string(),
            path: "/explain".to_string(),
            http11: true,
            headers: Vec::new(),
            body: format!("{{\"target\":{target}}}").into_bytes(),
        })
    }

    /// A panicking explain is one `500`; the in-flight count it held is
    /// released (a leaked count would shed the next request at a shed
    /// depth of 2), and the next request is served.
    #[test]
    fn panicking_explain_answers_500_and_the_next_is_served() {
        let ds = synth::loan::generate(60, 42).encode(&BinSpec::uniform(6));
        let ctx = Context::from_recorded(&ds);
        let alpha = Alpha::new(1.0).unwrap();
        let monitor = OsrkMonitor::new(ctx.instance(0).clone(), ctx.prediction(0), alpha, 7);
        let schema = ctx.schema_arc();
        let batcher = Batcher::new(BatchEngine::new(ctx, alpha), BatcherConfig::default(), None);
        batcher.close();
        let backend = PanicsOnZero(batcher);
        let admission = AdmissionConfig {
            shed_depth: 2,
            degrade_depth: 2,
            degrade_budget: 1,
        };
        let app: App<MemVfs> = App::new(
            Arc::new(backend),
            schema,
            admission,
            MonitorBackend::Plain(monitor),
        );
        let resp = explain(&app, 0);
        assert_eq!(resp.status, 500);
        for target in [1, 2] {
            let resp = explain(&app, target);
            assert!(
                matches!(resp.status, 200 | 409),
                "target {target}: {} {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            );
        }
    }
}
