//! End-to-end tests of the serving daemon over real TCP sockets, plus
//! handler-level fault-injection for the durability acknowledgment
//! contract.
//!
//! The two load-bearing guarantees:
//!
//! * **Coalescing is invisible** — responses produced by the batching
//!   queue under concurrency are byte-identical to what a per-request
//!   [`Srk::explain_budgeted`] call renders through the same
//!   [`explain_response`] function.
//! * **`200` on `/monitor/ingest` is a durability ack** — under `MemVfs`
//!   crash injection, every arrival acknowledged before the kill is
//!   recovered by `resume`, at every kill point tried.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use cce_core::persist::{FaultPlan, MemVfs, PersistError, Vfs};
use cce_core::{Alpha, Context, Durable, OsrkMonitor, Srk, WorkBudget};
use cce_dataset::{synth, BinSpec};
use cce_serve::http::{read_response, Request};
use cce_serve::{
    build_app, build_app_with, explain_response, AdmissionConfig, App, BatcherConfig, LiveWindow,
    MonitorBackend, Server, ServerConfig,
};

const ALPHA: f64 = 1.0;
const SEED: u64 = 7;

fn loan_ctx(rows: usize) -> Context {
    let raw = synth::loan::generate(rows, 42);
    let ds = raw.encode(&BinSpec::uniform(6));
    Context::from_recorded(&ds)
}

fn monitor_for(ctx: &Context, alpha: Alpha) -> OsrkMonitor {
    OsrkMonitor::new(ctx.instance(0).clone(), ctx.prediction(0), alpha, SEED)
}

/// Builds an app over `ctx` with a plain (non-durable) monitor backend.
fn plain_app(
    ctx: Context,
    batcher_cfg: BatcherConfig,
    admission_cfg: AdmissionConfig,
) -> Arc<App<MemVfs>> {
    let alpha = Alpha::new(ALPHA).expect("valid alpha");
    let backend = MonitorBackend::Plain(monitor_for(&ctx, alpha));
    build_app(ctx, alpha, batcher_cfg, admission_cfg, backend)
}

/// Builds an app over a store converted from `ctx`, wired exactly as
/// `cce serve --store` wires it.
fn store_app(ctx: &Context, admission_cfg: AdmissionConfig) -> Arc<App<MemVfs>> {
    let alpha = Alpha::new(ALPHA).expect("valid alpha");
    let mut vfs = MemVfs::new();
    cce_core::pagestore::write_store(&mut vfs, "loan.pg", ctx, 4096, &[]).expect("convert");
    let paged = cce_core::PagedContextIndex::open(vfs, "loan.pg", 1 << 22).expect("open store");
    let empty = Context::new(ctx.schema_arc(), Vec::new(), Vec::new());
    cce_serve::build_app_paged(
        empty,
        alpha,
        cce_core::engine::EngineConfig::default(),
        BatcherConfig::default(),
        admission_cfg,
        MonitorBackend::Plain(monitor_for(ctx, alpha)),
        None,
        paged,
    )
}

struct Daemon {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<io::Result<()>>,
}

fn start<V: Vfs + Send + 'static>(app: Arc<App<V>>) -> Daemon {
    let cfg = ServerConfig {
        max_connections: 64,
        keep_alive_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let server = Server::bind(app, "127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("resolve addr");
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle }
}

impl Daemon {
    fn stop(self) {
        let (status, _) = roundtrip(self.addr, "POST", "/admin/shutdown", "");
        assert_eq!(status, 200);
        self.handle
            .join()
            .expect("server thread exits")
            .expect("drain completes cleanly");
    }
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    stream.flush().expect("flush");
}

/// One request on a fresh connection.
fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (mut stream, mut reader) = connect(addr);
    send(&mut stream, method, path, body);
    let (status, bytes) = read_response(&mut reader).expect("read response");
    (status, String::from_utf8(bytes).expect("utf-8 body"))
}

#[test]
fn coalesced_responses_are_byte_identical_to_per_request_explains() {
    let ctx = loan_ctx(300);
    let alpha = Alpha::new(ALPHA).unwrap();
    // A long linger and wide batch so concurrent requests actually ride
    // the same micro-batch (correctness must hold either way).
    let app = plain_app(
        ctx.clone(),
        BatcherConfig {
            max_batch: 16,
            linger: Duration::from_millis(15),
            threads: 4,
        },
        AdmissionConfig::default(),
    );
    let daemon = start(app);

    // Duplicate-heavy target mix: pairs of threads share a target.
    let targets: Vec<usize> = (0..24).map(|i| (i / 2 * 17) % ctx.len()).collect();
    let served: Vec<(usize, u16, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = targets
            .iter()
            .map(|&t| {
                s.spawn(move || {
                    let (mut stream, mut reader) = connect(daemon.addr);
                    // Two requests per connection: exercises keep-alive
                    // reuse on the server side.
                    send(
                        &mut stream,
                        "POST",
                        "/explain",
                        &format!("{{\"target\":{t}}}"),
                    );
                    let first = read_response(&mut reader).expect("first response");
                    send(
                        &mut stream,
                        "POST",
                        "/explain",
                        &format!("{{\"target\":{t}}}"),
                    );
                    let second = read_response(&mut reader).expect("keep-alive response");
                    assert_eq!(first, second, "same request, same bytes");
                    (t, first.0, first.1)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let srk = Srk::new(alpha);
    for (t, status, body) in served {
        let expected = explain_response(
            t,
            alpha,
            &srk.explain_budgeted(&ctx, t, WorkBudget::unlimited()),
        );
        assert_eq!(status, expected.status, "target {t}");
        assert_eq!(
            body, expected.body,
            "target {t}: served bytes must match the per-request render"
        );
    }
    daemon.stop();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let ctx = loan_ctx(120);
    let alpha = Alpha::new(ALPHA).unwrap();
    let app = plain_app(
        ctx.clone(),
        BatcherConfig::default(),
        AdmissionConfig::default(),
    );
    let daemon = start(app);

    let (mut stream, mut reader) = connect(daemon.addr);
    // Two explains and a healthz in ONE write: the server must frame
    // them by Content-Length and answer in order.
    let wire = "POST /explain HTTP/1.1\r\nHost: t\r\nContent-Length: 12\r\n\r\n{\"target\":3}\
POST /explain HTTP/1.1\r\nHost: t\r\nContent-Length: 12\r\n\r\n{\"target\":9}\
GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    stream.write_all(wire.as_bytes()).unwrap();
    stream.flush().unwrap();

    let srk = Srk::new(alpha);
    for t in [3usize, 9] {
        let (status, body) = read_response(&mut reader).expect("pipelined response");
        let expected = explain_response(
            t,
            alpha,
            &srk.explain_budgeted(&ctx, t, WorkBudget::unlimited()),
        );
        assert_eq!(status, expected.status);
        assert_eq!(body, expected.body, "pipelined target {t}");
    }
    let (status, body) = read_response(&mut reader).expect("healthz response");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("\"rows\":120"));
    daemon.stop();
}

#[test]
fn shedding_config_returns_429_with_retry_hint() {
    let ctx = loan_ctx(80);
    // shed_depth = 0: admission refuses every explain deterministically.
    let admission = AdmissionConfig {
        shed_depth: 0,
        degrade_depth: 0,
        degrade_budget: 1,
    };
    let app = plain_app(ctx.clone(), BatcherConfig::default(), admission);
    // Store mode goes through the same admission machine.
    for app in [app, store_app(&ctx, admission)] {
        let daemon = start(app);
        for _ in 0..3 {
            let (status, body) = roundtrip(daemon.addr, "POST", "/explain", "{\"target\":1}");
            assert_eq!(status, 429);
            assert!(body.contains("\"status\":\"shed\""), "{body}");
        }
        // Non-explain routes are unaffected by shedding.
        let (status, _) = roundtrip(daemon.addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        daemon.stop();
    }
}

#[test]
fn degraded_admission_serves_partial_keys_with_explicit_status() {
    let ctx = loan_ctx(300);
    let alpha = Alpha::new(ALPHA).unwrap();
    // A target whose key needs more than one scan, so the 1-scan degrade
    // budget demonstrably truncates it.
    let budget = WorkBudget::new(1);
    let srk = Srk::new(alpha);
    let target = (0..ctx.len())
        .find(|&t| {
            matches!(
                srk.explain_budgeted(&ctx, t, budget),
                Ok(b) if !b.status.is_complete()
            )
        })
        .expect("some Loan target degrades under a 1-scan budget");
    // degrade_depth = 0 with an unreachable shed_depth: every batch runs
    // under the tiny degrade budget, so responses carry the degraded
    // status honestly instead of silently serving partial keys.
    let admission = AdmissionConfig {
        shed_depth: usize::MAX,
        degrade_depth: 0,
        degrade_budget: 1,
    };
    let app = plain_app(ctx.clone(), BatcherConfig::default(), admission);
    // Store mode takes the same degraded budget; in both modes the
    // partial key is the oracle's under that budget.
    let oracle = explain_response(
        target,
        alpha,
        &srk.explain_naive_budgeted(&ctx, target, budget),
    );
    for app in [app, store_app(&ctx, admission)] {
        let daemon = start(app);
        let (status, body) = roundtrip(
            daemon.addr,
            "POST",
            "/explain",
            &format!("{{\"target\":{target}}}"),
        );
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(body.contains("\"spent\":"), "{body}");
        assert!(body.contains("\"remaining_violators\":"), "{body}");
        assert_eq!(body.as_bytes(), oracle.body, "answer under a 1-scan budget");
        daemon.stop();
    }
}

/// Store-mode ingest feeds the monitor only: the store stays the context
/// `/explain` answers from, so every ack and `/healthz` count its rows
/// and explains do not move.
#[test]
fn store_mode_ingest_feeds_only_the_monitor() {
    let ctx = loan_ctx(200);
    let daemon = start(store_app(&ctx, AdmissionConfig::default()));
    let before = roundtrip(daemon.addr, "POST", "/explain", "{\"target\":0}");
    for r in 1..=3 {
        let values: Vec<String> = ctx
            .instance(r)
            .values()
            .iter()
            .map(|c| c.to_string())
            .collect();
        let body = format!(
            "{{\"values\":[{}],\"prediction\":{}}}",
            values.join(","),
            ctx.prediction(r).0
        );
        let (status, resp) = roundtrip(daemon.addr, "POST", "/monitor/ingest", &body);
        assert_eq!(status, 200, "{resp}");
        assert!(resp.contains(&format!("\"n_seen\":{r}")), "{resp}");
        assert!(resp.contains("\"context_rows\":200"), "{resp}");
    }
    let (status, health) = roundtrip(daemon.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"rows\":200"), "{health}");
    let after = roundtrip(daemon.addr, "POST", "/explain", "{\"target\":0}");
    assert_eq!(after, before, "ingest must not move the store context");
    daemon.stop();
}

#[test]
fn bad_requests_over_the_wire_get_structured_errors() {
    let ctx = loan_ctx(60);
    let app = plain_app(ctx, BatcherConfig::default(), AdmissionConfig::default());
    let daemon = start(app);

    let deep_nest = "[".repeat(80) + &"]".repeat(80);
    let cases = [
        ("POST", "/explain", "not json", 400),
        ("POST", "/explain", "{\"no_target\":1}", 400),
        ("POST", "/explain", "{\"target\":999999}", 400),
        // Hostile JSON bodies: truncated escapes and absurd nesting must
        // be clean 400s (the parser is panic-free on request bytes).
        ("POST", "/explain", "{\"target\": \"\\u12\"}", 400),
        ("POST", "/explain", &deep_nest, 400),
        ("GET", "/explain", "", 405),
        ("POST", "/nope", "{}", 404),
        (
            "POST",
            "/monitor/ingest",
            "{\"values\":[1],\"prediction\":0}",
            400,
        ), // wrong width
    ];
    for (method, path, body, want) in cases {
        let (status, resp) = roundtrip(daemon.addr, method, path, body);
        assert_eq!(status, want, "{method} {path} {body:?} → {resp}");
    }
    daemon.stop();
}

#[test]
fn ingest_acks_and_metrics_flow_end_to_end() {
    let ctx = loan_ctx(90);
    let width = ctx.schema().n_features();
    let app = plain_app(
        ctx.clone(),
        BatcherConfig::default(),
        AdmissionConfig::default(),
    );
    let daemon = start(app);

    for r in 1..6 {
        let values: Vec<String> = ctx
            .instance(r)
            .values()
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(values.len(), width);
        let body = format!(
            "{{\"values\":[{}],\"prediction\":{}}}",
            values.join(","),
            ctx.prediction(r).0
        );
        let (status, resp) = roundtrip(daemon.addr, "POST", "/monitor/ingest", &body);
        assert_eq!(status, 200, "{resp}");
        assert!(resp.contains(&format!("\"n_seen\":{r}")), "{resp}");
        assert!(resp.contains("\"durable\":false"), "plain backend: {resp}");
    }

    let (status, metrics) = roundtrip(daemon.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(!metrics.is_empty());
    for name in [
        "cce_serve_requests_total",
        "cce_serve_request_ns",
        "cce_serve_queue_depth",
        "cce_serve_ingest_acks_total",
    ] {
        assert!(metrics.contains(name), "metrics must carry {name}");
    }
    daemon.stop();
}

/// The tentpole's serving contract: ingested arrivals become part of the
/// live explanation context via in-place deltas (no rebuild), the
/// `--window` bound slides it in ΔI granules, and freshly ingested rows
/// are immediately explainable with results identical to a from-scratch
/// SRK over the live context: the newest `live` arrivals, in order.
#[test]
fn ingested_arrivals_are_immediately_explainable() {
    let initial = loan_ctx(40);
    let pool = loan_ctx(120);
    let alpha = Alpha::new(ALPHA).unwrap();
    let backend: MonitorBackend<MemVfs> = MonitorBackend::Plain(monitor_for(&initial, alpha));
    let schema = initial.schema_arc();
    let mut arrivals: Vec<_> = (0..40)
        .map(|r| (initial.instance(r).clone(), initial.prediction(r)))
        .collect();
    let app = build_app_with(
        initial,
        alpha,
        cce_core::engine::EngineConfig::default(),
        BatcherConfig::default(),
        AdmissionConfig::default(),
        backend,
        Some(LiveWindow {
            capacity: 60,
            delta: 8,
        }),
    );
    let daemon = start(Arc::clone(&app));

    let mut live = 40usize;
    for r in 40..120 {
        let values: Vec<String> = pool
            .instance(r)
            .values()
            .iter()
            .map(|c| c.to_string())
            .collect();
        let body = format!(
            "{{\"values\":[{}],\"prediction\":{}}}",
            values.join(","),
            pool.prediction(r).0
        );
        let (status, resp) = roundtrip(daemon.addr, "POST", "/monitor/ingest", &body);
        assert_eq!(status, 200, "{resp}");
        arrivals.push((pool.instance(r).clone(), pool.prediction(r)));
        // The ack reports the live context; it must never exceed
        // capacity + ΔI and must track our model of the slide exactly.
        live += 1;
        if live > 60 + 8 - 1 {
            live -= 8;
        }
        assert!(resp.contains(&format!("\"context_rows\":{live}")), "{resp}");
    }

    let (status, health) = roundtrip(daemon.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains(&format!("\"rows\":{live}")), "{health}");

    // A row that arrived via ingest is now a servable explain target,
    // and the served bytes match a fresh SRK over the live context.
    let (xs, ps) = arrivals[arrivals.len() - live..].iter().cloned().unzip();
    let ctx = Context::new(schema, xs, ps);
    let srk = Srk::new(alpha);
    for t in [0, live / 2, live - 1] {
        let (status, body) = roundtrip(
            daemon.addr,
            "POST",
            "/explain",
            &format!("{{\"target\":{t}}}"),
        );
        let expected = explain_response(
            t,
            alpha,
            &srk.explain_budgeted(&ctx, t, WorkBudget::unlimited()),
        );
        assert_eq!(status, expected.status, "target {t}");
        assert_eq!(body.into_bytes(), expected.body, "target {t}");
    }
    daemon.stop();
}

/// An ingest carrying a value code beyond its feature's cardinality must
/// be rejected with 400 *before* touching the monitor WAL or the live
/// context — admitting it used to panic the explain worker (the
/// value-addressed seed tables index by code) on the next explain of
/// that row, killing every subsequent `/explain`.
#[test]
fn ingest_rejects_out_of_cardinality_values_without_poisoning_context() {
    let initial = loan_ctx(40);
    let alpha = Alpha::new(ALPHA).unwrap();
    let backend: MonitorBackend<MemVfs> = MonitorBackend::Plain(monitor_for(&initial, alpha));
    let n = initial.schema().n_features();
    let app = build_app_with(
        initial,
        alpha,
        cce_core::engine::EngineConfig::default(),
        BatcherConfig::default(),
        AdmissionConfig::default(),
        backend,
        Some(LiveWindow {
            capacity: 60,
            delta: 8,
        }),
    );
    let daemon = start(Arc::clone(&app));

    // Every feature gets a wildly out-of-range code.
    let values: Vec<String> = (0..n).map(|_| "4096".to_string()).collect();
    let body = format!("{{\"values\":[{}],\"prediction\":0}}", values.join(","));
    let (status, resp) = roundtrip(daemon.addr, "POST", "/monitor/ingest", &body);
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("cardinality"), "{resp}");

    // Nothing was ingested: the monitor saw no arrival, the context is
    // untouched, and explains still work.
    let (status, health) = roundtrip(daemon.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"rows\":40"), "{health}");
    assert!(health.contains("\"ingested\":0"), "{health}");
    let (status, _) = roundtrip(daemon.addr, "POST", "/explain", "{\"target\":0}");
    assert_ne!(status, 500, "explain worker must survive the bad ingest");
    daemon.stop();
}

#[test]
fn drain_refuses_new_ingests_and_exits_cleanly() {
    let ctx = loan_ctx(60);
    let app = plain_app(ctx, BatcherConfig::default(), AdmissionConfig::default());
    let daemon = start(Arc::clone(&app));
    let addr = daemon.addr;

    let (status, body) = roundtrip(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("draining"));
    daemon
        .handle
        .join()
        .expect("server thread exits")
        .expect("drain completes");

    // The handler itself (transport-independent) refuses ingests while
    // draining; explains see a closed queue.
    let ingest = Request {
        method: "POST".into(),
        path: "/monitor/ingest".into(),
        http11: true,
        headers: Vec::new(),
        body: b"{\"values\":[0],\"prediction\":0}".to_vec(),
    };
    assert_eq!(app.handle(&ingest).status, 503);
    let explain = Request {
        method: "POST".into(),
        path: "/explain".into(),
        http11: true,
        headers: Vec::new(),
        body: b"{\"target\":1}".to_vec(),
    };
    assert_eq!(app.handle(&explain).status, 503);

    // And the listener is gone: a fresh connection must fail.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "listener should be closed after drain"
    );
}

/// Each connection runs on its own thread, and an exited thread must
/// give its stack back at once: a join handle kept until drain leaves
/// each closed connection's stack (two map entries: stack and guard
/// page) mapped, and about 32.7k connections then abort the process at
/// the memory-map limit.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_thread_stacks() {
    const REQUESTS: usize = 5000;
    /// Allowed growth of `/proc/self/maps`, in lines: a tenth of what the
    /// leak adds over `REQUESTS` connections, with room for the threads
    /// of tests running beside this one.
    const MAX_GROWTH: usize = 1000;
    let app = plain_app(
        loan_ctx(60),
        BatcherConfig::default(),
        AdmissionConfig::default(),
    );
    let daemon = start(app);
    let healthz = || {
        let (mut stream, mut reader) = connect(daemon.addr);
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("write request");
        let (status, _) = read_response(&mut reader).expect("read response");
        assert_eq!(status, 200);
    };
    let map_lines = || {
        std::fs::read_to_string("/proc/self/maps")
            .expect("read /proc/self/maps")
            .lines()
            .count()
    };
    // Warm-up: the allocator's arenas and cached thread stacks settle.
    for _ in 0..50 {
        healthz();
    }
    let before = map_lines();
    for _ in 0..REQUESTS {
        healthz();
    }
    let after = map_lines();
    assert!(
        after < before + MAX_GROWTH,
        "{REQUESTS} closed connections grew the memory map by {} lines",
        after.saturating_sub(before)
    );
    daemon.stop();
}

/// Slow-client hardening: a client that sends the first bytes of a
/// request and then stalls must be answered `408` and disconnected
/// within the request deadline — before this, one slowloris connection
/// pinned a server thread for as long as it kept trickling bytes.
#[test]
fn stalled_mid_request_client_gets_408_and_the_slot_back() {
    let ctx = loan_ctx(60);
    let app = plain_app(ctx, BatcherConfig::default(), AdmissionConfig::default());
    let cfg = ServerConfig {
        max_connections: 8,
        keep_alive_timeout: Duration::from_secs(5),
        request_deadline: Duration::from_millis(400),
        write_timeout: Duration::from_secs(5),
    };
    let server = Server::bind(Arc::clone(&app), "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());

    // Trickle a partial request: headers begun, never finished.
    let (mut stream, mut reader) = connect(addr);
    stream
        .write_all(b"POST /explain HTTP/1.1\r\nHost: t\r\nContent-Le")
        .expect("partial write");
    stream.flush().unwrap();
    let t0 = std::time::Instant::now();
    let (status, body) = read_response(&mut reader).expect("server must answer the stall");
    assert_eq!(status, 408, "{}", String::from_utf8_lossy(&body));
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "408 must arrive near the deadline, took {:?}",
        t0.elapsed()
    );

    // A stalled *body* (headers complete, content missing) times out the
    // same way — Content-Length promises bytes that never come.
    let (mut stream, mut reader) = connect(addr);
    stream
        .write_all(b"POST /explain HTTP/1.1\r\nHost: t\r\nContent-Length: 12\r\n\r\n{\"tar")
        .expect("partial body");
    stream.flush().unwrap();
    let (status, _) = read_response(&mut reader).expect("stalled body gets a response");
    assert_eq!(status, 408);

    // The server remains fully serviceable afterwards: the stalled
    // connections released their threads.
    let (status, _) = roundtrip(addr, "POST", "/explain", "{\"target\":1}");
    assert_eq!(status, 200);

    // A slow-but-within-deadline request still completes normally.
    let (mut stream, mut reader) = connect(addr);
    stream
        .write_all(b"POST /explain HTTP/1.1\r\nHost: t\r\n")
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    stream
        .write_all(b"Content-Length: 12\r\n\r\n{\"target\":2}")
        .unwrap();
    stream.flush().unwrap();
    let (status, _) = read_response(&mut reader).expect("slow-but-legal request");
    assert_eq!(status, 200);

    let (status, _) = roundtrip(addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean drain");
}

/// The acceptance-criteria test: kill the VFS mid-ingest at several op
/// counts and prove every HTTP-200-acknowledged arrival survives resume.
/// Runs at the handler level (the exact production routing/ack code) so
/// the kill point is deterministic per case.
#[test]
fn kill_during_ingest_preserves_every_acked_arrival() {
    const DIR: &str = "ck";
    const EVERY: u64 = 8;
    let ctx = loan_ctx(100);
    let alpha = Alpha::new(ALPHA).unwrap();
    let mut crashed_cases = 0;

    for kill_after in [3u64, 9, 17, 33, 61, 97] {
        let vfs = MemVfs::with_plan(FaultPlan::crash_after(kill_after), kill_after);
        let durable = match Durable::create(monitor_for(&ctx, alpha), vfs.clone(), DIR, EVERY) {
            Ok(d) => d,
            Err(e) => {
                assert_eq!(e, PersistError::Crashed, "create may only fail by dying");
                crashed_cases += 1;
                continue;
            }
        };
        let app = build_app(
            ctx.clone(),
            alpha,
            BatcherConfig::default(),
            AdmissionConfig::default(),
            MonitorBackend::Durable(durable),
        );

        let mut acked = 0usize;
        for r in 1..ctx.len() {
            let values: Vec<String> = ctx
                .instance(r)
                .values()
                .iter()
                .map(|c| c.to_string())
                .collect();
            let req = Request {
                method: "POST".into(),
                path: "/monitor/ingest".into(),
                http11: true,
                headers: Vec::new(),
                body: format!(
                    "{{\"values\":[{}],\"prediction\":{}}}",
                    values.join(","),
                    ctx.prediction(r).0
                )
                .into_bytes(),
            };
            let resp = app.handle(&req);
            match resp.status {
                200 => {
                    acked += 1;
                    let body = String::from_utf8_lossy(&resp.body).into_owned();
                    assert!(body.contains("\"durable\":true"), "{body}");
                    assert!(body.contains(&format!("\"n_seen\":{acked}")), "{body}");
                }
                500 => break, // durability failure: explicitly NOT acked
                other => panic!("unexpected status {other} mid-ingest"),
            }
        }
        if !vfs.has_crashed() {
            continue; // kill point beyond this stream's op count
        }
        crashed_cases += 1;

        let (recovered, _replayed) =
            Durable::<OsrkMonitor, _>::resume(vfs.into_rebooted(), DIR, EVERY)
                .expect("resume after crash");
        assert!(
            recovered.state().n_seen() >= acked,
            "kill@{kill_after}: {acked} arrivals acknowledged over HTTP but only {} recovered",
            recovered.state().n_seen()
        );
        assert!(
            recovered.state().n_seen() < ctx.len(),
            "recovered state cannot exceed what was sent"
        );
    }
    assert!(
        crashed_cases >= 3,
        "fault plan must actually fire in most cases (fired {crashed_cases})"
    );
}

/// Disk-backed serving: `/explain` answers from a converted store via
/// the page cache, byte-identical to per-request in-RAM explains
/// rendered through the same `explain_response`; `/healthz` surfaces
/// the page-cache counters; and a page that fails its CRC at fault
/// time surfaces as a `500`, never a wrong key.
#[test]
fn store_backed_serving_matches_ram_and_reports_cache() {
    let ctx = loan_ctx(200);
    let alpha = Alpha::new(ALPHA).unwrap();
    let mut vfs = MemVfs::new();
    cce_core::pagestore::write_store(&mut vfs, "loan.pg", &ctx, 4096, &[]).expect("convert");
    let paged =
        cce_core::PagedContextIndex::open(vfs.clone(), "loan.pg", 1 << 22).expect("open store");
    // The live ingest context starts empty over the store's schema —
    // exactly what `cce serve --store` builds.
    let empty = Context::new(Arc::new(ctx.schema().clone()), Vec::new(), Vec::new());
    let backend = MonitorBackend::Plain(monitor_for(&ctx, alpha));
    let app = cce_serve::build_app_paged(
        empty,
        alpha,
        cce_core::engine::EngineConfig::default(),
        BatcherConfig::default(),
        AdmissionConfig::default(),
        backend,
        None,
        paged,
    );
    let daemon = start(app);

    let srk = Srk::new(alpha);
    for target in [0usize, 7, 42, 111, 199] {
        let (status, body) = roundtrip(
            daemon.addr,
            "POST",
            "/explain",
            &format!("{{\"target\":{target}}}"),
        );
        let want = explain_response(
            target,
            alpha,
            &srk.explain_budgeted(&ctx, target, WorkBudget::unlimited()),
        );
        assert_eq!(status, want.status, "target {target}: {body}");
        assert_eq!(
            body,
            String::from_utf8(want.body).unwrap(),
            "target {target}"
        );
    }

    // Out-of-range targets address the *store*, not the (empty) live
    // context, and map to 400.
    let (status, body) = roundtrip(daemon.addr, "POST", "/explain", "{\"target\":100000}");
    assert_eq!(status, 400, "{body}");

    let (status, health) = roundtrip(daemon.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"pagestore\""), "healthz: {health}");
    assert!(health.contains("\"store_rows\":200"), "healthz: {health}");
    assert!(
        !health.contains("\"misses\":0"),
        "explains must have faulted pages: {health}"
    );

    daemon.stop();
}

/// Store explains run in parallel on the connection threads: 8 clients
/// explaining distinct targets at once each get the bytes a
/// per-request in-RAM explain renders through `explain_response`.
#[test]
fn concurrent_store_explains_match_ram_byte_for_byte() {
    let ctx = loan_ctx(240);
    let alpha = Alpha::new(ALPHA).unwrap();
    let daemon = start(store_app(&ctx, AdmissionConfig::default()));
    let addr = daemon.addr;
    let served: Vec<(usize, u16, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                s.spawn(move || {
                    let (mut stream, mut reader) = connect(addr);
                    (client..240)
                        .step_by(8)
                        .map(|t| {
                            let body = format!("{{\"target\":{t}}}");
                            send(&mut stream, "POST", "/explain", &body);
                            let (status, bytes) = read_response(&mut reader).expect("response");
                            (t, status, bytes)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(served.len(), 240);
    let srk = Srk::new(alpha);
    for (t, status, body) in served {
        let want = explain_response(
            t,
            alpha,
            &srk.explain_budgeted(&ctx, t, WorkBudget::unlimited()),
        );
        assert_eq!(status, want.status, "target {t}");
        assert_eq!(body, want.body, "target {t}: served bytes must match RAM");
    }
    daemon.stop();
}

/// Corrupt every page payload *after* the store was opened (MemVfs
/// clones share state, modeling on-disk rot under a running daemon):
/// the CRC catches the first fault and the request maps to `500`.
#[test]
fn store_page_rot_surfaces_as_500_not_wrong_bits() {
    let ctx = loan_ctx(120);
    let alpha = Alpha::new(ALPHA).unwrap();
    let mut vfs = MemVfs::new();
    cce_core::pagestore::write_store(&mut vfs, "loan.pg", &ctx, 4096, &[]).expect("convert");
    let paged =
        cce_core::PagedContextIndex::open(vfs.clone(), "loan.pg", 1 << 22).expect("open store");

    // Flip the first payload byte of every page frame; header and
    // footer stay intact so only fault-time CRCs can object.
    let mut bytes = vfs.read("loan.pg").expect("read").expect("exists");
    let footer_offset = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let mut off = 24;
    while off < footer_offset {
        bytes[off] ^= 0xFF;
        off += 4096 + 4;
    }
    vfs.write("loan.pg", &bytes).expect("rot the shared file");

    let empty = Context::new(Arc::new(ctx.schema().clone()), Vec::new(), Vec::new());
    let backend = MonitorBackend::Plain(monitor_for(&ctx, alpha));
    let app = cce_serve::build_app_paged(
        empty,
        alpha,
        cce_core::engine::EngineConfig::default(),
        BatcherConfig::default(),
        AdmissionConfig::default(),
        backend,
        None,
        paged,
    );
    let daemon = start(app);
    let (status, body) = roundtrip(daemon.addr, "POST", "/explain", "{\"target\":5}");
    assert_eq!(status, 500, "rotted page must 500: {body}");
    assert!(
        body.contains("store failure"),
        "error names the layer: {body}"
    );
    daemon.stop();
}
