//! End-to-end tests of the sharded serving path with real worker
//! processes: the no-fault differential contract (N-shard scatter/gather
//! is **byte-identical** to the single-process engine), ingest routing
//! to owner shards, and the chaos contract (random worker kills
//! mid-traffic never produce a malformed or misleading response, and the
//! supervisor restores full health).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cce_core::persist::MemVfs;
use cce_core::{Alpha, Context, ExplainError, OsrkMonitor, Srk, WorkBudget};
use cce_dataset::{csv, schema_io, synth, BinSpec, Dataset};
use cce_serve::http::read_response;
use cce_serve::json::Json;
use cce_serve::shard::{
    spawn_shards, IngestLog, ShardClient, ShardPolicy, ShardedAnswer, ShardedBackend, WorkerSpec,
};
use cce_serve::{
    build_app_sharded, explain_response, AdmissionConfig, App, BatcherConfig, MonitorBackend,
    Server, ServerConfig,
};

const ALPHA: f64 = 1.0;

/// Serializes the tests that scatter: `cce_shard_scatter_rounds_total`
/// is process-global, and the no-fault test pins its exact growth per
/// answer.
fn scatter_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn scatter_rounds() -> u64 {
    cce_obs::registry()
        .snapshot()
        .counter_total("cce_shard_scatter_rounds_total")
}

fn loan_dataset(rows: usize) -> Dataset {
    synth::loan::generate(rows, 42).encode(&BinSpec::uniform(6))
}

/// Writes the dataset (CSV + schema sidecar) where worker processes can
/// load it, under a per-test unique name.
fn write_data(tag: &str, ds: &Dataset) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cce_shard_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{tag}.csv"));
    std::fs::write(&path, csv::to_csv(ds)).expect("write csv");
    std::fs::write(
        path.with_extension("csv.schema"),
        schema_io::sidecar_to_text(ds.schema(), ds.label_names()),
    )
    .expect("write sidecar");
    path
}

fn worker_spec(data: &Path, shards: usize) -> WorkerSpec {
    WorkerSpec {
        program: PathBuf::from(env!("CARGO_BIN_EXE_cce-shard-worker")),
        args_prefix: Vec::new(),
        data: data.to_string_lossy().into_owned(),
        shards,
    }
}

/// Spawns `shards` real worker processes over `ds` and returns the
/// router backend wired to them.
fn sharded_backend(tag: &str, ds: &Dataset, shards: usize, chaos: bool) -> Arc<ShardedBackend> {
    let policy = ShardPolicy {
        breaker_cooloff: Duration::from_millis(200),
        ..ShardPolicy::default()
    };
    let clients = (0..shards)
        .map(|i| Arc::new(ShardClient::down(i, policy)))
        .collect();
    backend_over(tag, ds, clients, chaos)
}

/// Spawns one real worker process per client over `ds` and returns the
/// router backend wired to them.
fn backend_over(
    tag: &str,
    ds: &Dataset,
    clients: Vec<Arc<ShardClient>>,
    chaos: bool,
) -> Arc<ShardedBackend> {
    let data = write_data(tag, ds);
    let alpha = Alpha::new(ALPHA).expect("valid alpha");
    let shards = clients.len();
    let log = Arc::new(IngestLog::new());
    let handle = spawn_shards(
        worker_spec(&data, shards),
        clients.clone(),
        Arc::clone(&log),
    )
    .expect("spawn shard workers");
    let backend = Arc::new(ShardedBackend::new(
        alpha,
        ds.schema().n_features(),
        clients,
        ds.len() as u64,
        log,
        chaos,
    ));
    backend.set_supervisor(handle);
    backend
}

/// The scatter rounds one answer costs. The lazy driver never adds a
/// gather: one round for the empty key plus one per pick. Unbudgeted,
/// a target with no conformant key is certified from the summed twin
/// counts of the first round; a budgeted run never consults the
/// certificate, so it picks all `n` features first.
fn expected_rounds(
    result: &Result<cce_core::BudgetedKey, ExplainError>,
    n: u64,
    budgeted: bool,
) -> u64 {
    match result {
        Ok(b) => b.key.succinctness() as u64 + 1,
        Err(ExplainError::NoConformantKey { .. }) if budgeted => n + 1,
        Err(ExplainError::NoConformantKey { .. }) => 1,
        Err(e) => panic!("unexpected error {e:?}"),
    }
}

/// The differential acceptance criterion: with every shard healthy, the
/// scatter/gather answer for **every** target — key, status, achieved
/// conformity, and the error cases — renders to exactly the bytes the
/// single-process engine produces.
#[test]
fn no_fault_gather_is_byte_identical_to_single_process() {
    let _serial = scatter_lock();
    // Loan rows alone all have keys at α = 1; a dozen duplicated rows
    // with flipped predictions contradict their originals, so those 24
    // targets have none.
    let mut ds = loan_dataset(240);
    for r in 0..12 {
        let flipped = cce_dataset::Label(u32::from(ds.label(r).0 == 0));
        ds.push(ds.instance(r).clone(), flipped);
    }
    let ctx = Context::from_recorded(&ds);
    let alpha = Alpha::new(ALPHA).unwrap();
    let backend = sharded_backend("diff", &ds, 3, false);
    let n = ds.schema().n_features() as u64;

    let srk = Srk::new(alpha);
    let mut keyless = Vec::new();
    for target in 0..ctx.len() {
        let rounds_before = scatter_rounds();
        let ShardedAnswer::Done {
            result,
            missing_shards,
        } = backend.explain(target as u64, WorkBudget::unlimited())
        else {
            panic!("target {target}: unavailable with every shard healthy");
        };
        assert!(missing_shards.is_empty(), "target {target}: no faults ran");
        assert_eq!(
            scatter_rounds() - rounds_before,
            expected_rounds(&result, n, false),
            "target {target}: scatter rounds"
        );
        if matches!(result, Err(ExplainError::NoConformantKey { .. })) {
            keyless.push(target);
        }
        let got = explain_response(target, alpha, &result);
        let want = explain_response(
            target,
            alpha,
            &srk.explain_budgeted(&ctx, target, WorkBudget::unlimited()),
        );
        assert_eq!(got.status, want.status, "target {target}");
        assert_eq!(
            got.body, want.body,
            "target {target}: sharded bytes must match the single-process render"
        );
    }

    assert!(
        keyless.len() >= 24,
        "the flipped duplicates and their originals are keyless: {keyless:?}"
    );

    // Budgeted degradation decomposes identically too: the router runs
    // the same driver and scan accounting, so the truncation point (and
    // the Degraded status it renders) matches the budgeted oracle. A
    // budget large enough to pick every feature ends a keyless target
    // in the same `NoConformantKey` as the oracle, after n + 1 rounds.
    let cases = [0usize, 17, 101, 239]
        .map(|t| (t, WorkBudget::new(64)))
        .into_iter()
        .chain(keyless.iter().map(|&t| (t, WorkBudget::new(u64::MAX - 1))));
    for (target, budget) in cases {
        let rounds_before = scatter_rounds();
        let ShardedAnswer::Done { result, .. } = backend.explain(target as u64, budget) else {
            panic!("target {target}: unavailable");
        };
        assert_eq!(
            scatter_rounds() - rounds_before,
            expected_rounds(&result, n, true),
            "budgeted target {target}: scatter rounds"
        );
        let got = explain_response(target, alpha, &result);
        let want = explain_response(
            target,
            alpha,
            &srk.explain_naive_budgeted(&ctx, target, budget),
        );
        assert_eq!(got.body, want.body, "budgeted target {target}");
    }

    // Validation errors decompose identically as well.
    let ShardedAnswer::Done { result, .. } =
        backend.explain(ctx.len() as u64 + 7, WorkBudget::unlimited())
    else {
        panic!("out-of-range target must still answer Done(Err)");
    };
    let got = explain_response(ctx.len() + 7, alpha, &result);
    assert_eq!(got.status, 400, "out-of-range target maps to 400");

    backend.stop();
}

/// Rows pushed through the router land on their owner shard and are
/// immediately explainable, matching a single-process engine over the
/// extended context.
#[test]
fn ingested_rows_route_to_owner_shards_and_are_explainable() {
    let _serial = scatter_lock();
    let ds = loan_dataset(120);
    let pool = loan_dataset(160);
    let alpha = Alpha::new(ALPHA).unwrap();
    let backend = sharded_backend("ingest", &ds, 3, false);

    let mut instances = ds.instances().to_vec();
    let mut labels = ds.labels().to_vec();
    for r in 120..160 {
        let x: Vec<u32> = (0..pool.schema().n_features())
            .map(|f| pool.instance(r)[f])
            .collect();
        let pred = pool.label(r).0;
        let (global, total) = backend.push(x, pred);
        assert_eq!(global, r as u64, "global indices are assigned in order");
        assert_eq!(total, r as u64 + 1);
        instances.push(pool.instance(r).clone());
        labels.push(pool.label(r));
    }
    assert_eq!(backend.total_rows(), 160);

    let full = Context::new(ds.schema_arc(), instances, labels);
    let srk = Srk::new(alpha);
    for target in [0usize, 119, 120, 140, 159] {
        let ShardedAnswer::Done {
            result,
            missing_shards,
        } = backend.explain(target as u64, WorkBudget::unlimited())
        else {
            panic!("target {target}: unavailable");
        };
        assert!(missing_shards.is_empty());
        let got = explain_response(target, alpha, &result);
        let want = explain_response(
            target,
            alpha,
            &srk.explain_budgeted(&full, target, WorkBudget::unlimited()),
        );
        assert_eq!(
            got.body, want.body,
            "target {target}: ingested rows must explain identically"
        );
    }
    backend.stop();
}

/// The scatter runs on the caller's thread: once the workers are up,
/// a thousand sharded explains spawn no thread at all.
#[test]
fn sharded_explains_spawn_no_thread() {
    let _serial = scatter_lock();
    let ds = loan_dataset(200);
    let backend = sharded_backend("spawns", &ds, 2, false);
    let spawned = || {
        cce_obs::registry()
            .snapshot()
            .counter_total("cce_threads_spawned_total")
    };
    let before = spawned();
    for i in 0..1000u64 {
        let answer = backend.explain(i * 7 % 200, WorkBudget::unlimited());
        assert!(matches!(answer, ShardedAnswer::Done { .. }), "explain {i}");
    }
    assert_eq!(spawned() - before, 0, "the scatter path spawned threads");
    backend.stop();
}

/// A shard whose partition holds no row of the target's class still
/// answers its round: every row there is a violator and covers nothing.
/// The sums stay byte-identical to the single-process engine.
#[test]
fn a_shard_without_the_targets_class_still_sums_exactly() {
    let _serial = scatter_lock();
    let mut ds = loan_dataset(160);
    // Every row owned by shard 1 is relabeled 0, so class 1 lives on
    // shard 0 alone.
    let labels = (0..ds.len())
        .map(|g| match cce_serve::shard::shard_of(g as u64, 2) {
            1 => cce_dataset::Label(0),
            _ => ds.label(g),
        })
        .collect();
    ds.set_labels(labels);
    let ctx = Context::from_recorded(&ds);
    let alpha = Alpha::new(ALPHA).unwrap();
    let backend = sharded_backend("absent_class", &ds, 2, false);
    let srk = Srk::new(alpha);
    let mut absent = 0;
    for target in 0..ctx.len() {
        absent += usize::from(ctx.prediction(target).0 == 1);
        let ShardedAnswer::Done { result, .. } =
            backend.explain(target as u64, WorkBudget::unlimited())
        else {
            panic!("target {target}: unavailable");
        };
        let got = explain_response(target, alpha, &result);
        let want = explain_response(
            target,
            alpha,
            &srk.explain_naive_budgeted(&ctx, target, WorkBudget::unlimited()),
        );
        assert_eq!(got.body, want.body, "target {target}");
    }
    assert!(absent > 0, "some targets are of the class shard 1 lacks");
    backend.stop();
}

/// Shards that take a request and never answer cost a scatter round one
/// policy window however many of them hang, and the round reports them
/// all at once: the greedy restarts once, over the healthy shards, and
/// answers as the single-process engine does over their rows.
#[test]
fn hung_shards_cost_one_policy_window_and_are_excluded_together() {
    let _serial = scatter_lock();
    let ds = loan_dataset(200);
    let policy = ShardPolicy {
        deadline: Duration::from_millis(300),
        retries: 2,
        backoff: Duration::from_millis(10),
        hedge_after: Some(Duration::from_millis(50)),
        ..ShardPolicy::default()
    };
    // The hedge wait, three attempt deadlines and the two largest
    // backoffs: the most one call can take.
    let window = Duration::from_millis(50 + 3 * 300 + 10 + 20);
    let clients: Vec<Arc<ShardClient>> = (0..4)
        .map(|i| Arc::new(ShardClient::down(i, policy)))
        .collect();
    let backend = backend_over("hung", &ds, clients.clone(), false);
    // Shards 2 and 3 now point at listeners whose connections queue
    // unaccepted: every request is written and never read.
    let hung: Vec<std::net::TcpListener> = (0..2)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    for (client, listener) in clients[2..].iter().zip(&hung) {
        client.set_addr(listener.local_addr().unwrap());
    }
    let owned = |g: usize| cce_serve::shard::shard_of(g as u64, 4) < 2;
    let target = (0..ds.len()).find(|&g| owned(g)).unwrap();

    let t0 = Instant::now();
    let answer = backend.explain(target as u64, WorkBudget::unlimited());
    let took = t0.elapsed();
    let ShardedAnswer::Done {
        result,
        missing_shards,
    } = answer
    else {
        panic!("the target's owner is healthy");
    };
    assert_eq!(missing_shards, vec![2, 3]);
    // Hanging one at a time, or excluding one per restart, would take at
    // least two windows.
    assert!(
        took < window * 3 / 2,
        "two hung shards took {took:?} against a {window:?} window"
    );

    let rows: Vec<usize> = (0..ds.len()).filter(|&g| owned(g)).collect();
    let sub = Context::from_recorded(&ds.select(&rows));
    let local = rows.iter().position(|&g| g == target).unwrap();
    let alpha = Alpha::new(ALPHA).unwrap();
    let want = Srk::new(alpha).explain_naive_budgeted(&sub, local, WorkBudget::unlimited());
    assert_eq!(
        explain_response(target, alpha, &result).body,
        explain_response(target, alpha, &want).body
    );
    backend.stop();
}

// ---------------------------------------------------------------------
// HTTP-level harness for the chaos test.

struct Daemon {
    addr: SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start(app: Arc<App<MemVfs>>) -> Daemon {
    let cfg = ServerConfig {
        max_connections: 64,
        ..ServerConfig::default()
    };
    let server = Server::bind(app, "127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    Daemon { addr, handle }
}

fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write");
    stream.flush().unwrap();
    let (status, bytes) = read_response(&mut reader).expect("read response");
    (status, String::from_utf8(bytes).expect("utf-8 body"))
}

fn sharded_app(ds: &Dataset, backend: Arc<ShardedBackend>) -> Arc<App<MemVfs>> {
    let alpha = Alpha::new(ALPHA).unwrap();
    let ctx = Context::from_recorded(ds);
    let monitor = OsrkMonitor::new(ctx.instance(0).clone(), ctx.prediction(0), alpha, 7);
    // The local engine context is empty — explains go through the
    // scatter/gather router, exactly as `cce serve --shards` wires it.
    let empty = Context::new(ds.schema_arc(), Vec::new(), Vec::new());
    build_app_sharded(
        empty,
        alpha,
        BatcherConfig::default(),
        AdmissionConfig::default(),
        MonitorBackend::Plain(monitor),
        backend,
    )
}

/// The chaos acceptance criterion: while workers are being killed at
/// random mid-traffic, every accepted request still ends in a
/// well-formed answer — a `200`, an explicit partial (`206` with
/// `"degraded":{"missing_shards":[...]}`), a semantic `409`, a `429`
/// shed, or a `503` with a retry hint. Never a `500`, never a hang,
/// never a silent subset posing as a full answer. Afterwards the
/// supervisor restores every shard and full-context byte-identity holds
/// again.
#[test]
fn chaos_kills_mid_scatter_never_break_the_response_contract() {
    let _serial = scatter_lock();
    let quick = std::env::var("CCE_CHAOS_QUICK").is_ok();
    let ds = loan_dataset(200);
    let ctx = Context::from_recorded(&ds);
    let alpha = Alpha::new(ALPHA).unwrap();
    let n_shards = 4;
    let backend = sharded_backend("chaos", &ds, n_shards, true);
    let daemon = start(sharded_app(&ds, Arc::clone(&backend)));

    let (status, health) = roundtrip(daemon.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(
        health.contains(&format!(
            "\"shards\":{{\"total\":{n_shards},\"up\":{n_shards}}}"
        )),
        "all shards up before chaos: {health}"
    );

    // Chaos thread: kill a random worker every 150 ms through the admin
    // endpoint (the same path `cce-load --chaos kill-shard` uses).
    let stop = Arc::new(AtomicBool::new(false));
    let kills = Arc::new(AtomicU32::new(0));
    let chaos = {
        let (stop, kills) = (Arc::clone(&stop), Arc::clone(&kills));
        let addr = daemon.addr;
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(150));
                let (status, body) = roundtrip(addr, "POST", "/admin/chaos/kill-shard", "");
                assert!(
                    status == 200 || status == 503,
                    "kill-shard must answer 200 or 503, got {status}: {body}"
                );
                kills.fetch_add(u32::from(status == 200), Ordering::Relaxed);
            }
        })
    };

    // Traffic: several client threads hammering /explain across the
    // whole target range while shards die and respawn underneath. Each
    // sends its quota and keeps going until the chaos has killed twice,
    // so fast explains cannot finish before the faults begin.
    let reqs_per_thread = if quick { 40 } else { 120 };
    let traffic_deadline = Instant::now() + Duration::from_secs(60);
    let threads = 4;
    let results: Vec<(usize, u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let addr = daemon.addr;
                let rows = ctx.len();
                let kills = &kills;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0.. {
                        if i >= reqs_per_thread && kills.load(Ordering::Relaxed) >= 2 {
                            break;
                        }
                        assert!(
                            Instant::now() < traffic_deadline,
                            "chaos never killed a worker twice"
                        );
                        let target = (t * 53 + i * 17) % rows;
                        let (status, body) = roundtrip(
                            addr,
                            "POST",
                            "/explain",
                            &format!("{{\"target\":{target}}}"),
                        );
                        out.push((target, status, body));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    stop.store(true, Ordering::Relaxed);
    chaos.join().expect("chaos thread");
    let kills = kills.load(Ordering::Relaxed);
    assert!(kills >= 2, "chaos must actually kill workers (got {kills})");

    let mut partials = 0u32;
    let mut unavailable = 0u32;
    for (target, status, body) in &results {
        assert!(
            matches!(status, 200 | 206 | 409 | 429 | 503),
            "target {target}: unexpected status {status}: {body}"
        );
        let doc = Json::parse(body)
            .unwrap_or_else(|e| panic!("target {target}: malformed body ({e}): {body}"));
        match status {
            206 => {
                partials += 1;
                let degraded = doc.get("degraded").expect("206 carries \"degraded\"");
                let missing = degraded
                    .get("missing_shards")
                    .and_then(Json::as_array)
                    .expect("degraded carries missing_shards");
                assert!(!missing.is_empty(), "206 with no missing shards: {body}");
            }
            503 => {
                unavailable += 1;
                assert!(
                    doc.get("missing_shards").is_some() || body.contains("draining"),
                    "503 must name the missing shards: {body}"
                );
            }
            // Full answers over all shards must be byte-identical to
            // the engine — chaos may only *degrade* explicitly.
            200 | 409 if doc.get("degraded").is_none() => {
                let srk = Srk::new(alpha);
                let want = explain_response(
                    *target,
                    alpha,
                    &srk.explain_budgeted(&ctx, *target, WorkBudget::unlimited()),
                );
                assert_eq!(
                    body.as_bytes(),
                    &want.body[..],
                    "target {target}: a non-degraded answer must be the exact engine answer"
                );
            }
            _ => {}
        }
    }
    eprintln!(
        "chaos run: {} requests, {kills} kills, {partials} explicit partials, {unavailable} unavailable",
        results.len()
    );

    // Recovery: the supervisor respawns every shard; within the deadline
    // the daemon reports full health again...
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, health) = roundtrip(daemon.addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        if health.contains(&format!("\"up\":{n_shards}")) && backend.shards_up() == n_shards {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shards never fully respawned: {health}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // ...and full-context byte-identity holds once more.
    let srk = Srk::new(alpha);
    for target in [0usize, 50, 199] {
        let want = explain_response(
            target,
            alpha,
            &srk.explain_budgeted(&ctx, target, WorkBudget::unlimited()),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (status, body) = roundtrip(
                daemon.addr,
                "POST",
                "/explain",
                &format!("{{\"target\":{target}}}"),
            );
            if status == want.status && body.as_bytes() == &want.body[..] {
                break;
            }
            // A straggler respawn can still answer partial for a moment.
            assert!(
                Instant::now() < deadline,
                "target {target}: never converged back to the engine answer (last: {status} {body})"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    let (status, _) = roundtrip(daemon.addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    daemon
        .handle
        .join()
        .expect("server thread")
        .expect("clean drain");
}

/// The chaos endpoint is a 403 without `--chaos` and a 404 when the
/// daemon is not sharded at all — it must never be an open kill switch.
#[test]
fn chaos_endpoint_is_gated() {
    // Serialized with the spawn count: starting a supervisor spawns.
    let _serial = scatter_lock();
    let ds = loan_dataset(60);
    let backend = sharded_backend("gated", &ds, 2, false);
    let daemon = start(sharded_app(&ds, Arc::clone(&backend)));
    let (status, body) = roundtrip(daemon.addr, "POST", "/admin/chaos/kill-shard", "");
    assert_eq!(status, 403, "{body}");
    let (status, _) = roundtrip(daemon.addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    daemon.handle.join().unwrap().unwrap();
}

/// Sharded ingest over HTTP: the ack carries the new global row count,
/// healthz tracks it, and the row is explainable through the router.
#[test]
fn http_ingest_reaches_owner_shard_and_serves() {
    let _serial = scatter_lock();
    let ds = loan_dataset(80);
    let pool = loan_dataset(90);
    let alpha = Alpha::new(ALPHA).unwrap();
    let backend = sharded_backend("http_ingest", &ds, 2, false);
    let daemon = start(sharded_app(&ds, Arc::clone(&backend)));

    let mut instances = ds.instances().to_vec();
    let mut labels = ds.labels().to_vec();
    for r in 80..90 {
        let values: Vec<String> = pool
            .instance(r)
            .values()
            .iter()
            .map(|c| c.to_string())
            .collect();
        let body = format!(
            "{{\"values\":[{}],\"prediction\":{}}}",
            values.join(","),
            pool.label(r).0
        );
        let (status, resp) = roundtrip(daemon.addr, "POST", "/monitor/ingest", &body);
        assert_eq!(status, 200, "{resp}");
        assert!(
            resp.contains(&format!("\"context_rows\":{}", r + 1)),
            "{resp}"
        );
        instances.push(pool.instance(r).clone());
        labels.push(pool.label(r));
    }

    let (status, health) = roundtrip(daemon.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(health.contains("\"rows\":90"), "{health}");

    let full = Context::new(ds.schema_arc(), instances, labels);
    let srk = Srk::new(alpha);
    for target in [0usize, 80, 89] {
        let (status, body) = roundtrip(
            daemon.addr,
            "POST",
            "/explain",
            &format!("{{\"target\":{target}}}"),
        );
        let want = explain_response(
            target,
            alpha,
            &srk.explain_budgeted(&full, target, WorkBudget::unlimited()),
        );
        assert_eq!(status, want.status, "target {target}: {body}");
        assert_eq!(body.into_bytes(), want.body, "target {target}");
    }

    let (status, _) = roundtrip(daemon.addr, "POST", "/admin/shutdown", "");
    assert_eq!(status, 200);
    daemon.handle.join().unwrap().unwrap();
}
