//! `cce-load` — the load generator for `cce serve`.
//!
//! Closed-loop mode (default) runs a sweep of concurrency points: each
//! point opens `conns` keep-alive connections and has every connection
//! issue `requests` back-to-back `POST /explain` calls. Open-loop mode
//! (`--rate`) paces request *starts* on a fixed schedule regardless of
//! response times, so queueing delay shows up in the measured latency
//! instead of silently throttling the offered load (the coordinated-
//! omission trap closed-loop testers fall into).
//!
//! Per-request latency is kept as an **exact sample set** per load point
//! and summarized with nearest-rank percentiles (`rank = ⌈q·n⌉`,
//! clamped to `[1, n]`) — a log2-bucketed histogram's bucket bounds
//! systematically bias p50/p99, and a rounded `(n-1)·q` index reads
//! *below* the order statistic the percentile names. The report carries
//! throughput, percentiles, and a status breakdown. Any `5xx` — or any
//! 4xx other than the *expected* 409 (no conformant key) and 429
//! (shed) — makes the process exit nonzero, which is what the CI smoke
//! job keys off.
//! `--baseline` compares throughput against a committed
//! `BENCH_serve.json` with a deliberately loose 50% tolerance (shared
//! CI runners), mirroring the `exp_bench_batch` pattern — and fails
//! *loudly* on a malformed baseline (shape mismatch, zero/NaN fields)
//! instead of silently passing.

use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cce_serve::http::read_response;
use cce_serve::json::Json;

/// Status-class tallies for one load point.
///
/// `409` gets its own bucket: `/explain` answers 409 when the target has
/// **no conformant key** (a contradictory row at the serving α) — a
/// legitimate semantic outcome of the dataset, not a client mistake.
/// The deterministic target mix reliably hits a few such rows, and
/// before this split they were indistinguishable from real protocol
/// errors in the `4xx` bucket. What remains in `s4xx` is *unexpected*
/// (malformed request, bad route, out-of-range target) and fails the
/// run just like a 5xx.
#[derive(Default)]
struct StatusCounts {
    s2xx: AtomicU64,
    s409: AtomicU64,
    s429: AtomicU64,
    s4xx: AtomicU64,
    s503: AtomicU64,
    s5xx: AtomicU64,
    /// Requests that never produced a response within `--timeout`, even
    /// after `--retries` fresh-connection attempts. Kept apart from
    /// `s5xx`: a timeout is a *client-side* verdict about latency, not a
    /// server protocol answer, and conflating the two made every slow
    /// run read as a server-error run.
    timeouts: AtomicU64,
}

impl StatusCounts {
    fn record(&self, status: u16) {
        let slot = match status {
            200..=299 => &self.s2xx,
            409 => &self.s409,
            429 => &self.s429,
            400..=499 => &self.s4xx,
            // 503 is the sharded router's explicit "target's shard is
            // down, retry shortly" answer — expected under chaos,
            // a capacity failure otherwise. Its own bucket lets the
            // exit policy tell those cases apart.
            503 => &self.s503,
            _ => &self.s5xx,
        };
        slot.fetch_add(1, Ordering::Relaxed);
    }
}

/// Client-side retry policy: per-request read timeout, retry budget, and
/// exponential backoff with **full jitter** (uniform in
/// `[0, backoff·2^attempt]`) so retried requests from many connections
/// don't re-synchronize into waves against a recovering server.
#[derive(Clone, Copy)]
struct RetryPolicy {
    timeout: Duration,
    retries: u32,
    backoff: Duration,
}

fn full_jitter(base: Duration, attempt: u32) -> Duration {
    static SALT: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);
    let mut z = SALT
        .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
        .wrapping_add(u64::from(std::process::id()));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let cap = base.saturating_mul(1u32 << attempt.min(16));
    if cap.is_zero() {
        return cap;
    }
    Duration::from_nanos(z % u64::try_from(cap.as_nanos()).unwrap_or(u64::MAX).max(1))
}

/// A lazily (re)established keep-alive connection. Any I/O failure
/// tears it down: a stream that timed out mid-response has unknowable
/// framing state and must never be reused.
struct Conn {
    addr: String,
    timeout: Duration,
    inner: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    fn new(addr: &str, timeout: Duration) -> Self {
        Self {
            addr: addr.to_string(),
            timeout,
            inner: None,
        }
    }

    fn try_explain(&mut self, target: u64) -> io::Result<u16> {
        let addr = self.addr.clone();
        if self.inner.is_none() {
            let (stream, reader) = connect(&addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            self.inner = Some((stream, reader));
        }
        let (stream, reader) = self.inner.as_mut().expect("just established");
        let r = explain_once(stream, reader, &addr, target);
        if r.is_err() {
            self.inner = None;
        }
        r
    }
}

/// One logical request under the retry policy. `Ok(Some(status))` is a
/// server answer; `Ok(None)` means every attempt timed out (each one
/// already tallied in `counts.timeouts`); `Err` is a non-timeout
/// transport failure that survived the whole retry budget.
fn explain_retrying(
    conn: &mut Conn,
    target: u64,
    policy: RetryPolicy,
    counts: &StatusCounts,
) -> io::Result<Option<u16>> {
    for attempt in 0..=policy.retries {
        match conn.try_explain(target) {
            Ok(status) => return Ok(Some(status)),
            Err(e) => {
                let timed_out = matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                );
                if timed_out {
                    counts.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                if attempt == policy.retries {
                    return if timed_out { Ok(None) } else { Err(e) };
                }
                std::thread::sleep(full_jitter(policy.backoff, attempt));
            }
        }
    }
    unreachable!("loop returns on the final attempt")
}

/// One measured load point, as it lands in `BENCH_serve.json`.
struct PointReport {
    mode: &'static str,
    conns: usize,
    requests: u64,
    offered_rps: Option<f64>,
    wall_ms: f64,
    throughput_rps: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    mean_us: f64,
    s2xx: u64,
    s409: u64,
    s429: u64,
    s4xx: u64,
    s503: u64,
    s5xx: u64,
    timeouts: u64,
}

fn post(stream: &mut TcpStream, addr: &str, path: &str, body: &str) -> io::Result<()> {
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

fn connect(addr: &str) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// One round-trip on an established connection; returns the status.
fn explain_once(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    addr: &str,
    target: u64,
) -> io::Result<u16> {
    post(
        stream,
        addr,
        "/explain",
        &format!("{{\"target\":{target}}}"),
    )?;
    let (status, _body) = read_response(reader).map_err(|e| io::Error::other(format!("{e:?}")))?;
    Ok(status)
}

/// Asks `/healthz` for the context size so targets stay in range.
fn fetch_rows(addr: &str) -> io::Result<u64> {
    let (mut stream, mut reader) = connect(addr)?;
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let (status, body) =
        read_response(&mut reader).map_err(|e| io::Error::other(format!("{e:?}")))?;
    if status != 200 {
        return Err(io::Error::other(format!("healthz returned {status}")));
    }
    let text = String::from_utf8_lossy(&body).into_owned();
    let doc = Json::parse(&text).map_err(|e| io::Error::other(format!("healthz body: {e}")))?;
    doc.get("rows")
        .and_then(Json::as_u64)
        .ok_or_else(|| io::Error::other("healthz body has no \"rows\""))
}

/// Closed loop: `conns` connections, each sending `per_conn` requests
/// back to back. Returns the report for this point.
fn run_closed(
    addr: &str,
    rows: u64,
    conns: usize,
    per_conn: u64,
    policy: RetryPolicy,
) -> io::Result<PointReport> {
    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let counts = StatusCounts::default();
    let issued = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| -> io::Result<()> {
        let mut handles = Vec::new();
        for c in 0..conns {
            let (samples, counts, issued) = (&samples, &counts, &issued);
            handles.push(s.spawn(move || -> io::Result<()> {
                let mut conn = Conn::new(addr, policy.timeout);
                // Batch into a local buffer; one lock per connection.
                let mut local = Vec::with_capacity(per_conn as usize);
                for i in 0..per_conn {
                    // Deterministic target mix with enough repeats to
                    // exercise cross-request memoization.
                    let target = (c as u64 * 131 + i * 7) % rows;
                    let r0 = Instant::now();
                    if let Some(status) = explain_retrying(&mut conn, target, policy, counts)? {
                        local.push(r0.elapsed().as_nanos() as u64);
                        counts.record(status);
                        issued.fetch_add(1, Ordering::Relaxed);
                    }
                }
                samples.lock().unwrap().extend(local);
                Ok(())
            }));
        }
        for h in handles {
            h.join().expect("load worker panicked")?;
        }
        Ok(())
    })?;
    Ok(report(
        "closed",
        conns,
        None,
        samples.into_inner().unwrap(),
        &counts,
        issued.load(Ordering::Relaxed),
        t0.elapsed(),
    ))
}

/// Open loop: request starts are paced at `rate` per second across a
/// worker pool; latency is measured from the *scheduled* start, so a
/// slow server accrues queueing delay instead of shrinking the load.
fn run_open(
    addr: &str,
    rows: u64,
    rate: f64,
    total: u64,
    workers: usize,
    policy: RetryPolicy,
) -> io::Result<PointReport> {
    let samples: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let counts = StatusCounts::default();
    let issued = AtomicU64::new(0);
    let next = Arc::new(AtomicU64::new(0));
    let interval = Duration::from_secs_f64(1.0 / rate.max(0.001));
    let t0 = Instant::now();
    std::thread::scope(|s| -> io::Result<()> {
        let mut handles = Vec::new();
        for _ in 0..workers {
            let (samples, counts, issued, next) = (&samples, &counts, &issued, Arc::clone(&next));
            handles.push(s.spawn(move || -> io::Result<()> {
                let mut conn = Conn::new(addr, policy.timeout);
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        samples.lock().unwrap().extend(local);
                        return Ok(());
                    }
                    let scheduled = t0 + interval.mul_f64(i as f64);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let target = (i * 13) % rows;
                    if let Some(status) = explain_retrying(&mut conn, target, policy, counts)? {
                        local.push(scheduled.elapsed().as_nanos() as u64);
                        counts.record(status);
                        issued.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("load worker panicked")?;
        }
        Ok(())
    })?;
    Ok(report(
        "open",
        workers,
        Some(rate),
        samples.into_inner().unwrap(),
        &counts,
        issued.load(Ordering::Relaxed),
        t0.elapsed(),
    ))
}

fn report(
    mode: &'static str,
    conns: usize,
    offered_rps: Option<f64>,
    mut samples_ns: Vec<u64>,
    counts: &StatusCounts,
    requests: u64,
    wall: Duration,
) -> PointReport {
    samples_ns.sort_unstable();
    let us = |q: f64| cce_obs::nearest_rank(&samples_ns, q) as f64 / 1_000.0;
    let mean_us = if samples_ns.is_empty() {
        0.0
    } else {
        samples_ns.iter().sum::<u64>() as f64 / samples_ns.len() as f64 / 1_000.0
    };
    PointReport {
        mode,
        conns,
        requests,
        offered_rps,
        wall_ms: wall.as_secs_f64() * 1_000.0,
        throughput_rps: requests as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: us(0.5),
        p90_us: us(0.9),
        p99_us: us(0.99),
        mean_us,
        s2xx: counts.s2xx.load(Ordering::Relaxed),
        s409: counts.s409.load(Ordering::Relaxed),
        s429: counts.s429.load(Ordering::Relaxed),
        s4xx: counts.s4xx.load(Ordering::Relaxed),
        s503: counts.s503.load(Ordering::Relaxed),
        s5xx: counts.s5xx.load(Ordering::Relaxed),
        timeouts: counts.timeouts.load(Ordering::Relaxed),
    }
}

fn render_json(addr: &str, rows: u64, points: &[PointReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"cce-serve load\",\n");
    out.push_str(&format!(
        "  \"addr\": \"{addr}\",\n  \"rows\": {rows},\n  \"load_points\": [\n"
    ));
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"conns\": {}, \"requests\": {}, ",
            p.mode, p.conns, p.requests
        ));
        if let Some(r) = p.offered_rps {
            out.push_str(&format!("\"offered_rps\": {r:.1}, "));
        }
        out.push_str(&format!(
            "\"wall_ms\": {:.1}, \"throughput_rps\": {:.1}, \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"mean_us\": {:.1}, \"status\": {{\"2xx\": {}, \"409\": {}, \"429\": {}, \"4xx\": {}, \"503\": {}, \"5xx\": {}, \"timeouts\": {}}}}}",
            p.wall_ms, p.throughput_rps, p.p50_us, p.p90_us, p.p99_us, p.mean_us,
            p.s2xx, p.s409, p.s429, p.s4xx, p.s503, p.s5xx, p.timeouts
        ));
        if i + 1 < points.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn shutdown(addr: &str) -> io::Result<u16> {
    let (mut stream, mut reader) = connect(addr)?;
    post(&mut stream, addr, "/admin/shutdown", "")?;
    let (status, _) = read_response(&mut reader).map_err(|e| io::Error::other(format!("{e:?}")))?;
    Ok(status)
}

const USAGE: &str = "usage: cce-load --addr HOST:PORT [--conns 1,8] [--requests N] \
[--rate RPS --total N [--workers W]] [--timeout MS] [--retries N] [--backoff-ms MS] \
[--chaos kill-shard [--chaos-interval-ms MS]] \
[--out BENCH_serve.json] [--baseline FILE] [--shutdown]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let Some(addr) = opt("--addr") else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let conns: Vec<usize> = opt("--conns")
        .unwrap_or_else(|| "1,8".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&c| c > 0)
        .collect();
    let per_conn: u64 = opt("--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let rate: Option<f64> = opt("--rate").and_then(|v| v.parse().ok());
    let total: u64 = opt("--total").and_then(|v| v.parse().ok()).unwrap_or(500);
    let workers: usize = opt("--workers").and_then(|v| v.parse().ok()).unwrap_or(16);
    let out_path = opt("--out");
    let baseline_path = opt("--baseline");
    let policy = RetryPolicy {
        timeout: Duration::from_millis(
            opt("--timeout")
                .and_then(|v| v.parse().ok())
                .unwrap_or(30_000),
        ),
        retries: opt("--retries").and_then(|v| v.parse().ok()).unwrap_or(0),
        backoff: Duration::from_millis(
            opt("--backoff-ms")
                .and_then(|v| v.parse().ok())
                .unwrap_or(100),
        ),
    };
    let chaos_mode = opt("--chaos");
    let chaos_interval: u64 = opt("--chaos-interval-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(250);
    if let Some(mode) = chaos_mode.as_deref() {
        if mode != "kill-shard" {
            eprintln!("unknown --chaos mode {mode:?} (supported: kill-shard)");
            return ExitCode::from(2);
        }
    }

    let rows = match fetch_rows(&addr) {
        Ok(r) if r > 0 => r,
        Ok(_) => {
            eprintln!("server reports an empty context; nothing to explain");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("cannot reach {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("target range: 0..{rows}");

    // Chaos: a background thread killing a random shard on a fixed
    // cadence while the load runs — the router must keep every accepted
    // request well-formed (200 / 206-partial / 409 / 429 / 503-retry).
    let chaos_stop = Arc::new(AtomicBool::new(false));
    let chaos_thread = chaos_mode.as_deref().map(|_| {
        let addr = addr.clone();
        let stop = Arc::clone(&chaos_stop);
        std::thread::spawn(move || -> u64 {
            let mut kills = 0u64;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(chaos_interval));
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok((mut stream, mut reader)) = connect(&addr) else {
                    continue;
                };
                if post(&mut stream, &addr, "/admin/chaos/kill-shard", "").is_err() {
                    continue;
                }
                match read_response(&mut reader) {
                    Ok((200, _)) => kills += 1,
                    Ok((status, _)) if kills == 0 => {
                        eprintln!("chaos: kill-shard returned {status} (daemon not sharded, or started without --chaos?)");
                    }
                    _ => {}
                }
            }
            kills
        })
    });

    let mut points = Vec::new();
    if rate.is_none() {
        for &c in &conns {
            eprint!("closed loop, {c} conns x {per_conn} reqs ... ");
            match run_closed(&addr, rows, c, per_conn, policy) {
                Ok(p) => {
                    eprintln!(
                        "{:.1} req/s, p50 {:.0}us, p99 {:.0}us, 2xx {} / 409 {} / 429 {} / 4xx {} / 503 {} / 5xx {} / timeouts {}",
                        p.throughput_rps, p.p50_us, p.p99_us, p.s2xx, p.s409, p.s429, p.s4xx, p.s503, p.s5xx, p.timeouts
                    );
                    points.push(p);
                }
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if let Some(r) = rate {
        eprint!("open loop, {r:.0} req/s offered, {total} reqs over {workers} workers ... ");
        match run_open(&addr, rows, r, total, workers, policy) {
            Ok(p) => {
                eprintln!(
                    "{:.1} req/s achieved, p50 {:.0}us, p99 {:.0}us (from scheduled start)",
                    p.throughput_rps, p.p50_us, p.p99_us
                );
                points.push(p);
            }
            Err(e) => {
                eprintln!("FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    chaos_stop.store(true, Ordering::Relaxed);
    if let Some(t) = chaos_thread {
        match t.join() {
            Ok(kills) => eprintln!("chaos: {kills} shard kills injected"),
            Err(_) => eprintln!("chaos thread panicked"),
        }
    }

    let json = render_json(&addr, rows, &points);
    print!("{json}");
    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    if flag("--shutdown") {
        match shutdown(&addr) {
            Ok(status) => eprintln!("shutdown: {status}"),
            Err(e) => eprintln!("shutdown request failed (already drained?): {e}"),
        }
    }

    let total_5xx: u64 = points.iter().map(|p| p.s5xx).sum();
    if total_5xx > 0 {
        eprintln!("FAIL: {total_5xx} server errors (non-503 5xx) observed");
        return ExitCode::FAILURE;
    }
    // 503 is the sharded router's explicit "shard down, retry" answer —
    // the designed outcome when chaos is killing workers, but a capacity
    // or availability failure in a run that promised a healthy server.
    let total_503: u64 = points.iter().map(|p| p.s503).sum();
    if total_503 > 0 && chaos_mode.is_none() {
        eprintln!("FAIL: {total_503} service-unavailable (503) answers without --chaos");
        return ExitCode::FAILURE;
    }
    // 409 (no conformant key) and 429 (shed) are expected under this
    // workload; anything else in the 4xx range means the generator sent
    // a request the server rejected — a protocol bug on one side or the
    // other, and just as fatal as a 5xx. Timeouts are reported but never
    // fatal: they are a latency verdict, not a protocol error.
    let total_4xx: u64 = points.iter().map(|p| p.s4xx).sum();
    if total_4xx > 0 {
        eprintln!("FAIL: {total_4xx} unexpected client errors (non-409/429 4xx) observed");
        return ExitCode::FAILURE;
    }
    if let Some(path) = baseline_path {
        match std::fs::read_to_string(&path) {
            Ok(baseline) => {
                // A >50% throughput drop fails: loose on purpose, since
                // serve throughput on shared runners is far noisier than
                // the in-process batch bench.
                if cce_obs::check_key(&json, &baseline, "throughput_rps", 0.5) > 0 {
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                // An explicitly requested gate with no reference data is
                // a failure, not a skip — otherwise a renamed baseline
                // file silently disables the check forever.
                eprintln!("GATE FAILURE: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 409 must land in its own bucket — it is a semantic "no conformant
    /// key" answer, not a protocol error — while every other 4xx stays
    /// in the bucket that fails the run.
    #[test]
    fn status_counts_split_409_from_unexpected_4xx() {
        let c = StatusCounts::default();
        for s in [200, 200, 206, 409, 429, 400, 404, 422, 500, 503] {
            c.record(s);
        }
        // 206 (explicit partial under shard loss) is a success class.
        assert_eq!(c.s2xx.load(Ordering::Relaxed), 3);
        assert_eq!(c.s409.load(Ordering::Relaxed), 1);
        assert_eq!(c.s429.load(Ordering::Relaxed), 1);
        assert_eq!(c.s4xx.load(Ordering::Relaxed), 3);
        assert_eq!(c.s503.load(Ordering::Relaxed), 1);
        assert_eq!(c.s5xx.load(Ordering::Relaxed), 1);
    }

    /// Full jitter stays within `[0, base·2^attempt]` and actually
    /// varies — synchronized retry waves are what it exists to break.
    #[test]
    fn full_jitter_is_bounded_and_varies() {
        let base = Duration::from_millis(10);
        let mut distinct = std::collections::HashSet::new();
        for attempt in 0..4u32 {
            let cap = base * (1 << attempt);
            for _ in 0..50 {
                let j = full_jitter(base, attempt);
                assert!(j <= cap, "jitter {j:?} above cap {cap:?}");
                distinct.insert(j.as_nanos());
            }
        }
        assert!(distinct.len() > 10, "jitter must vary, got {distinct:?}");
        // Zero base (backoff disabled) never sleeps.
        assert_eq!(full_jitter(Duration::ZERO, 3), Duration::ZERO);
    }
}
