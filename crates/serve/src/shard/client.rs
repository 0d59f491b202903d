//! The per-shard client: connection pool, deadlines, budgeted retries
//! with full-jitter backoff, one hedged request, and a half-open circuit
//! breaker.
//!
//! Call outcomes feed the breaker: enough consecutive failures open it,
//! an open breaker fails calls instantly (the router then treats the
//! shard as missing and answers partially), and after a cooloff one
//! half-open probe decides between closing it again and re-opening.
//! Because every wire request is stateless, a hedge — a duplicate of a
//! slow in-flight request on a second connection — is always safe; the
//! first answer wins and the loser's connection is dropped. Calls run on
//! the caller's thread, the hedge race too, so no call spawns a thread;
//! [`call_all`] runs one call per shard in lockstep, so a scatter round
//! waits at most one policy window however many shards hang.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::wire::{read_frame, write_frame, Req, Resp};

/// Failure-handling knobs, shared by every shard client.
#[derive(Debug, Clone, Copy)]
pub struct ShardPolicy {
    /// Per-attempt deadline (connect + round trip).
    pub deadline: Duration,
    /// Extra attempts after the first (each opens a fresh connection).
    pub retries: u32,
    /// Base backoff between attempts; attempt `k` sleeps a uniformly
    /// random duration in `[0, base·2^k]` (full jitter).
    pub backoff: Duration,
    /// How long the primary attempt may stay silent before one hedged
    /// duplicate is fired. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Consecutive failures that open the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects calls before allowing a probe.
    pub breaker_cooloff: Duration,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self {
            deadline: Duration::from_millis(2_000),
            retries: 2,
            backoff: Duration::from_millis(10),
            hedge_after: Some(Duration::from_millis(200)),
            breaker_threshold: 3,
            breaker_cooloff: Duration::from_millis(500),
        }
    }
}

/// Why a call (all attempts included) failed.
#[derive(Debug)]
pub enum CallError {
    /// The shard is known-down (no address — worker dead, respawn
    /// pending) — failing fast, no attempt was made.
    Down,
    /// The breaker is open — failing fast, no attempt was made.
    BreakerOpen,
    /// Every attempt failed; the last transport error.
    Exhausted(io::Error),
    /// The worker answered with an application-level error.
    Rejected(String),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Down => write!(f, "shard is down"),
            CallError::BreakerOpen => write!(f, "circuit breaker open"),
            CallError::Exhausted(e) => write!(f, "all attempts failed: {e}"),
            CallError::Rejected(m) => write!(f, "worker rejected request: {m}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// Half-open circuit breaker. All transitions happen under one mutex;
/// the hot path is a single lock round-trip per call.
struct Breaker {
    state: Mutex<(BreakerState, Instant)>,
    consecutive: AtomicU32,
    threshold: u32,
    cooloff: Duration,
}

impl Breaker {
    fn new(threshold: u32, cooloff: Duration) -> Self {
        Self {
            state: Mutex::new((BreakerState::Closed, Instant::now())),
            consecutive: AtomicU32::new(0),
            threshold: threshold.max(1),
            cooloff,
        }
    }

    /// May a call proceed right now? An open breaker past its cooloff
    /// converts to half-open and admits exactly this caller as the probe.
    fn admit(&self) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match st.0 {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                if st.1.elapsed() >= self.cooloff {
                    st.0 = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_success(&self) {
        self.consecutive.store(0, Ordering::SeqCst);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.0 = BreakerState::Closed;
    }

    fn on_failure(&self) -> BreakerState {
        let n = self.consecutive.fetch_add(1, Ordering::SeqCst) + 1;
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.0 == BreakerState::HalfOpen || n >= self.threshold {
            st.0 = BreakerState::Open;
            st.1 = Instant::now();
        }
        st.0
    }

    fn gauge_value(&self) -> i64 {
        match self.state.lock().unwrap_or_else(|e| e.into_inner()).0 {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// Full-jitter sleep duration: uniform in `[0, cap]`, where
/// `cap = base · 2^attempt`. Randomness is a splitmix64 stream over a
/// process-global counter mixed with the process id — no RNG dependency.
fn full_jitter(base: Duration, attempt: u32) -> Duration {
    static SALT: AtomicU64 = AtomicU64::new(0x5bf0_3635);
    let cap = base.saturating_mul(1u32 << attempt.min(10));
    if cap.is_zero() {
        return cap;
    }
    let z = super::splitmix64(
        SALT.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(std::process::id() as u64),
    );
    cap.mul_f64((z >> 11) as f64 / (1u64 << 53) as f64)
}

/// One shard's client state. Lives in an [`Arc`](std::sync::Arc) shared
/// by the router and the supervisor (which swaps the address on
/// respawn).
pub struct ShardClient {
    id: usize,
    /// `None` while the worker is down (supervisor clears it on death,
    /// restores it after respawn + replay).
    addr: Mutex<Option<SocketAddr>>,
    pool: Mutex<Vec<TcpStream>>,
    breaker: Breaker,
    policy: ShardPolicy,
}

impl ShardClient {
    /// A client for shard `id` at `addr`.
    #[must_use]
    pub fn new(id: usize, addr: SocketAddr, policy: ShardPolicy) -> Self {
        Self {
            addr: Mutex::new(Some(addr)),
            ..Self::down(id, policy)
        }
    }

    /// A client for shard `id` with no worker yet (the supervisor points
    /// it at one via [`ShardClient::set_addr`] once spawned).
    #[must_use]
    pub fn down(id: usize, policy: ShardPolicy) -> Self {
        Self {
            id,
            addr: Mutex::new(None),
            pool: Mutex::new(Vec::new()),
            breaker: Breaker::new(policy.breaker_threshold, policy.breaker_cooloff),
            policy,
        }
    }

    /// The current worker address, if the shard is up.
    #[must_use]
    pub fn addr(&self) -> Option<SocketAddr> {
        *self.addr.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// True when the shard has a live address — the router's definition
    /// of "worth scattering to" (an open breaker fails the call fast).
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.addr().is_some()
    }

    /// Marks the shard down (worker died). Calls fail fast until
    /// [`ShardClient::set_addr`] restores it.
    pub fn set_down(&self) {
        *self.addr.lock().unwrap_or_else(|e| e.into_inner()) = None;
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.publish_breaker();
    }

    /// Points the client at a (re)spawned worker and resets the breaker.
    pub fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock().unwrap_or_else(|e| e.into_inner()) = Some(addr);
        self.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.breaker.on_success();
        self.publish_breaker();
    }

    fn publish_breaker(&self) {
        let v = if self.is_up() {
            self.breaker.gauge_value()
        } else {
            2 // down reads as open: the router skips it either way
        };
        cce_obs::registry()
            .gauge(
                "cce_shard_breaker_state",
                &[("shard", &self.id.to_string())],
            )
            .set(v);
    }

    fn checkout(&self, addr: SocketAddr) -> io::Result<TcpStream> {
        if let Some(s) = self.pool.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            return Ok(s);
        }
        let s = TcpStream::connect_timeout(&addr, self.policy.deadline)?;
        s.set_nodelay(true)?;
        s.set_write_timeout(Some(self.policy.deadline))?;
        Ok(s)
    }

    fn checkin(&self, s: TcpStream) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < 8 {
            pool.push(s);
        }
    }

    /// Writes `payload` on a connection, returning it to wait on.
    fn write_on(&self, addr: SocketAddr, payload: &[u8]) -> io::Result<TcpStream> {
        let mut stream = self.checkout(addr)?;
        write_frame(&mut stream, payload)?;
        Ok(stream)
    }

    /// Reads one answer under the per-attempt deadline; the connection
    /// goes back to the pool only after a whole frame (one poisoned
    /// mid-frame is dropped).
    fn read_answer(&self, mut stream: TcpStream) -> io::Result<Resp> {
        stream.set_read_timeout(Some(self.policy.deadline))?;
        let resp = Resp::decode(&read_frame(&mut stream)?)?;
        self.checkin(stream);
        Ok(resp)
    }

    /// Issues `req`, applying the whole policy: breaker admission, per
    /// attempt deadlines, budgeted retries with full-jitter backoff, and
    /// (for the first attempt) one hedged duplicate if the primary stays
    /// silent past `hedge_after`. This is [`call_all`] over one client.
    ///
    /// # Errors
    /// [`CallError`] when the shard is down, the breaker is open, the
    /// worker rejected the request, or every attempt failed.
    pub fn call(&self, req: &Req) -> Result<Resp, CallError> {
        call_all(&[self], req).remove(0)
    }

    /// Writes one attempt of `payload`, unless the shard has no address
    /// or, for a call's first attempt (`admit`), its breaker refuses.
    fn attempt(&self, payload: &[u8], admit: bool) -> Result<Attempt<'_>, CallError> {
        let addr = self.addr().ok_or(CallError::Down)?;
        if admit && !self.breaker.admit() {
            cce_obs::counter!("cce_shard_breaker_rejected_total").inc();
            return Err(CallError::BreakerOpen);
        }
        let (legs, err) = match self.write_on(addr, payload) {
            Ok(stream) => (vec![(false, stream)], None),
            Err(e) => (Vec::new(), Some(e)),
        };
        Ok(Attempt {
            client: self,
            addr,
            sent: Instant::now(),
            legs,
            hedged: false,
            answer: None,
            err,
        })
    }
}

/// Issues `req` to every client at once and returns their answers in
/// order, all on the caller's thread. Each call keeps its client's whole
/// policy, and the calls advance in lockstep, so a round in which
/// several shards stay silent costs one policy window, not one per
/// shard: every first attempt is written before any is read; each
/// primary is waited on alone up to its hedge time, then every call
/// still silent fires its hedge, then each races its legs until its
/// attempt deadline; each retry stage then sleeps every failed call's
/// own full-jitter backoff, writes all of their retries, and waits on
/// each.
pub(crate) fn call_all(clients: &[&ShardClient], req: &Req) -> Vec<Result<Resp, CallError>> {
    let payload = req.encode();
    let mut calls: Vec<_> = clients.iter().map(|c| c.attempt(&payload, true)).collect();
    for a in calls.iter_mut().flatten() {
        a.race(a.sent + a.client.policy.hedge_after.unwrap_or_default());
    }
    for a in calls.iter_mut().flatten() {
        // A primary still silent gets its one hedge: a duplicate on
        // another connection.
        if a.legs.len() == 1 && a.client.policy.hedge_after.is_some() {
            cce_obs::counter!("cce_shard_hedges_total").inc();
            a.hedged = true;
            match a.client.write_on(a.addr, &payload) {
                Ok(stream) => a.legs.push((true, stream)),
                Err(e) => a.err = Some(e),
            }
        }
    }
    for a in calls.iter_mut().flatten() {
        let policy = &a.client.policy;
        a.race(a.sent + policy.hedge_after.unwrap_or_default() + policy.deadline);
    }
    let retries = clients.iter().map(|c| c.policy.retries).max().unwrap_or(0);
    for attempt in 1..=retries {
        let failed_at = Instant::now();
        let mut due: Vec<(Duration, usize)> = (0..calls.len())
            .filter(|&i| matches!(&calls[i], Ok(a) if a.answer.is_none()))
            .filter(|&i| attempt <= clients[i].policy.retries)
            .map(|i| (full_jitter(clients[i].policy.backoff, attempt - 1), i))
            .collect();
        due.sort_unstable();
        for &(backoff, i) in &due {
            std::thread::sleep((failed_at + backoff).saturating_duration_since(Instant::now()));
            cce_obs::counter!("cce_shard_retries_total").inc();
            // The address may have moved (respawn) between attempts.
            calls[i] = clients[i].attempt(&payload, false);
        }
        for &(_, i) in &due {
            if let Ok(a) = &mut calls[i] {
                a.race(a.sent + a.client.policy.deadline);
            }
        }
    }
    calls
        .into_iter()
        .map(|c| c.and_then(Attempt::settle))
        .collect()
}

/// One attempt of a call in flight: its connections ("legs": the
/// primary and, once fired, the hedge) until one answers.
struct Attempt<'a> {
    client: &'a ShardClient,
    addr: SocketAddr,
    sent: Instant,
    /// `(is_hedge, connection)` for each leg still waited on.
    legs: Vec<(bool, TcpStream)>,
    hedged: bool,
    answer: Option<Resp>,
    /// The last leg error, reported if no leg answers.
    err: Option<io::Error>,
}

impl Attempt<'_> {
    /// Waits until `end` for a leg to answer: blocking on a lone leg,
    /// alternating short peeks between two. The first whole answer wins
    /// (the other leg's connection closes with the attempt); a leg that
    /// fails leaves the race to the other.
    fn race(&mut self, end: Instant) {
        while self.answer.is_none() && !self.legs.is_empty() && Instant::now() < end {
            let lone = end.saturating_duration_since(Instant::now());
            let wait = if self.legs.len() == 1 { lone } else { PEEK };
            let Some(i) = (0..self.legs.len())
                .find(|&i| !matches!(readable(&self.legs[i].1, wait), Ok(false)))
            else {
                continue;
            };
            let (is_hedge, stream) = self.legs.swap_remove(i);
            match self.client.read_answer(stream) {
                Ok(resp) => {
                    if self.hedged && is_hedge {
                        cce_obs::counter!("cce_shard_hedges_won_total").inc();
                    } else if self.hedged {
                        cce_obs::counter!("cce_shard_hedges_wasted_total").inc();
                    }
                    self.answer = Some(resp);
                }
                Err(e) => self.err = Some(e),
            }
        }
    }

    /// Reports the call's last attempt to the breaker and turns it into
    /// the caller's result. Any answer proves the shard alive; an
    /// application-level rejection is deterministic, so it is neither
    /// retried nor a shard fault.
    fn settle(self) -> Result<Resp, CallError> {
        let client = self.client;
        if self.answer.is_some() {
            client.breaker.on_success();
        } else {
            client.breaker.on_failure();
            cce_obs::counter!("cce_shard_call_failures_total").inc();
        }
        client.publish_breaker();
        match self.answer {
            Some(Resp::Err { msg }) => Err(CallError::Rejected(msg)),
            Some(resp) => Ok(resp),
            None => Err(CallError::Exhausted(self.err.unwrap_or_else(|| {
                io::Error::new(io::ErrorKind::TimedOut, "attempt deadline exceeded")
            }))),
        }
    }
}

/// How long one hedge-race peek waits on a leg before trying the other.
const PEEK: Duration = Duration::from_millis(1);

/// Whether an answer starts arriving on `stream` within `wait`. A peer
/// that closed reads as readable, so the read reports its error.
fn readable(stream: &TcpStream, wait: Duration) -> io::Result<bool> {
    stream.set_read_timeout(Some(wait.max(Duration::from_micros(1))))?;
    match stream.peek(&mut [0u8; 1]) {
        Ok(_) => Ok(true),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn breaker_opens_half_opens_and_recloses() {
        let b = Breaker::new(2, Duration::from_millis(20));
        assert!(b.admit());
        assert_eq!(b.on_failure(), BreakerState::Closed);
        assert_eq!(b.on_failure(), BreakerState::Open);
        assert!(!b.admit(), "open breaker must reject");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit(), "cooled-off breaker admits one probe");
        assert!(!b.admit(), "half-open admits only the probe");
        b.on_success();
        assert!(b.admit(), "probe success recloses");
        // A half-open probe failure reopens immediately.
        b.on_failure();
        b.on_failure();
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.admit());
        assert_eq!(b.on_failure(), BreakerState::Open);
        assert!(!b.admit());
    }

    #[test]
    fn full_jitter_stays_within_cap() {
        let base = Duration::from_millis(10);
        for attempt in 0..5 {
            let cap = base * (1 << attempt);
            for _ in 0..50 {
                assert!(full_jitter(base, attempt) <= cap);
            }
        }
        assert_eq!(full_jitter(Duration::ZERO, 3), Duration::ZERO);
    }

    #[test]
    fn down_shard_fails_fast() {
        let c = Arc::new(ShardClient::new(
            0,
            "127.0.0.1:1".parse().unwrap(),
            ShardPolicy::default(),
        ));
        c.set_down();
        assert!(matches!(c.call(&Req::Ping), Err(CallError::Down)));
    }

    /// A primary that stays silent past `hedge_after` is hedged on a
    /// second connection, raced from the caller's thread: the hedge's
    /// answer wins and no thread is spawned.
    #[test]
    fn a_stalled_primary_loses_to_its_hedge_without_a_spawn() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // A fake worker that reads the first connection's request and
        // never answers it, then answers the next connection.
        let worker = std::thread::spawn(move || {
            let mut stalled = listener.accept().unwrap().0;
            read_frame(&mut stalled).unwrap();
            let mut hedge = listener.accept().unwrap().0;
            read_frame(&mut hedge).unwrap();
            write_frame(&mut hedge, &Resp::Pong { shard: 0, rows: 7 }.encode()).unwrap();
            stalled
        });
        let hedge_after = Duration::from_millis(50);
        let client = ShardClient::new(
            0,
            addr,
            ShardPolicy {
                hedge_after: Some(hedge_after),
                retries: 0,
                ..ShardPolicy::default()
            },
        );
        let total = |name| cce_obs::registry().snapshot().counter_total(name);
        let won = total("cce_shard_hedges_won_total");
        let spawned = total("cce_threads_spawned_total");
        let t0 = Instant::now();
        assert_eq!(
            client.call(&Req::Ping).unwrap(),
            Resp::Pong { shard: 0, rows: 7 }
        );
        assert!(
            t0.elapsed() >= hedge_after,
            "the hedge waits out hedge_after"
        );
        assert_eq!(total("cce_shard_hedges_won_total") - won, 1);
        assert_eq!(total("cce_threads_spawned_total") - spawned, 0);
        drop(worker.join().unwrap());
    }
}
