//! The TCP layer: accept loop, connection threads, graceful drain.
//!
//! Hand-rolled over `std::net::TcpListener` + `std::thread::scope` (the
//! workspace has no async runtime and no registry access). One scoped
//! thread per connection (capped; excess connections get an immediate
//! `503`), one thread running the backend's worker loop (the in-RAM
//! batcher's coalescing queue; other backends have none).
//!
//! # Drain protocol (SIGTERM-equivalent)
//!
//! `POST /admin/shutdown` (or any path that calls [`App::begin_drain`])
//! starts the drain:
//!
//! 1. **Stop accepting** — the accept loop exits on its next wake-up
//!    (the connection that carried the shutdown pokes the listener so
//!    "next" is immediate).
//! 2. **Finish in-flight** — connection threads stop keep-alive reuse
//!    (`Connection: close` on every response once draining) and are
//!    joined; blocked keep-alive reads expire via the read timeout.
//! 3. **Close the backend** — the in-RAM queue closes and every
//!    already-accepted explain is answered before the batcher exits;
//!    a sharded backend stops its supervisor and workers.
//! 4. **Final checkpoint** — the durable monitor rotates one last
//!    snapshot, so a clean restart replays zero WAL records.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cce_core::persist::Vfs;

use crate::app::App;
use crate::http::{read_request, HttpError, Response};

/// Transport-level knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Hard cap on concurrent connections; beyond it new connections are
    /// answered `503` and closed without a thread.
    pub max_connections: usize,
    /// Idle keep-alive read timeout — also the drain deadline for idle
    /// connections.
    pub keep_alive_timeout: Duration,
    /// Absolute deadline for reading one complete request (headers and
    /// body) once its first byte has arrived. A slowloris client
    /// trickling one header byte per keep-alive interval used to pin a
    /// connection thread forever; now it gets a `408` and a close.
    pub request_deadline: Duration,
    /// Socket write timeout: a client that stops reading its response
    /// cannot pin a connection thread either.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            keep_alive_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// The read half of a connection with an absolute per-request deadline.
///
/// While no request is in flight the socket waits under the keep-alive
/// timeout; the first byte of a request arms the shared deadline cell,
/// and every subsequent read shrinks the socket timeout to the time
/// remaining — so a complete request must arrive within
/// `request_deadline` of its first byte, however slowly the client
/// trickles. The connection loop clears the cell after each complete
/// request.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Arc<Mutex<Option<Instant>>>,
    keep_alive: Duration,
    request_deadline: Duration,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let armed = *self.deadline.lock().unwrap_or_else(|e| e.into_inner());
        match armed {
            Some(dl) => {
                let Some(remaining) = dl.checked_duration_since(Instant::now()) else {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "request read deadline exceeded",
                    ));
                };
                self.stream.set_read_timeout(Some(
                    remaining.min(self.keep_alive).max(Duration::from_millis(1)),
                ))?;
                self.stream.read(buf)
            }
            None => {
                self.stream.set_read_timeout(Some(self.keep_alive))?;
                let n = self.stream.read(buf)?;
                if n > 0 {
                    *self.deadline.lock().unwrap_or_else(|e| e.into_inner()) =
                        Some(Instant::now() + self.request_deadline);
                }
                Ok(n)
            }
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server<V: Vfs + Send> {
    app: Arc<App<V>>,
    listener: TcpListener,
    cfg: ServerConfig,
}

impl<V: Vfs + Send> Server<V> {
    /// Binds `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(app: Arc<App<V>>, addr: &str, cfg: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self { app, listener, cfg })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    /// Propagates socket introspection failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until drained; returns once the drain protocol has fully
    /// completed (final checkpoint included).
    ///
    /// # Errors
    /// Transport setup failures, or a failed final checkpoint.
    pub fn run(self) -> io::Result<()> {
        let addr = self.listener.local_addr()?;
        let app = &self.app;
        let cfg = self.cfg;
        let active = AtomicUsize::new(0);
        let active = &active;
        std::thread::scope(|s| {
            let backend = Arc::clone(app.batcher());
            let backend_thread = s.spawn(move || backend.run());
            let mut connections = Vec::new();
            for stream in self.listener.incoming() {
                if app.draining() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if active.load(Ordering::SeqCst) >= cfg.max_connections {
                    cce_obs::counter!("cce_serve_conn_rejected_total").inc();
                    let mut stream = stream;
                    let _ = Response::error_json(503, "connection limit reached")
                        .write_to(&mut stream, false);
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                cce_obs::gauge!("cce_serve_connections").set(active.load(Ordering::SeqCst) as i64);
                let app = Arc::clone(app);
                connections.push(s.spawn(move || {
                    handle_connection(&app, stream, addr, cfg);
                    active.fetch_sub(1, Ordering::SeqCst);
                    cce_obs::gauge!("cce_serve_connections")
                        .set(active.load(Ordering::SeqCst) as i64);
                }));
            }
            // Draining: no new connections. Join the existing ones (their
            // keep-alive loops exit on the next response or read timeout),
            // then close the backend: the in-RAM queue flushes, shard
            // workers stop only after every in-flight scatter is answered.
            for c in connections {
                let _ = c.join();
            }
            app.batcher().close();
            let _ = backend_thread.join();
        });
        self.app
            .final_checkpoint()
            .map_err(|e| io::Error::other(format!("final checkpoint: {e}")))
    }
}

/// One connection's keep-alive loop.
fn handle_connection<V: Vfs>(app: &App<V>, stream: TcpStream, addr: SocketAddr, cfg: ServerConfig) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let deadline = Arc::new(Mutex::new(None));
    let mut reader = BufReader::new(DeadlineReader {
        stream: read_half,
        deadline: Arc::clone(&deadline),
        keep_alive: cfg.keep_alive_timeout,
        request_deadline: cfg.request_deadline,
    });
    let mut writer = stream;
    loop {
        match read_request(&mut reader) {
            Ok(req) => {
                // Full request in hand: disarm the slow-client deadline
                // so keep-alive idling is governed by its own timeout.
                *deadline.lock().unwrap_or_else(|e| e.into_inner()) = None;
                let resp = app.handle(&req);
                // Drain may have begun *during* this request (the
                // shutdown route) — never keep alive past that point.
                let keep = req.wants_keep_alive() && !app.draining();
                if resp.write_to(&mut writer, keep).is_err() {
                    break;
                }
                if app.draining() {
                    poke(addr);
                }
                if !keep {
                    break;
                }
            }
            Err(e) => {
                // A timeout with the deadline armed is a stalled client
                // mid-request — tell it why before closing. Idle
                // keep-alive expiry (deadline unarmed) closes silently.
                let armed = deadline.lock().unwrap_or_else(|p| p.into_inner()).is_some();
                let stalled = armed
                    && matches!(
                        &e,
                        HttpError::Io(io)
                            if io.kind() == io::ErrorKind::TimedOut
                                || io.kind() == io::ErrorKind::WouldBlock
                    );
                if stalled {
                    cce_obs::counter!("cce_serve_slow_client_timeouts_total").inc();
                    let _ = Response::error_json(408, "request read deadline exceeded")
                        .write_to(&mut writer, false);
                } else if let Some(resp) = e.response() {
                    cce_obs::counter!("cce_serve_http_errors_total").inc();
                    let _ = resp.write_to(&mut writer, false);
                }
                break;
            }
        }
    }
    let _ = writer.flush();
}

/// Unblocks the accept loop so it can notice the drain flag.
fn poke(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
}
