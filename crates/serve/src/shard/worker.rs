//! The shard worker process body: one row partition behind the wire
//! protocol.
//!
//! A worker streams the source CSV, parses only the rows whose **global**
//! index hashes to its shard ([`crate::shard::shard_of`]), moves them
//! into a [`ContextIndex`], and serves [`Req`]s over a local TCP
//! listener — one thread per connection, one framed request/response per
//! round trip. Beside the index it keeps the rows and their global
//! indices, for `Fetch`. It caches nothing between requests: every
//! `Counts` request recomputes its round from the postings
//! ([`ContextIndex::round_counts`]), so a worker respawned from the
//! source data plus the router's ingest-log replay is indistinguishable
//! from one that never died.
//!
//! The worker also watches its stdin: the supervisor holds the pipe
//! open, so EOF means the parent daemon is gone and the worker exits
//! instead of leaking.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::Duration;

use cce_core::{Context, ContextIndex, ExplainScratch};
use cce_dataset::{csv, schema_io, Instance, Label};

use super::shard_of;
use super::wire::{read_frame, write_frame, Req, Resp};

/// Everything a worker needs to serve its partition.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Path to the encoded CSV the whole context is defined over.
    pub data: String,
    /// This worker's shard index, `0..shards`.
    pub shard_index: usize,
    /// Total shard count.
    pub shards: usize,
    /// Bind address (use port 0 for ephemeral).
    pub addr: String,
    /// When set, exit on stdin EOF (orphan protection under a
    /// supervisor; tests driving a worker directly leave it off).
    pub watch_stdin: bool,
}

/// One shard's rows in arrival order, each row's global index, and the
/// posting index over them. `globals` ascends: base rows arrive in file
/// order, and the router forwards live rows in global order (its ingests
/// are serialized, and a respawn replays the log before any new push).
struct Rows {
    ctx: Context,
    globals: Vec<u64>,
    index: ContextIndex,
}

struct Partition {
    shard: usize,
    rows: RwLock<Rows>,
}

impl Partition {
    fn read(&self) -> RwLockReadGuard<'_, Rows> {
        self.rows.read().unwrap_or_else(|e| e.into_inner())
    }

    fn handle(&self, req: Req, stop: &AtomicBool, scratch: &mut ExplainScratch) -> Resp {
        match req {
            Req::Ping => Resp::Pong {
                shard: self.shard as u32,
                rows: self.read().ctx.len() as u64,
            },
            Req::Fetch { global } => {
                let rows = self.read();
                match rows.globals.binary_search(&global) {
                    Ok(i) => Resp::Row {
                        x: rows.ctx.instance(i).values().to_vec(),
                        pred: rows.ctx.prediction(i).0,
                    },
                    Err(_) => Resp::NotOwned,
                }
            }
            Req::Counts { x, pred, picked } => {
                let picked: Vec<usize> = picked.iter().map(|&f| f as usize).collect();
                let (x0, p0) = (Instance::new(x), Label(pred));
                match self.read().index.round_counts(&x0, p0, &picked, scratch) {
                    Ok(c) => {
                        cce_obs::counter!("cce_shard_worker_rounds_total").inc();
                        let wide = |v: Vec<usize>| v.into_iter().map(|c| c as u64).collect();
                        Resp::Counts {
                            rows: c.rows as u64,
                            violators: c.violators as u64,
                            twins: c.twins as u64,
                            surv: wide(c.surv),
                            cover: wide(c.cover),
                        }
                    }
                    Err(e) => Resp::Err { msg: e.to_string() },
                }
            }
            Req::Push { global, x, pred } => {
                let mut rows = self.rows.write().unwrap_or_else(|e| e.into_inner());
                // Idempotent by global index: a retried push is a no-op.
                // A new row must come after every row held; one out of
                // order is refused, and the router's forward-failure
                // respawn then replays the log in order.
                if rows.globals.last().is_none_or(|&g| g < global) {
                    let (x, pred) = (Instance::new(x), Label(pred));
                    if let Err(e) = rows.index.insert_row(&x, pred) {
                        return Resp::Err { msg: e.to_string() };
                    }
                    rows.globals.push(global);
                    rows.ctx
                        .push(x, pred)
                        .expect("insert_row checked the width");
                } else if rows.globals.binary_search(&global).is_err() {
                    let msg = format!("row {global} arrived out of order");
                    return Resp::Err { msg };
                }
                Resp::Pushed {
                    rows: rows.ctx.len() as u64,
                }
            }
            Req::Exit => {
                stop.store(true, Ordering::SeqCst);
                Resp::Bye
            }
        }
    }
}

/// Loads this shard's rows: the schema from the sidecar when there is
/// one (else inferred over the whole file, as the daemon infers it), and
/// only the owned lines parsed, each moved straight into the context.
fn load_rows(cfg: &WorkerConfig) -> io::Result<Rows> {
    let path = &cfg.data;
    let file =
        std::fs::File::open(path).map_err(|e| io::Error::other(format!("reading {path}: {e}")))?;
    let sidecar_path = format!("{path}.schema");
    let schema = match std::fs::read_to_string(&sidecar_path) {
        Ok(text) => Some(
            schema_io::sidecar_from_text(&text)
                .map_err(|e| io::Error::other(format!("parsing {sidecar_path}: {e}")))?
                .0,
        ),
        Err(_) => None,
    };
    let mut globals = Vec::new();
    let owned = |g: usize| {
        let mine = shard_of(g as u64, cfg.shards) == cfg.shard_index;
        if mine {
            globals.push(g as u64);
        }
        mine
    };
    let ds = csv::read_rows_where(BufReader::new(file), path, schema, owned)
        .map_err(|e| io::Error::other(format!("parsing {path}: {e}")))?;
    let (schema, instances, labels) = ds.into_parts();
    let ctx = Context::new(schema, instances, labels);
    Ok(Rows {
        index: ContextIndex::new(&ctx),
        ctx,
        globals,
    })
}

/// Runs a shard worker to completion (an `Exit` request, or stdin EOF
/// when `watch_stdin` is set).
///
/// Prints `shard I listening on ADDR` on stdout once bound — the
/// supervisor waits for that line.
///
/// # Errors
/// Data-loading and listener-setup failures.
pub fn run(cfg: &WorkerConfig) -> io::Result<()> {
    if cfg.shards == 0 || cfg.shard_index >= cfg.shards {
        return Err(io::Error::other(format!(
            "shard index {} out of range for {} shards",
            cfg.shard_index, cfg.shards
        )));
    }
    let part = Arc::new(Partition {
        shard: cfg.shard_index,
        rows: RwLock::new(load_rows(cfg)?),
    });

    let listener = TcpListener::bind(&cfg.addr)?;
    let local = listener.local_addr()?;
    println!("shard {} listening on {local}", cfg.shard_index);
    io::stdout().flush()?;

    let stop = Arc::new(AtomicBool::new(false));
    if cfg.watch_stdin {
        let stop = Arc::clone(&stop);
        cce_obs::counter!("cce_threads_spawned_total").inc();
        std::thread::spawn(move || {
            // Block until the supervisor's pipe closes, then force exit:
            // an orphaned worker must not outlive the daemon.
            let mut sink = [0u8; 64];
            let mut stdin = io::stdin();
            while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect_timeout(&local, Duration::from_millis(250));
            // Give the accept loop a moment to exit cleanly, then leave.
            std::thread::sleep(Duration::from_millis(500));
            std::process::exit(0);
        });
    }

    std::thread::scope(|s| {
        for stream in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let part = Arc::clone(&part);
            let stop = Arc::clone(&stop);
            cce_obs::counter!("cce_threads_spawned_total").inc();
            s.spawn(move || {
                serve_conn(&part, stream, &stop, local);
            });
        }
    });
    Ok(())
}

/// One connection: framed request/response until EOF or `Exit`.
fn serve_conn(part: &Partition, stream: TcpStream, stop: &AtomicBool, local: std::net::SocketAddr) {
    let _ = stream.set_nodelay(true);
    // A dead router must not pin worker threads forever.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    // Answers go straight to the socket under the buffered reader: one
    // frame is one write.
    let mut reader = BufReader::new(stream);
    let mut scratch = ExplainScratch::new();
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(p) => p,
            Err(_) => return,
        };
        let resp = match Req::decode(&payload) {
            Ok(req) => part.handle(req, stop, &mut scratch),
            Err(e) => Resp::Err {
                msg: format!("bad request: {e}"),
            },
        };
        let bye = matches!(resp, Resp::Bye);
        if write_frame(reader.get_mut(), &resp.encode()).is_err() {
            return;
        }
        if bye {
            // Poke the accept loop so it notices the stop flag.
            let _ = TcpStream::connect_timeout(&local, Duration::from_millis(250));
            return;
        }
    }
}
