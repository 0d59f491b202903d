//! The shard supervisor: spawns worker processes, health-checks them,
//! and respawns crashes.
//!
//! Respawn sequence (the order is what keeps explains consistent):
//!
//! 1. the sweep notices the child exited → the shard's client is marked
//!    **down** (explains immediately degrade to partial answers);
//! 2. a fresh worker is spawned and re-derives its base partition from
//!    the source data;
//! 3. the shard's slice of the router's [`IngestLog`] is replayed into
//!    it over the wire (pushes are idempotent by global index);
//! 4. only then is the client pointed at the new address — a shard is
//!    never visible to the router with a partially rebuilt partition.
//!
//! The supervisor holds each worker's stdin pipe open; a worker exits on
//! stdin EOF, so no worker outlives the daemon.

use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use super::client::ShardClient;
use super::router::IngestLog;
use super::wire::{read_frame, write_frame, Req, Resp};

/// How to launch one shard worker process.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// The executable (the `cce` binary, or the dedicated
    /// `cce-shard-worker` test binary).
    pub program: PathBuf,
    /// Arguments before the worker flags (`["shard-worker"]` when
    /// `program` is the `cce` CLI; empty for the dedicated binary).
    pub args_prefix: Vec<String>,
    /// Path to the encoded CSV defining the full context.
    pub data: String,
    /// Total shard count.
    pub shards: usize,
}

enum Cmd {
    KillRandom,
    Restart(usize),
    Stop,
}

/// Control handle for the supervisor thread. Dropping it without
/// [`SupervisorHandle::stop`] leaves workers running until their stdin
/// pipes close on process exit.
pub struct SupervisorHandle {
    tx: Sender<Cmd>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl SupervisorHandle {
    /// Kills one random live worker (chaos testing). The health loop
    /// respawns it. Returns false when the supervisor is gone.
    pub fn kill_random(&self) -> bool {
        self.tx.send(Cmd::KillRandom).is_ok()
    }

    /// Forces a kill-and-respawn of one shard (used when an ingest
    /// forward fails: the respawn replay redelivers the row).
    pub fn restart(&self, shard: usize) -> bool {
        self.tx.send(Cmd::Restart(shard)).is_ok()
    }

    /// Stops all workers and joins the supervisor thread. Idempotent.
    pub fn stop(&self) {
        let _ = self.tx.send(Cmd::Stop);
        if let Some(t) = self.thread.lock().unwrap_or_else(|e| e.into_inner()).take() {
            let _ = t.join();
        }
    }
}

/// Spawns all `spec.shards` workers, waits until each is listening, and
/// starts the health loop. `clients[i]` is pointed at worker `i` as it
/// comes up; on later crashes the health loop respawns and replays
/// `log`'s slice for that shard before re-pointing the client.
///
/// # Errors
/// Spawn or handshake failure of any *initial* worker (later crashes
/// are handled by the health loop, not surfaced here).
pub fn spawn_shards(
    spec: WorkerSpec,
    clients: Vec<Arc<ShardClient>>,
    log: Arc<IngestLog>,
) -> io::Result<SupervisorHandle> {
    assert_eq!(clients.len(), spec.shards, "one client per shard");
    let mut children = Vec::with_capacity(spec.shards);
    for (i, client) in clients.iter().enumerate() {
        let (child, addr) = spawn_worker(&spec, i)?;
        client.set_addr(addr);
        children.push(child);
    }

    let (tx, rx) = mpsc::channel();
    cce_obs::counter!("cce_threads_spawned_total").inc();
    let thread = std::thread::spawn(move || {
        // Deterministic-enough chaos selection without an RNG dep.
        let mut pick_state = 0x9e37_79b9u64;
        loop {
            let cmd = rx.recv_timeout(Duration::from_millis(200));
            match cmd {
                Ok(Cmd::Stop) | Err(RecvTimeoutError::Disconnected) => {
                    for child in &mut children {
                        let _ = child.kill();
                        let _ = child.wait();
                    }
                    return;
                }
                Ok(Cmd::KillRandom) => {
                    let live: Vec<usize> =
                        (0..clients.len()).filter(|&i| clients[i].is_up()).collect();
                    if !live.is_empty() {
                        pick_state = pick_state
                            .wrapping_mul(0xd129_0d3c_d2c0_4c35)
                            .wrapping_add(0x2545_f491_4f6c_dd1d);
                        let victim = live[(pick_state >> 17) as usize % live.len()];
                        cce_obs::counter!("cce_shard_chaos_kills_total").inc();
                        let _ = children[victim].kill();
                    }
                }
                Ok(Cmd::Restart(i)) => {
                    if i < children.len() {
                        let _ = children[i].kill();
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
            // Sweep: detect exits, respawn, replay, re-point the client.
            for i in 0..children.len() {
                let exited = matches!(children[i].try_wait(), Ok(Some(_)));
                if !exited {
                    continue;
                }
                clients[i].set_down();
                match spawn_worker(&spec, i).and_then(|(child, addr)| {
                    replay(addr, &log.for_shard(i, spec.shards))?;
                    Ok((child, addr))
                }) {
                    Ok((child, addr)) => {
                        children[i] = child;
                        clients[i].set_addr(addr);
                        cce_obs::counter!("cce_shard_respawns_total").inc();
                    }
                    Err(_) => {
                        // Shard stays down; the next sweep retries (the
                        // dead child still reads as exited).
                        cce_obs::counter!("cce_shard_respawn_failures_total").inc();
                    }
                }
            }
        }
    });

    Ok(SupervisorHandle {
        tx,
        thread: Mutex::new(Some(thread)),
    })
}

/// Spawns worker `i` and waits for its `shard I listening on ADDR`
/// handshake line.
fn spawn_worker(spec: &WorkerSpec, i: usize) -> io::Result<(Child, SocketAddr)> {
    let mut child = Command::new(&spec.program)
        .args(&spec.args_prefix)
        .arg("--data")
        .arg(&spec.data)
        .arg("--shard-index")
        .arg(i.to_string())
        .arg("--shards")
        .arg(spec.shards.to_string())
        .arg("--addr")
        .arg("127.0.0.1:0")
        .stdin(Stdio::piped()) // held open: EOF is the worker's cue to exit
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| io::Error::other("worker stdout not captured"))?;
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let Some(line) = lines.next() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "shard worker {i} exited before announcing its address"
            )));
        };
        let line = line?;
        if let Some(tok) = line
            .strip_prefix(&format!("shard {i} listening on "))
            .map(str::trim)
        {
            break tok.parse::<SocketAddr>().map_err(|e| {
                io::Error::other(format!("shard worker {i} announced a bad address: {e}"))
            })?;
        }
    };
    Ok((child, addr))
}

/// Replays one shard's ingest-log slice into a freshly spawned worker.
fn replay(addr: SocketAddr, entries: &[(u64, Vec<u32>, u32)]) -> io::Result<()> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    for (global, x, pred) in entries.iter().cloned() {
        write_frame(&mut stream, &Req::Push { global, x, pred }.encode())?;
        match Resp::decode(&read_frame(&mut stream)?)? {
            Resp::Pushed { .. } => {}
            other => {
                return Err(io::Error::other(format!(
                    "replay of row {global} rejected: {other:?}"
                )))
            }
        }
    }
    Ok(())
}
