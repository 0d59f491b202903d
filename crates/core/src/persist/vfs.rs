//! Storage abstraction with a real-filesystem backend and an in-memory
//! fault-injecting backend.
//!
//! The checkpoint and WAL layers never touch `std::fs` directly; they go
//! through [`Vfs`]. Production uses [`StdVfs`]. Tests use [`MemVfs`],
//! which models the durability semantics that matter for crash safety:
//!
//! * every file tracks a **synced prefix** (`fsync` high-water mark);
//! * a simulated crash keeps each file's synced prefix and lets the
//!   unsynced tail survive fully, partially (*torn write*), or not at
//!   all — optionally with a flipped byte (*bit rot in flight*);
//! * a [`FaultPlan`] can kill the process after the N-th mutating
//!   operation (applying a partial write first) or inject an I/O error
//!   at a specific operation site without killing the process.
//!
//! Renames are modeled as atomic and durable, the guarantee journaled
//! filesystems provide for same-directory renames of fsynced files —
//! which is exactly the only rename pattern the checkpoint layer uses.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use super::PersistError;

/// The operation sites a [`FaultPlan`] can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Appending bytes to a file.
    Append,
    /// Creating/overwriting a whole file.
    Write,
    /// `fsync` of a file.
    SyncFile,
    /// Renaming a file.
    Rename,
    /// Removing a file.
    Remove,
}

/// Minimal filesystem surface needed by the durability layer.
pub trait Vfs {
    /// Appends `bytes` to the file at `path`, creating it if absent.
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), PersistError>;
    /// Creates or truncates the file at `path` with `bytes`.
    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), PersistError>;
    /// Flushes the file's data to durable storage.
    fn sync_file(&mut self, path: &str) -> Result<(), PersistError>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&mut self, from: &str, to: &str) -> Result<(), PersistError>;
    /// Removes the file at `path` (ok if already gone).
    fn remove(&mut self, path: &str) -> Result<(), PersistError>;
    /// Reads the whole file, `None` when it does not exist.
    fn read(&mut self, path: &str) -> Result<Option<Vec<u8>>, PersistError>;
    /// Reads up to `len` bytes starting at byte `offset`, `None` when the
    /// file does not exist. A read past EOF is clamped, so the returned
    /// buffer may be **shorter than `len`** — callers validating framed
    /// structures must check the length themselves (a short read is how
    /// truncation surfaces).
    ///
    /// The default implementation slices a whole-file [`Vfs::read`];
    /// backends with random access override it (pread-style) so paged
    /// readers never materialize the full file.
    fn read_range(
        &mut self,
        path: &str,
        offset: u64,
        len: usize,
    ) -> Result<Option<Vec<u8>>, PersistError> {
        Ok(self.read(path)?.map(|b| {
            let start = usize::try_from(offset).unwrap_or(usize::MAX).min(b.len());
            let end = start.saturating_add(len).min(b.len());
            b[start..end].to_vec()
        }))
    }
    /// File names (not paths) directly inside `dir`.
    fn list(&mut self, dir: &str) -> Result<Vec<String>, PersistError>;
    /// Ensures `dir` exists and is durable.
    fn create_dir_all(&mut self, dir: &str) -> Result<(), PersistError>;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

fn io_err(op: &'static str, path: &str, e: std::io::Error) -> PersistError {
    PersistError::Io {
        op,
        path: path.to_string(),
        msg: e.to_string(),
    }
}

impl Vfs for StdVfs {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), PersistError> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open-append", path, e))?;
        f.write_all(bytes).map_err(|e| io_err("append", path, e))
    }

    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), PersistError> {
        std::fs::write(path, bytes).map_err(|e| io_err("write", path, e))
    }

    fn sync_file(&mut self, path: &str) -> Result<(), PersistError> {
        let f = std::fs::File::open(path).map_err(|e| io_err("open-sync", path, e))?;
        f.sync_all().map_err(|e| io_err("fsync", path, e))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), PersistError> {
        std::fs::rename(from, to).map_err(|e| io_err("rename", from, e))?;
        // Make the rename itself durable: fsync the containing directory
        // (POSIX crash-consistency for the temp-file-then-rename pattern).
        if let Some(dir) = std::path::Path::new(to).parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all(); // best-effort; not all platforms allow it
            }
        }
        Ok(())
    }

    fn remove(&mut self, path: &str) -> Result<(), PersistError> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", path, e)),
        }
    }

    fn read(&mut self, path: &str) -> Result<Option<Vec<u8>>, PersistError> {
        match std::fs::read(path) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", path, e)),
        }
    }

    fn read_range(
        &mut self,
        path: &str,
        offset: u64,
        len: usize,
    ) -> Result<Option<Vec<u8>>, PersistError> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut f = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err("open-range", path, e)),
        };
        let file_len = f
            .metadata()
            .map_err(|e| io_err("stat-range", path, e))?
            .len();
        f.seek(SeekFrom::Start(offset))
            .map_err(|e| io_err("seek", path, e))?;
        // Size the buffer once, clamped to the bytes the file holds past
        // `offset`, so a corrupt caller-supplied length cannot force a
        // huge up-front allocation. `take` still stops at EOF should the
        // file shrink underneath.
        let avail = file_len.saturating_sub(offset).min(len as u64) as usize;
        let mut buf = Vec::with_capacity(avail);
        f.take(len as u64)
            .read_to_end(&mut buf)
            .map_err(|e| io_err("read-range", path, e))?;
        Ok(Some(buf))
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, PersistError> {
        let rd = std::fs::read_dir(dir).map_err(|e| io_err("list", dir, e))?;
        let mut names = Vec::new();
        for entry in rd {
            let entry = entry.map_err(|e| io_err("list", dir, e))?;
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }

    fn create_dir_all(&mut self, dir: &str) -> Result<(), PersistError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("mkdir", dir, e))
    }
}

/// What happens to a file's unsynced tail when the simulated machine
/// loses power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailFate {
    /// The whole tail reached the platter.
    Kept,
    /// A prefix of the tail survived (torn write).
    Torn,
    /// Nothing past the synced prefix survived.
    Lost,
    /// The tail survived but one of its bytes flipped in flight.
    Corrupted,
}

/// How a targeted ranged read misbehaves (see [`FaultPlan::read_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// Only a prefix of the requested range is returned — the short read
    /// a truncated or concurrently-shrunk file produces.
    Short,
    /// The full range is returned with one byte flipped in flight — bit
    /// rot between platter and page cache.
    Torn,
}

/// Deterministic fault schedule for a [`MemVfs`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Kill the process when this many mutating ops have completed; the
    /// fatal op applies a partial write first. `None` = never.
    pub crash_after_ops: Option<u64>,
    /// Return an injected error (without killing the process) on the
    /// n-th occurrence (1-based) of the given op kind.
    pub fail_at: Option<(OpKind, u64)>,
    /// Corrupt the n-th (1-based) **ranged read** in the given way,
    /// without killing the process. Whole-file reads are unaffected;
    /// this targets the paged read path specifically.
    pub read_fault: Option<(ReadFault, u64)>,
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan that crashes after `n` mutating operations.
    pub fn crash_after(n: u64) -> Self {
        Self {
            crash_after_ops: Some(n),
            ..Self::default()
        }
    }

    /// A plan that injects one I/O error at the `n`-th op of `kind`.
    pub fn fail_nth(kind: OpKind, n: u64) -> Self {
        Self {
            fail_at: Some((kind, n)),
            ..Self::default()
        }
    }

    /// A plan that corrupts the `n`-th ranged read in the given way.
    pub fn fault_read(kind: ReadFault, n: u64) -> Self {
        Self {
            read_fault: Some((kind, n)),
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    /// fsync high-water mark: bytes below this index are durable.
    synced: usize,
}

#[derive(Debug, Default)]
struct MemInner {
    files: BTreeMap<String, MemFile>,
    plan: FaultPlan,
    ops: u64,
    per_kind: BTreeMap<&'static str, u64>,
    /// Ranged reads served so far (drives [`FaultPlan::read_fault`]).
    ranged_reads: u64,
    crashed: bool,
    /// Cheap deterministic RNG for torn-write prefixes.
    rng: u64,
}

impl MemInner {
    fn next_rand(&mut self) -> u64 {
        // SplitMix64 step — deterministic, no external deps.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Checks the fault plan before a mutating op. Returns the number of
    /// bytes of `payload_len` to apply if the op is the fatal one.
    fn gate(&mut self, kind: OpKind, payload_len: usize) -> Result<Option<usize>, PersistError> {
        if self.crashed {
            return Err(PersistError::Crashed);
        }
        let kind_name = match kind {
            OpKind::Append => "append",
            OpKind::Write => "write",
            OpKind::SyncFile => "sync_file",
            OpKind::Rename => "rename",
            OpKind::Remove => "remove",
        };
        let n = self.per_kind.entry(kind_name).or_insert(0);
        *n += 1;
        if let Some((fk, fn_th)) = self.plan.fail_at {
            if fk == kind && *n == fn_th {
                return Err(PersistError::Io {
                    op: "injected",
                    path: String::new(),
                    msg: format!("fault injection: {kind_name} #{fn_th}"),
                });
            }
        }
        self.ops += 1;
        if let Some(limit) = self.plan.crash_after_ops {
            if self.ops >= limit {
                self.crashed = true;
                let partial = if payload_len == 0 {
                    0
                } else {
                    (self.next_rand() as usize) % (payload_len + 1)
                };
                return Ok(Some(partial));
            }
        }
        Ok(None)
    }
}

/// An in-memory [`Vfs`] with fsync-aware crash simulation. Cloning
/// shares the underlying store, so a test can keep a handle while the
/// code under test owns another.
#[derive(Debug, Clone, Default)]
pub struct MemVfs {
    inner: Arc<Mutex<MemInner>>,
}

impl MemVfs {
    /// A fault-free in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// An in-memory filesystem driving the given fault plan, with `seed`
    /// controlling torn-write prefixes and crash tail fates.
    pub fn with_plan(plan: FaultPlan, seed: u64) -> Self {
        Self {
            inner: Arc::new(Mutex::new(MemInner {
                plan,
                rng: seed,
                ..MemInner::default()
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// True once the fault plan has killed the simulated process.
    pub fn has_crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Mutating operations performed so far.
    pub fn ops(&self) -> u64 {
        self.lock().ops
    }

    /// Simulates the reboot after a power loss: every file is reduced to
    /// its synced prefix plus a tail whose fate is drawn deterministically
    /// from the VFS seed ([`TailFate`]). Returns a fresh, fault-free
    /// filesystem holding the surviving image.
    pub fn into_rebooted(self) -> MemVfs {
        let mut inner = self.lock();
        let mut survived: BTreeMap<String, MemFile> = BTreeMap::new();
        let names: Vec<String> = inner.files.keys().cloned().collect();
        for name in names {
            let (data, synced) = {
                let f = &inner.files[&name];
                (f.data.clone(), f.synced.min(f.data.len()))
            };
            let tail_len = data.len() - synced;
            let mut kept = data;
            if tail_len > 0 {
                let fate = match inner.next_rand() % 4 {
                    0 => TailFate::Kept,
                    1 => TailFate::Torn,
                    2 => TailFate::Lost,
                    _ => TailFate::Corrupted,
                };
                match fate {
                    TailFate::Kept => {}
                    TailFate::Lost => kept.truncate(synced),
                    TailFate::Torn => {
                        let keep = (inner.next_rand() as usize) % (tail_len + 1);
                        kept.truncate(synced + keep);
                    }
                    TailFate::Corrupted => {
                        let at = synced + (inner.next_rand() as usize) % tail_len;
                        kept[at] ^= 0x40;
                    }
                }
            }
            let synced = kept.len();
            survived.insert(name, MemFile { data: kept, synced });
        }
        MemVfs {
            inner: Arc::new(Mutex::new(MemInner {
                files: survived,
                rng: inner.next_rand(),
                ..MemInner::default()
            })),
        }
    }
}

impl Vfs for MemVfs {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), PersistError> {
        let mut g = self.lock();
        let partial = g.gate(OpKind::Append, bytes.len())?;
        let f = g.files.entry(path.to_string()).or_default();
        match partial {
            None => {
                f.data.extend_from_slice(bytes);
                Ok(())
            }
            Some(n) => {
                f.data.extend_from_slice(&bytes[..n]);
                Err(PersistError::Crashed)
            }
        }
    }

    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), PersistError> {
        let mut g = self.lock();
        let partial = g.gate(OpKind::Write, bytes.len())?;
        match partial {
            None => {
                g.files.insert(
                    path.to_string(),
                    MemFile {
                        data: bytes.to_vec(),
                        synced: 0,
                    },
                );
                Ok(())
            }
            Some(n) => {
                g.files.insert(
                    path.to_string(),
                    MemFile {
                        data: bytes[..n].to_vec(),
                        synced: 0,
                    },
                );
                Err(PersistError::Crashed)
            }
        }
    }

    fn sync_file(&mut self, path: &str) -> Result<(), PersistError> {
        let mut g = self.lock();
        let fatal = g.gate(OpKind::SyncFile, 0)?;
        if let Some(f) = g.files.get_mut(path) {
            f.synced = f.data.len();
        }
        match fatal {
            // A crash "during" fsync: the sync itself completed (modeled
            // conservatively as ordered before the power cut).
            Some(_) => Err(PersistError::Crashed),
            None => Ok(()),
        }
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), PersistError> {
        let mut g = self.lock();
        let fatal = g.gate(OpKind::Rename, 0)?;
        if let Some(f) = g.files.remove(from) {
            // Atomic + durable (same-dir rename of an fsynced file).
            g.files.insert(to.to_string(), f);
        }
        match fatal {
            Some(_) => Err(PersistError::Crashed),
            None => Ok(()),
        }
    }

    fn remove(&mut self, path: &str) -> Result<(), PersistError> {
        let mut g = self.lock();
        let fatal = g.gate(OpKind::Remove, 0)?;
        g.files.remove(path);
        match fatal {
            Some(_) => Err(PersistError::Crashed),
            None => Ok(()),
        }
    }

    fn read(&mut self, path: &str) -> Result<Option<Vec<u8>>, PersistError> {
        let g = self.lock();
        if g.crashed {
            return Err(PersistError::Crashed);
        }
        Ok(g.files.get(path).map(|f| f.data.clone()))
    }

    fn read_range(
        &mut self,
        path: &str,
        offset: u64,
        len: usize,
    ) -> Result<Option<Vec<u8>>, PersistError> {
        let mut g = self.lock();
        if g.crashed {
            return Err(PersistError::Crashed);
        }
        g.ranged_reads += 1;
        let nth = g.ranged_reads;
        let fault = match g.plan.read_fault {
            Some((kind, n)) if n == nth => Some(kind),
            _ => None,
        };
        let Some(f) = g.files.get(path) else {
            return Ok(None);
        };
        let start = usize::try_from(offset)
            .unwrap_or(usize::MAX)
            .min(f.data.len());
        let end = start.saturating_add(len).min(f.data.len());
        let mut out = f.data[start..end].to_vec();
        match fault {
            Some(ReadFault::Short) if !out.is_empty() => {
                let keep = (g.next_rand() as usize) % out.len();
                out.truncate(keep);
            }
            Some(ReadFault::Torn) if !out.is_empty() => {
                let at = (g.next_rand() as usize) % out.len();
                out[at] ^= 0x40;
            }
            _ => {}
        }
        Ok(Some(out))
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, PersistError> {
        let g = self.lock();
        if g.crashed {
            return Err(PersistError::Crashed);
        }
        let prefix = if dir.ends_with('/') {
            dir.to_string()
        } else {
            format!("{dir}/")
        };
        Ok(g.files
            .keys()
            .filter_map(|p| p.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(str::to_string)
            .collect())
    }

    fn create_dir_all(&mut self, _dir: &str) -> Result<(), PersistError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_vfs_round_trips_files() {
        let mut v = MemVfs::new();
        v.write("d/a", b"one").unwrap();
        v.append("d/a", b"two").unwrap();
        assert_eq!(v.read("d/a").unwrap().unwrap(), b"onetwo");
        assert_eq!(v.list("d").unwrap(), vec!["a".to_string()]);
        v.rename("d/a", "d/b").unwrap();
        assert_eq!(v.read("d/a").unwrap(), None);
        v.remove("d/b").unwrap();
        assert_eq!(v.read("d/b").unwrap(), None);
    }

    #[test]
    fn unsynced_tail_can_be_lost_on_reboot() {
        // Across seeds all four tail fates occur; synced prefixes survive.
        let mut saw_loss = false;
        let mut saw_keep = false;
        for seed in 0..32 {
            let mut v = MemVfs::with_plan(FaultPlan::none(), seed);
            v.append("w/log", b"durable").unwrap();
            v.sync_file("w/log").unwrap();
            v.append("w/log", b"-tail").unwrap();
            let mut after = v.into_rebooted();
            let data = after.read("w/log").unwrap().unwrap();
            assert!(data.len() >= b"durable".len(), "synced prefix must survive");
            assert_eq!(&data[..4], b"dura", "synced bytes are never corrupted");
            saw_loss |= data.len() < b"durable-tail".len();
            saw_keep |= data == b"durable-tail";
        }
        assert!(saw_loss && saw_keep, "reboot fates must vary across seeds");
    }

    #[test]
    fn crash_plan_kills_after_n_ops() {
        let mut v = MemVfs::with_plan(FaultPlan::crash_after(2), 7);
        v.append("x", b"a").unwrap();
        let err = v.append("x", b"bcdef").unwrap_err();
        assert!(matches!(err, PersistError::Crashed));
        assert!(v.has_crashed());
        assert!(matches!(
            v.append("x", b"zz").unwrap_err(),
            PersistError::Crashed
        ));
    }

    #[test]
    fn read_range_clamps_at_eof() {
        let mut v = MemVfs::new();
        v.write("f", b"0123456789").unwrap();
        assert_eq!(v.read_range("f", 2, 3).unwrap().unwrap(), b"234");
        assert_eq!(v.read_range("f", 8, 10).unwrap().unwrap(), b"89");
        assert_eq!(v.read_range("f", 100, 4).unwrap().unwrap(), b"");
        assert_eq!(v.read_range("missing", 0, 4).unwrap(), None);
    }

    /// A [`Vfs`] wrapper that hides `MemVfs`'s `read_range` override, so
    /// the trait's default whole-file-slice fallback is what runs.
    struct DefaultRange(MemVfs);

    impl Vfs for DefaultRange {
        fn append(&mut self, p: &str, b: &[u8]) -> Result<(), PersistError> {
            self.0.append(p, b)
        }
        fn write(&mut self, p: &str, b: &[u8]) -> Result<(), PersistError> {
            self.0.write(p, b)
        }
        fn sync_file(&mut self, p: &str) -> Result<(), PersistError> {
            self.0.sync_file(p)
        }
        fn rename(&mut self, f: &str, t: &str) -> Result<(), PersistError> {
            self.0.rename(f, t)
        }
        fn remove(&mut self, p: &str) -> Result<(), PersistError> {
            self.0.remove(p)
        }
        fn read(&mut self, p: &str) -> Result<Option<Vec<u8>>, PersistError> {
            self.0.read(p)
        }
        fn list(&mut self, d: &str) -> Result<Vec<String>, PersistError> {
            self.0.list(d)
        }
        fn create_dir_all(&mut self, d: &str) -> Result<(), PersistError> {
            self.0.create_dir_all(d)
        }
    }

    #[test]
    fn default_read_range_fallback_slices_whole_file() {
        let mut v = DefaultRange(MemVfs::new());
        v.0.write("f", b"abcdef").unwrap();
        assert_eq!(v.read_range("f", 1, 3).unwrap().unwrap(), b"bcd");
        assert_eq!(v.read_range("f", 4, 99).unwrap().unwrap(), b"ef");
        assert_eq!(v.read_range("gone", 0, 1).unwrap(), None);
    }

    #[test]
    fn std_vfs_read_range_is_pread_style() {
        let dir = std::env::temp_dir().join(format!("cce-vfs-range-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ranged.bin");
        let path = path.to_str().unwrap().to_string();
        let mut v = StdVfs;
        v.write(&path, b"hello world").unwrap();
        assert_eq!(v.read_range(&path, 6, 5).unwrap().unwrap(), b"world");
        assert_eq!(v.read_range(&path, 6, 50).unwrap().unwrap(), b"world");
        assert_eq!(v.read_range(&path, 50, 5).unwrap().unwrap(), b"");
        assert_eq!(v.read_range("/nonexistent/x", 0, 1).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ranged_read_faults_hit_only_their_target() {
        // Short read on the 2nd ranged read only.
        let mut v = MemVfs::with_plan(FaultPlan::fault_read(ReadFault::Short, 2), 11);
        v.write("f", b"0123456789").unwrap();
        assert_eq!(v.read_range("f", 0, 10).unwrap().unwrap(), b"0123456789");
        let short = v.read_range("f", 0, 10).unwrap().unwrap();
        assert!(short.len() < 10, "2nd ranged read must be short");
        assert_eq!(
            &short[..],
            &b"0123456789"[..short.len()],
            "a short read is a strict prefix"
        );
        assert_eq!(v.read_range("f", 0, 10).unwrap().unwrap(), b"0123456789");
        // Whole-file reads never trip the ranged-read fault.
        let mut v = MemVfs::with_plan(FaultPlan::fault_read(ReadFault::Torn, 1), 5);
        v.write("f", b"abc").unwrap();
        assert_eq!(v.read("f").unwrap().unwrap(), b"abc");
        let torn = v.read_range("f", 0, 3).unwrap().unwrap();
        assert_eq!(torn.len(), 3, "a torn read keeps its length");
        assert_ne!(torn, b"abc", "exactly one byte flipped");
    }

    #[test]
    fn injected_errors_target_a_site_without_killing() {
        let mut v = MemVfs::with_plan(FaultPlan::fail_nth(OpKind::SyncFile, 1), 3);
        v.append("x", b"a").unwrap();
        assert!(matches!(
            v.sync_file("x").unwrap_err(),
            PersistError::Io { .. }
        ));
        assert!(!v.has_crashed());
        v.sync_file("x").unwrap(); // only the 1st sync fails
    }
}
