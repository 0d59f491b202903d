//! The paged on-disk context format: layout math, the atomic writer,
//! and the validating reader.
//!
//! # File layout
//!
//! ```text
//! ┌────────────────────────── header (24 bytes) ──────────────────────────┐
//! │ magic "CCEP" · version u16 · reserved u16 · page_size u32 ·           │
//! │ reserved u32 · footer_offset u64                                      │
//! ├──────────────────────────── page frames ──────────────────────────────┤
//! │ page 0: payload[page_size] · crc32(payload) u32                       │
//! │ page 1: …                              (fixed stride page_size + 4)   │
//! ├─────────────────────────────── footer ────────────────────────────────┤
//! │ payload_len u64 · directory payload · crc32(payload) u32              │
//! └───────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Pages are laid out deterministically, so every page offset is pure
//! arithmetic — no per-page index is needed:
//!
//! 1. one **bitset column** per `(feature, value)` pair, features in
//!    schema order, values in code order — the posting lists;
//! 2. one bitset column per **class** (prediction label), in
//!    first-occurrence order — the class membership sets;
//! 3. the **row data**: fixed-width `(values…, label)` records of
//!    `4·(n+1)` bytes, packed whole into pages (records never straddle
//!    a page boundary).
//!
//! Every bitset column occupies the same number of page frames
//! (`⌈⌈rows/64⌉ / (page_size/8)⌉`); short final pages are zero-padded,
//! which also preserves the in-RAM tail-bit invariant (no bit above
//! `rows` is ever set) — the kernels rely on it for exact counts.
//!
//! The footer's directory carries the schema, row count, per-column
//! live counts, and each class's seed table `(surv₀, cover₀)` — the
//! precomputed round-0 scores — so a single footer read is enough to
//! start explaining; bitset pages fault in on demand.
//!
//! # Atomicity
//!
//! [`write_store`] writes `{path}.tmp` with chunked appends, fsyncs,
//! and only then renames over `path`. A crash mid-convert leaves either
//! the old store or a `.tmp` orphan — never a half-written file at
//! `path` — and [`PageStore::open`] re-validates header, footer
//! framing, directory checksum, and cross-invariants before serving a
//! single page.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cce_dataset::{Instance, Label, Schema};

use crate::context::Context;
use crate::index::ContextIndex;
use crate::kernels;
use crate::persist::{crc32, Dec, Enc, PersistError, Vfs};

use super::cache::{CacheStats, LruPageCache, PageData};

/// Magic bytes opening every paged context store.
pub const STORE_MAGIC: [u8; 4] = *b"CCEP";
/// Store format version; bump on any layout change.
pub const STORE_VERSION: u16 = 1;
/// Header length in bytes (fixed).
pub const HEADER_LEN: usize = 24;
/// Default page payload size: 64 KiB.
pub const DEFAULT_PAGE_SIZE: usize = 64 * 1024;
/// CRC trailer appended to every page payload.
const PAGE_CRC_LEN: usize = 4;
/// Writer buffer flush threshold.
const WRITE_CHUNK: usize = 4 << 20;

/// All layout arithmetic for one store: derived once from
/// `(schema, rows, page_size, n_classes)` and checked against the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    /// Context rows.
    pub rows: usize,
    /// Page payload bytes (excludes the 4-byte CRC trailer).
    pub page_size: usize,
    /// Per-feature cardinalities.
    pub cards: Vec<usize>,
    /// Prefix sums of `cards`: column id of `(f, 0)`.
    pub card_offset: Vec<usize>,
    /// Total `(feature, value)` bitset columns.
    pub n_value_cols: usize,
    /// Class bitset columns.
    pub n_classes: usize,
    /// Bitset words per column: `⌈rows/64⌉`.
    pub words: usize,
    /// Bitset words per page: `page_size / 8`.
    pub words_per_page: usize,
    /// Page frames per bitset column: `⌈words / words_per_page⌉`.
    pub pages_per_col: usize,
    /// Bytes per row record: `4·(n_features + 2)` — the values, the
    /// label, and the row's twin-contradiction count.
    pub row_width: usize,
    /// Whole records per row-data page.
    pub rows_per_page: usize,
    /// Row-data page frames.
    pub n_row_pages: usize,
    /// First row-data page id (value then class columns precede it).
    pub row_pages_start: u64,
    /// Total page frames in the file.
    pub total_pages: u64,
    /// Byte offset of the footer (`HEADER_LEN + total_pages · stride`).
    pub footer_offset: u64,
}

impl Geometry {
    /// Derives the layout, rejecting page sizes the format cannot
    /// express: payloads must be 8-byte aligned (whole bitset words)
    /// and fit at least one row record.
    pub fn derive(
        schema: &Schema,
        rows: usize,
        page_size: usize,
        n_classes: usize,
    ) -> Result<Self, PersistError> {
        let n = schema.n_features();
        let row_width = 4 * (n + 2);
        if page_size == 0 || !page_size.is_multiple_of(8) {
            return Err(PersistError::corrupt(
                "page size must be a positive multiple of 8",
            ));
        }
        if page_size > (1 << 30) {
            return Err(PersistError::corrupt("page size implausibly large"));
        }
        if page_size < row_width {
            return Err(PersistError::corrupt(
                "page size smaller than one row record",
            ));
        }
        let cards: Vec<usize> = schema.features().iter().map(|f| f.cardinality()).collect();
        let mut card_offset = Vec::with_capacity(n);
        let mut n_value_cols = 0usize;
        for &c in &cards {
            card_offset.push(n_value_cols);
            n_value_cols += c;
        }
        let words = rows.div_ceil(64);
        let words_per_page = page_size / 8;
        let pages_per_col = words.div_ceil(words_per_page);
        let rows_per_page = page_size / row_width;
        let n_row_pages = rows.div_ceil(rows_per_page);
        let row_pages_start = ((n_value_cols + n_classes) * pages_per_col) as u64;
        let total_pages = row_pages_start + n_row_pages as u64;
        let stride = (page_size + PAGE_CRC_LEN) as u64;
        let footer_offset = HEADER_LEN as u64 + total_pages * stride;
        Ok(Self {
            rows,
            page_size,
            cards,
            card_offset,
            n_value_cols,
            n_classes,
            words,
            words_per_page,
            pages_per_col,
            row_width,
            rows_per_page,
            n_row_pages,
            row_pages_start,
            total_pages,
            footer_offset,
        })
    }

    /// Column id of the `(feature, value)` posting bitset.
    pub fn value_col(&self, feat: usize, value: usize) -> usize {
        debug_assert!(value < self.cards[feat]);
        self.card_offset[feat] + value
    }

    /// Column id of class `c`'s membership bitset.
    pub fn class_col(&self, c: usize) -> usize {
        self.n_value_cols + c
    }

    /// Page id of chunk `k` of bitset column `col`.
    pub fn col_page(&self, col: usize, k: usize) -> u64 {
        (col * self.pages_per_col + k) as u64
    }

    /// Live (non-padding) words in chunk `k` of any bitset column.
    pub fn page_words(&self, k: usize) -> usize {
        (self.words - k * self.words_per_page).min(self.words_per_page)
    }

    /// Byte offset of page `id`'s frame.
    pub fn page_offset(&self, id: u64) -> u64 {
        HEADER_LEN as u64 + id * (self.page_size + PAGE_CRC_LEN) as u64
    }

    /// `(page id, byte offset within payload)` of row `r`'s record.
    pub fn row_slot(&self, r: usize) -> (u64, usize) {
        let page = self.row_pages_start + (r / self.rows_per_page) as u64;
        let off = (r % self.rows_per_page) * self.row_width;
        (page, off)
    }
}

/// One class's directory entry: everything round 0 of the greedy loop
/// needs without touching a bitset page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirClass {
    /// The prediction label.
    pub label: Label,
    /// Rows carrying this label.
    pub size: usize,
    /// `seed[f][v] = (surv₀, cover₀)`: violators surviving / supporters
    /// covered by the single-feature key `{f = v}`.
    pub seed: Vec<Vec<(usize, usize)>>,
}

/// The decoded footer directory.
#[derive(Debug, Clone, PartialEq)]
pub struct Directory {
    /// The feature space.
    pub schema: Arc<Schema>,
    /// Context rows.
    pub rows: usize,
    /// Page payload size (must echo the header).
    pub page_size: usize,
    /// Per-value-column live counts (popcount of each posting).
    pub live: Vec<usize>,
    /// Classes in first-occurrence order.
    pub classes: Vec<DirClass>,
    /// Label display names indexed by label code — carried so a store
    /// renders the same text as the CSV + sidecar it came from. May be
    /// empty (codes render as `L<code>`).
    pub label_names: Vec<String>,
}

impl Directory {
    /// Display name of a label, falling back to `L<code>` — mirrors
    /// `Dataset::label_name` so store-backed output matches CSV-backed.
    pub fn label_name(&self, label: Label) -> String {
        self.label_names
            .get(label.0 as usize)
            .cloned()
            .unwrap_or_else(|| label.to_string())
    }

    fn encode(&self, enc: &mut Enc) {
        enc.schema(&self.schema);
        enc.usize(self.rows);
        enc.u32(self.page_size as u32);
        enc.usizes(&self.live);
        enc.usize(self.classes.len());
        for class in &self.classes {
            enc.label(class.label);
            enc.usize(class.size);
            for per_feat in &class.seed {
                for &(surv, cover) in per_feat {
                    enc.usize(surv);
                    enc.usize(cover);
                }
            }
        }
        enc.usize(self.label_names.len());
        for name in &self.label_names {
            enc.str(name);
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, PersistError> {
        let schema = Arc::new(dec.schema()?);
        let rows = dec.usize()?;
        if rows > (1 << 38) {
            return Err(PersistError::corrupt("directory row count implausible"));
        }
        let page_size = dec.u32()? as usize;
        let live = dec.usizes()?;
        let cards: Vec<usize> = schema.features().iter().map(|f| f.cardinality()).collect();
        let n_value_cols: usize = cards.iter().sum();
        if live.len() != n_value_cols {
            return Err(PersistError::corrupt("directory live-count width mismatch"));
        }
        let n_classes = dec.len()?;
        let mut classes = Vec::with_capacity(n_classes);
        for _ in 0..n_classes {
            let label = dec.label()?;
            let size = dec.usize()?;
            let mut seed = Vec::with_capacity(cards.len());
            for &card in &cards {
                let mut per_feat = Vec::with_capacity(card);
                for _ in 0..card {
                    per_feat.push((dec.usize()?, dec.usize()?));
                }
                seed.push(per_feat);
            }
            classes.push(DirClass { label, size, seed });
        }
        let n_names = dec.len()?;
        let mut label_names = Vec::with_capacity(n_names);
        for _ in 0..n_names {
            label_names.push(dec.str()?);
        }
        let dir = Self {
            schema,
            rows,
            page_size,
            live,
            classes,
            label_names,
        };
        dir.check_invariants()?;
        Ok(dir)
    }

    /// Cross-field invariants a well-formed store always satisfies;
    /// violating any of them means the footer bytes lie about the pages.
    fn check_invariants(&self) -> Result<(), PersistError> {
        if self.classes.iter().map(|c| c.size).sum::<usize>() != self.rows {
            return Err(PersistError::corrupt(
                "directory class sizes do not partition the rows",
            ));
        }
        let mut labels: Vec<u32> = self.classes.iter().map(|c| c.label.0).collect();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() != self.classes.len() {
            return Err(PersistError::corrupt("directory repeats a class label"));
        }
        let mut col = 0usize;
        for f in 0..self.schema.n_features() {
            for _v in 0..self.schema.feature(f).cardinality() {
                let live = self.live[col];
                if live > self.rows {
                    return Err(PersistError::corrupt(
                        "directory live count exceeds row count",
                    ));
                }
                for class in &self.classes {
                    let (surv, cover) = class.seed[f][_v];
                    // surv₀ + cover₀ partitions the posting by class
                    // membership, so they must sum to its live count.
                    if surv + cover != live {
                        return Err(PersistError::corrupt(
                            "directory seed scores inconsistent with live counts",
                        ));
                    }
                }
                col += 1;
            }
        }
        Ok(())
    }
}

/// What [`write_store`] produced — surfaced by `cce convert`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Rows converted.
    pub rows: usize,
    /// Page frames written.
    pub pages: u64,
    /// Total file bytes.
    pub bytes: u64,
    /// Page payload size used.
    pub page_size: usize,
}

/// Buffers appends and flushes in large chunks so converting a
/// million-row context does not mean a million tiny vfs ops.
struct ChunkedWriter<'v, V: Vfs> {
    vfs: &'v mut V,
    path: &'v str,
    buf: Vec<u8>,
    written: u64,
}

impl<'v, V: Vfs> ChunkedWriter<'v, V> {
    fn new(vfs: &'v mut V, path: &'v str) -> Result<Self, PersistError> {
        vfs.write(path, &[])?; // truncate any stale temp file
        Ok(Self {
            vfs,
            path,
            buf: Vec::with_capacity(WRITE_CHUNK),
            written: 0,
        })
    }

    fn push(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= WRITE_CHUNK {
            self.flush()?;
        }
        Ok(())
    }

    /// Appends one page frame: `payload` zero-padded to the page size,
    /// then the payload CRC (computed over the padded payload).
    fn push_page(&mut self, payload: &[u8], page_size: usize) -> Result<(), PersistError> {
        debug_assert!(payload.len() <= page_size);
        let start = self.buf.len();
        self.buf.extend_from_slice(payload);
        self.buf.resize(start + page_size, 0);
        let crc = crc32(&self.buf[start..start + page_size]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        if self.buf.len() >= WRITE_CHUNK {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), PersistError> {
        if !self.buf.is_empty() {
            self.vfs.append(self.path, &self.buf)?;
            self.written += self.buf.len() as u64;
            self.buf.clear();
        }
        Ok(())
    }
}

/// Converts a context into a paged store at `path`, atomically.
///
/// The bitset columns are taken from a freshly built [`ContextIndex`],
/// so the on-disk postings, class sets, and seed tables are *exactly*
/// the structures the in-RAM explain path uses — the byte-identity of
/// paged explains reduces to the page framing being lossless.
///
/// # Errors
/// [`PersistError`] on invalid `page_size` or any vfs failure; a failed
/// convert never disturbs an existing valid store at `path`.
pub fn write_store<V: Vfs>(
    vfs: &mut V,
    path: &str,
    ctx: &Context,
    page_size: usize,
    label_names: &[String],
) -> Result<StoreSummary, PersistError> {
    let schema = ctx.schema();
    let idx = ContextIndex::new(ctx);
    let classes = idx.classes_ref();
    let geom = Geometry::derive(schema, ctx.len(), page_size, classes.len())?;
    let count = kernels::active().count;

    // Directory first: it is tiny, and building it validates that the
    // index shapes match the geometry before any page hits the disk.
    let postings = idx.postings_ref();
    let mut live = Vec::with_capacity(geom.n_value_cols);
    for per_feat in postings {
        for posting in per_feat {
            live.push(count(posting.word_slice()) as usize);
        }
    }
    let dir = Directory {
        schema: ctx.schema_arc(),
        rows: ctx.len(),
        page_size,
        live,
        classes: classes
            .iter()
            .map(|c| DirClass {
                label: c.label_ref(),
                size: c.size_ref(),
                seed: c.seed_ref().to_vec(),
            })
            .collect(),
        label_names: label_names.to_vec(),
    };

    let tmp = format!("{path}.tmp");
    let mut w = ChunkedWriter::new(vfs, &tmp)?;

    // Header.
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&STORE_MAGIC);
    header.extend_from_slice(&STORE_VERSION.to_le_bytes());
    header.extend_from_slice(&0u16.to_le_bytes());
    header.extend_from_slice(&(page_size as u32).to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    header.extend_from_slice(&geom.footer_offset.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);
    w.push(&header)?;

    // Bitset columns: postings in (feature, value) order, then classes.
    let mut payload = Vec::with_capacity(page_size);
    let write_col = |w: &mut ChunkedWriter<'_, V>,
                     payload: &mut Vec<u8>,
                     words: &[u64]|
     -> Result<(), PersistError> {
        debug_assert_eq!(words.len(), geom.words);
        for k in 0..geom.pages_per_col {
            let chunk = &words[k * geom.words_per_page..][..geom.page_words(k)];
            payload.clear();
            for word in chunk {
                payload.extend_from_slice(&word.to_le_bytes());
            }
            w.push_page(payload, page_size)?;
        }
        Ok(())
    };
    for per_feat in postings {
        for posting in per_feat {
            write_col(&mut w, &mut payload, posting.word_slice())?;
        }
    }
    for class in classes {
        write_col(&mut w, &mut payload, class.rows_ref().word_slice())?;
    }

    // Row data: fixed-width records, whole records per page. The third
    // field is the row's twin certificate — the live rows carrying the
    // same instance under a different label — so a row-addressed paged
    // explain can certify unsatisfiability in O(1) exactly like the
    // in-RAM path, instead of discovering it by intersecting all `n`
    // postings (hundreds of column streams per doomed target).
    let mut r = 0usize;
    while r < ctx.len() {
        payload.clear();
        let end = (r + geom.rows_per_page).min(ctx.len());
        for row in r..end {
            for &v in ctx.instance(row).values() {
                payload.extend_from_slice(&v.to_le_bytes());
            }
            payload.extend_from_slice(&ctx.prediction(row).0.to_le_bytes());
            let twins = idx.twin_violators(ctx.instance(row), ctx.prediction(row));
            let twins = u32::try_from(twins)
                .map_err(|_| PersistError::corrupt("twin count exceeds u32"))?;
            payload.extend_from_slice(&twins.to_le_bytes());
        }
        w.push_page(&payload, page_size)?;
        r = end;
    }

    // Footer: length-framed, CRC'd directory.
    let mut enc = Enc::new();
    dir.encode(&mut enc);
    let dir_bytes = enc.into_bytes();
    w.push(&(dir_bytes.len() as u64).to_le_bytes())?;
    w.push(&dir_bytes)?;
    w.push(&crc32(&dir_bytes).to_le_bytes())?;
    w.flush()?;
    let bytes = w.written;

    // Durability before visibility: fsync the temp file, then publish.
    vfs.sync_file(&tmp)?;
    vfs.rename(&tmp, path)?;
    Ok(StoreSummary {
        rows: ctx.len(),
        pages: geom.total_pages,
        bytes,
        page_size,
    })
}

/// A validated, cache-fronted handle to a paged store.
///
/// `open` reads and cross-checks only the header and footer; bitset and
/// row pages fault in lazily through the [`LruPageCache`], each frame
/// CRC-verified before its bits reach a kernel.
///
/// Reads take `&self`, so explains share one store. The geometry and
/// directory are immutable; the cache and the `Vfs` sit behind their
/// own locks, the cache's held for one lookup or insert and the
/// `Vfs`'s for one ranged read. The CRC check and the word decode — the
/// bulk of a miss — run outside both. Two threads missing the same page
/// both read and verify it; the second insert just refreshes the entry.
#[derive(Debug)]
pub struct PageStore<V: Vfs> {
    vfs: Mutex<V>,
    path: String,
    geom: Geometry,
    dir: Directory,
    cache: Mutex<LruPageCache>,
}

impl<V: Vfs> PageStore<V> {
    /// Opens and validates the store at `path`, fronting page faults
    /// with a cache of `cache_budget` bytes.
    ///
    /// # Errors
    /// [`PersistError`] when the file is missing, truncated, from an
    /// unknown version, or its footer fails checksum or invariant
    /// validation — a torn or tampered store is refused here, before
    /// any explain can observe it.
    pub fn open(mut vfs: V, path: &str, cache_budget: usize) -> Result<Self, PersistError> {
        let header = vfs
            .read_range(path, 0, HEADER_LEN)?
            .ok_or_else(|| PersistError::Io {
                op: "open-store",
                path: path.to_string(),
                msg: "file not found".to_string(),
            })?;
        if header.len() < HEADER_LEN {
            return Err(PersistError::corrupt("store header truncated"));
        }
        if header[..4] != STORE_MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != STORE_VERSION {
            return Err(PersistError::BadVersion { found: version });
        }
        // v1 writes all-zero reserved fields; with the page size echoed
        // in the CRC'd directory and the footer offset recomputed from
        // the layout, this makes every header byte validated.
        if header[6..8] != [0, 0] || header[12..16] != [0, 0, 0, 0] {
            return Err(PersistError::corrupt("reserved header bytes set"));
        }
        let page_size = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
        let footer_offset = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));

        let len_bytes = vfs
            .read_range(path, footer_offset, 8)?
            .filter(|b| b.len() == 8)
            .ok_or_else(|| PersistError::corrupt("store footer missing or truncated"))?;
        let dir_len = u64::from_le_bytes(len_bytes.as_slice().try_into().expect("8 bytes"));
        if dir_len > (1 << 31) {
            return Err(PersistError::corrupt("store directory length implausible"));
        }
        let dir_len = dir_len as usize;
        let framed = vfs
            .read_range(path, footer_offset + 8, dir_len + PAGE_CRC_LEN)?
            .filter(|b| b.len() == dir_len + PAGE_CRC_LEN)
            .ok_or_else(|| PersistError::corrupt("store directory truncated"))?;
        let (dir_bytes, crc_bytes) = framed.split_at(dir_len);
        let want = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(dir_bytes) != want {
            return Err(PersistError::corrupt("store directory checksum mismatch"));
        }
        let mut dec = Dec::new(dir_bytes);
        let dir = Directory::decode(&mut dec)?;
        if !dec.is_exhausted() {
            return Err(PersistError::corrupt(
                "trailing bytes after store directory",
            ));
        }
        if dir.page_size != page_size {
            return Err(PersistError::corrupt(
                "directory page size contradicts header",
            ));
        }
        let geom = Geometry::derive(&dir.schema, dir.rows, page_size, dir.classes.len())?;
        if geom.footer_offset != footer_offset {
            return Err(PersistError::corrupt(
                "footer offset inconsistent with layout",
            ));
        }
        Ok(Self {
            vfs: Mutex::new(vfs),
            path: path.to_string(),
            geom,
            dir,
            cache: Mutex::new(LruPageCache::new(cache_budget)),
        })
    }

    /// The store's layout arithmetic.
    pub fn geometry(&self) -> &Geometry {
        &self.geom
    }

    /// The footer directory (schema, live counts, class seeds).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Context rows in the store.
    pub fn rows(&self) -> usize {
        self.geom.rows
    }

    /// The feature space.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.dir.schema
    }

    /// Page-cache counters for `/healthz` and the bench.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache().stats()
    }

    /// The page cache, locked. No caller code runs under this lock, so
    /// a poisoned one is taken over rather than propagated.
    fn cache(&self) -> MutexGuard<'_, LruPageCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Faults page `id` in (or returns the cached copy), verifying the
    /// frame CRC and — for bitset pages — the tail-bit invariant before
    /// the bits can reach a kernel. Only verified pages are cached.
    pub fn page(&self, id: u64) -> Result<Arc<PageData>, PersistError> {
        let hit = self.cache().get(id);
        if let Some(p) = hit {
            return Ok(p);
        }
        debug_assert!(id < self.geom.total_pages);
        let frame_len = self.geom.page_size + PAGE_CRC_LEN;
        let frame = self
            .vfs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .read_range(&self.path, self.geom.page_offset(id), frame_len)?
            .ok_or_else(|| PersistError::Io {
                op: "read-page",
                path: self.path.clone(),
                msg: "store file vanished".to_string(),
            })?;
        if frame.len() != frame_len {
            return Err(PersistError::corrupt("page frame truncated"));
        }
        let (payload, crc_bytes) = frame.split_at(self.geom.page_size);
        let want = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(payload) != want {
            return Err(PersistError::corrupt("page checksum mismatch"));
        }
        let data = if id < self.geom.row_pages_start {
            let words: Vec<u64> = payload
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            self.check_bitset_tail(id, &words)?;
            PageData::Words(words)
        } else {
            PageData::Bytes(payload.to_vec())
        };
        let page = Arc::new(data);
        self.cache().insert(id, Arc::clone(&page));
        Ok(page)
    }

    /// Rejects bitset pages with bits set beyond the row universe —
    /// the kernels' exact-count contract. Page CRCs already make this
    /// unreachable for accidental corruption; it is defense in depth.
    fn check_bitset_tail(&self, id: u64, words: &[u64]) -> Result<(), PersistError> {
        let k = (id as usize) % self.geom.pages_per_col;
        let live = self.geom.page_words(k);
        if words[live..].iter().any(|&w| w != 0) {
            return Err(PersistError::corrupt("bitset page padding bits set"));
        }
        let is_last_live = (k + 1) * self.geom.words_per_page >= self.geom.words;
        let tail = self.geom.rows % 64;
        if is_last_live && tail != 0 && live > 0 {
            let mask = !((1u64 << tail) - 1);
            if words[live - 1] & mask != 0 {
                return Err(PersistError::corrupt("bitset page tail bits set"));
            }
        }
        Ok(())
    }

    /// Reads row `r`'s `(instance, label, twin contradictions)` record.
    /// The third field counts the live rows carrying `r`'s exact
    /// instance under a different label — the precomputed
    /// unsatisfiability certificate for row-addressed explains.
    ///
    /// # Errors
    /// [`PersistError`] on fault failure; `r` must be `< rows`.
    pub fn row(&self, r: usize) -> Result<(Instance, Label, u32), PersistError> {
        debug_assert!(r < self.geom.rows);
        let (id, off) = self.geom.row_slot(r);
        let page = self.page(id)?;
        let PageData::Bytes(bytes) = &*page else {
            return Err(PersistError::corrupt("row page decoded as bitset"));
        };
        let rec = &bytes[off..off + self.geom.row_width];
        let n = self.dir.schema.n_features();
        let values = (0..n)
            .map(|f| u32::from_le_bytes(rec[4 * f..4 * f + 4].try_into().expect("4 bytes")))
            .collect();
        let label = Label(u32::from_le_bytes(
            rec[4 * n..4 * n + 4].try_into().expect("4 bytes"),
        ));
        let twins = u32::from_le_bytes(rec[4 * (n + 1)..4 * (n + 2)].try_into().expect("4 bytes"));
        Ok((Instance::new(values), label, twins))
    }
}
