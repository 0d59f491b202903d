//! Out-of-core context store: a paged on-disk bitset format with an
//! LRU page cache.
//!
//! The in-RAM [`ContextIndex`](crate::ContextIndex) holds every posting
//! bitset resident — `Σ|dom(Aᵢ)| + |classes|` bitsets of `⌈rows/64⌉`
//! words each, which stops fitting long before the contexts the paper's
//! scalability sections contemplate stop growing. This module trades
//! bounded memory for page faults:
//!
//! * [`format`](mod@format) — the on-disk layout (CRC-framed fixed-stride pages, a
//!   checksummed footer directory) plus the atomic writer
//!   [`write_store`] and the validating reader [`PageStore`];
//! * [`cache`] — [`LruPageCache`], a byte-budgeted, pin-aware LRU over
//!   decoded pages with `cce_pagestore_*` observability;
//! * [`paged`] — [`PagedContextIndex`], the same lazy-greedy explain
//!   loop as the in-RAM index, streaming posting columns page by page
//!   and provably byte-identical to it (`tests/pagestore_diff.rs`).
//!
//! The whole stack does I/O exclusively through the
//! [`Vfs`](crate::persist::Vfs) trait, so the fault-injecting
//! [`MemVfs`](crate::persist::MemVfs) backend exercises torn converts,
//! short reads, and bit rot end to end (`tests/pagestore_corrupt.rs`).

pub mod cache;
pub mod format;
pub mod paged;

pub use cache::{CacheStats, LruPageCache, PageData};
pub use format::{
    write_store, Directory, Geometry, PageStore, StoreSummary, DEFAULT_PAGE_SIZE, STORE_MAGIC,
    STORE_VERSION,
};
pub use paged::PagedContextIndex;
