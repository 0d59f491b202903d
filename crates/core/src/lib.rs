//! Relative keys and the CCE client-centric feature-explanation framework.
//!
//! This crate is the paper's contribution, implemented in full:
//!
//! * [`Context`] — a set of instances with their recorded predictions, the
//!   "context" that relative keys are defined against (§3.1). Building it
//!   requires only `(instance, prediction)` pairs collected during model
//!   serving — **never** the model itself.
//! * [`RelativeKey`] / [`Alpha`] — α-conformant relative keys: feature sets
//!   whose rule-based explanation semantics holds over at least an
//!   α-fraction of the context.
//! * [`Srk`] — the greedy batch algorithm (Algorithm 1): polynomial time,
//!   and its output is provably `ln(α·|I|)`-bounded (Lemma 3); every
//!   explain path runs it through the one driver in [`greedy`].
//! * [`OsrkMonitor`] — the randomized online monitor (Algorithm 2):
//!   maintains a coherent (`Eₜ ⊆ Eₜ₊₁`) α-conformant key as instances
//!   stream in, in `O(n log n)` per arrival, `(log t · log n)`-competitive.
//! * [`SsrkMonitor`] — the deterministic online monitor for static-feature
//!   universes (Algorithm 3), `(log m · log n)`-competitive, driven by a
//!   log-domain potential function.
//! * [`Cce`] — the framework facade (§6): batch and online modes, sliding
//!   windows for dynamic models ([`window`]) and accuracy-dip monitoring
//!   ([`monitor`], §7.4).
//! * [`verify`] — an exact (exponential) minimum-key solver used by tests
//!   and benchmarks to validate the approximation guarantees.
//! * [`persist`] — crash safety for the online monitors: checksummed
//!   snapshots, a write-ahead log of arrivals, atomic checkpoint
//!   rotation, and a fault-injection harness proving byte-identical
//!   recovery.
//!
//! Beyond the paper's published algorithms, the crate implements both of
//! its §8 future-work directions: [`importance`] (context-relative Shapley
//! values with an online monitor) and [`patterns`] (pattern-level
//! summaries relative to a context, with per-pattern conformity bounds).
//!
//! Computing a most-succinct relative key is NP-complete (Theorem 1); the
//! algorithms here implement the paper's provable approximations.
//!
//! The hot word-level loops run on runtime-dispatched SIMD kernels
//! ([`kernels`]): AVX2 on `x86_64`, NEON on `aarch64`, with a portable
//! scalar oracle as fallback (force it with `CCE_KERNELS=scalar`). The
//! crate denies `unsafe_code` globally; the only `unsafe` lives in the
//! `kernels` SIMD submodules behind a safe vtable (see the safety
//! argument in [`kernels`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alpha;
pub mod cce;
pub mod context;
pub mod engine;
pub mod error;
mod fanout;
pub mod greedy;
pub mod importance;
pub mod index;
pub mod kernels;
pub mod key;
pub mod monitor;
pub mod osrk;
pub mod pagestore;
pub mod patterns;
pub mod persist;
pub mod recorder;
pub mod srk;
pub mod ssrk;
pub mod verify;
pub mod window;

pub use alpha::Alpha;
pub use cce::{Cce, CceConfig, Mode};
pub use context::Context;
pub use engine::BatchEngine;
pub use error::ExplainError;
pub use importance::{shapley_exact, shapley_sampled, ImportanceParams, OnlineImportance};
pub use index::{ContextIndex, RoundCounts};
pub use kernels::Kernels;
pub use key::RelativeKey;
pub use monitor::DriftMonitor;
pub use osrk::{OsrkMonitor, PickRule};
pub use pagestore::{write_store, CacheStats, LruPageCache, PageStore, PagedContextIndex};
pub use patterns::{summarize, RelativePattern, RelativeSummary, SummaryParams};
pub use persist::{Durable, PersistError, PersistState, Replayable};
pub use recorder::Recorder;
pub use srk::{BudgetedKey, ExplainStatus, Srk, WorkBudget};
pub use ssrk::SsrkMonitor;
pub use window::{LiveWindow, ResolutionPolicy, SlidingWindow};
