//! Zero-dependency observability for the CCE hot paths.
//!
//! The ROADMAP's north star is a production-scale explanation service;
//! this crate is the substrate every other crate reports through:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic instruments,
//! * [`Histogram`] — log₂-bucketed value distribution (latencies, key
//!   lengths) with atomic buckets,
//! * [`SpanTimer`] — RAII latency measurement into a histogram,
//! * [`Registry`] — the process-global home of labeled metric families,
//! * exporters — JSONL ([`Snapshot::to_jsonl`]) and Prometheus text
//!   format ([`Snapshot::to_prometheus`]).
//!
//! # Cost model
//!
//! Instrument handles are interned once (a mutex + allocation on the
//! *first* call per site) and cached in `static OnceLock`s by the
//! [`counter!`] / [`gauge!`] / [`histogram!`] macros. After interning, a
//! hot-path update is one `Relaxed` atomic RMW — and when the global
//! switch is off ([`set_enabled`]), one `Relaxed` load and a branch, with
//! **no allocation** either way. The `obs_overhead` bench in
//! `crates/bench` holds instrumented `explain_all` within ~5% of the
//! uninstrumented baseline.
//!
//! # Conventions
//!
//! Metric names are `snake_case` with a `cce_` prefix and a unit or
//! `_total` suffix (`cce_explain_keys_total`, `cce_batch_explain_ns`).
//! Labels qualify a family into instruments (`algo="srk"`,
//! `mode="parallel"`); keep cardinality tiny — labels become one
//! instrument per combination, forever.
//!
//! Families reported by the kernel layer (`cce-core::kernels`):
//! `cce_kernel_dispatch_total{path="scalar"|"avx2"|"neon"}` records the
//! once-per-process SIMD dispatch decision.
//!
//! ```
//! let hits = cce_obs::counter!("doc_hits_total", "kind" => "example");
//! hits.inc();
//! let mut out = Vec::new();
//! cce_obs::registry().snapshot().to_jsonl(&mut out).unwrap();
//! assert!(String::from_utf8(out).unwrap().contains("doc_hits_total"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod instruments;
mod registry;

pub use export::{MetricValue, Snapshot};
pub use instruments::{Counter, Gauge, Histogram, SpanTimer, BUCKET_COUNT};
pub use registry::{registry, Registry};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// True when instruments record; checked with a `Relaxed` load on every
/// update, so a disabled build's hot paths pay one load + branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally switches recording on or off. Registration still works while
/// disabled (handles intern as usual); only updates become no-ops.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Interns (once) and returns a `&'static` [`Counter`] for a labeled
/// family member.
///
/// ```
/// let c = cce_obs::counter!("requests_total", "endpoint" => "explain");
/// c.inc();
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        static __HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        &**__HANDLE.get_or_init(|| $crate::registry().counter($name, &[$(($k, $v)),*]))
    }};
}

/// Interns (once) and returns a `&'static` [`Gauge`].
#[macro_export]
macro_rules! gauge {
    ($name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        static __HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Gauge>> =
            std::sync::OnceLock::new();
        &**__HANDLE.get_or_init(|| $crate::registry().gauge($name, &[$(($k, $v)),*]))
    }};
}

/// Interns (once) and returns a `&'static` [`Histogram`].
#[macro_export]
macro_rules! histogram {
    ($name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        static __HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        &**__HANDLE.get_or_init(|| $crate::registry().histogram($name, &[$(($k, $v)),*]))
    }};
}

/// Nearest-rank percentile over a **sorted** sample set: the sample at
/// 1-based rank `⌈q·n⌉`, clamped to `[1, n]`. It is always an observed
/// sample — never an interpolation, never a histogram bucket bound —
/// and for q=0.5/0.99 over 1..=100 it returns exactly 50/99. Empty
/// input returns 0.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Serializes tests that toggle [`set_enabled`] or assert exact counts —
/// the registry and switch are process-global, and `cargo test` runs
/// tests on concurrent threads.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the nearest-rank definition on the canonical 1..=100 vector
    /// and on the tiny inputs where a rounded `(n-1)·q` index or a
    /// log₂ bucket bound drifts off the named order statistic.
    #[test]
    fn nearest_rank_pins_order_statistics() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50);
        assert_eq!(nearest_rank(&v, 0.90), 90);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.00), 100);
        // ⌈0.001·100⌉ = 1 → the minimum, and q=0 clamps up to rank 1.
        assert_eq!(nearest_rank(&v, 0.001), 1);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        assert_eq!(nearest_rank(&[7], 0.99), 7);
        // n=2: p50 is the first sample (⌈1.0⌉=1), p99 the second.
        assert_eq!(nearest_rank(&[3, 9], 0.5), 3);
        assert_eq!(nearest_rank(&[3, 9], 0.99), 9);
    }

    #[test]
    fn macros_return_interned_statics() {
        let _guard = test_lock();
        let a = counter!("lib_test_total", "site" => "a");
        let b = counter!("lib_test_total", "site" => "a");
        a.inc();
        b.inc();
        // Same site → same static → same underlying cell.
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn disabling_stops_recording() {
        let _guard = test_lock();
        let c = counter!("lib_disabled_total");
        set_enabled(false);
        c.inc();
        assert_eq!(c.get(), 0);
        set_enabled(true);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
