//! Hardware-dispatched bitset kernels: the word-level inner loops every
//! explain path runs on.
//!
//! The fused `RowSet` operations (`count_and`, `count_and2`,
//! `and_assign_count`, `and_not_count`) are pure functions over `u64`
//! word slices. This module provides three interchangeable
//! implementations of that contract:
//!
//! * **scalar** ([`scalar`]) — portable 4-wide-unrolled popcount chains,
//!   always compiled on every target. It is both the fallback on
//!   hardware without SIMD and the *differential-testing oracle* the
//!   vectorized paths are proven byte-identical against.
//! * **avx2** ([`x86`], `x86_64` only) — 256-bit `std::arch` kernels
//!   using the `vpshufb` nibble-lookup popcount, selected at runtime via
//!   `is_x86_feature_detected!("avx2")`.
//! * **neon** (`neon`, `aarch64` only) — 128-bit kernels built on
//!   `vcntq_u8` byte popcounts.
//!
//! # Dispatch
//!
//! [`active()`] picks an implementation **once** per process (a
//! `OnceLock`) and returns a `&'static` [`Kernels`] vtable; every
//! `RowSet` operation goes through it. The choice is, in order:
//!
//! 1. a programmatic override installed via [`force`] (the serve
//!    daemon's `--kernels` flag) — only honored before first use;
//! 2. the `CCE_KERNELS` environment variable (`scalar`, `avx2`, `neon`,
//!    or `auto`); an unsupported explicit request falls back to scalar
//!    with a warning rather than crashing;
//! 3. runtime feature detection (`auto`).
//!
//! The selected path is observable as
//! `cce_kernel_dispatch_total{path="..."}`.
//!
//! # Safety argument
//!
//! `cce-core` compiles with `#![deny(unsafe_code)]`; the only `unsafe`
//! in the crate lives in the SIMD submodules, behind this safe vtable.
//! The SIMD kernels are `unsafe fn`s **only** because of
//! `#[target_feature]`; they are reachable exclusively through the
//! vtable entries installed after the matching `is_*_feature_detected!`
//! check succeeded, so the required instructions are guaranteed
//! present. They perform no raw-pointer arithmetic beyond
//! `slice::as_ptr` loads/stores within `chunks_exact` bounds — every
//! index is bounds-derived from safe slice splitting.

pub mod scalar;

#[cfg(target_arch = "aarch64")]
pub mod neon;
#[cfg(target_arch = "x86_64")]
pub mod x86;

use std::sync::{Mutex, OnceLock};

/// Fused `(popcount(p & a), popcount(p & b))` kernel signature.
pub type CountAnd2Fn = fn(&[u64], &[u64], &[u64]) -> (u64, u64);

/// A complete set of bitset kernels: one function pointer per fused
/// operation, all over equal-length `u64` word slices.
///
/// Implementations must be **byte-identical** in effect to [`scalar`]'s
/// (the oracle): same counts, same stored words, for every input —
/// including empty slices and lengths straddling any vector width.
/// `RowSet` guarantees (and kernels may assume) that padding bits above
/// the logical row count are zero in every *input*; kernels must
/// preserve that invariant in every *output* they store.
#[derive(Clone, Copy, Debug)]
pub struct Kernels {
    /// Implementation name as reported in metrics and benchmarks.
    pub name: &'static str,
    /// `popcount(a)`.
    pub count: fn(&[u64]) -> u64,
    /// `popcount(a & b)` without materializing the intersection.
    pub count_and: fn(&[u64], &[u64]) -> u64,
    /// Fused `(popcount(p & a), popcount(p & b))` in one pass over `p`.
    pub count_and2: CountAnd2Fn,
    /// `dst &= src`, returning `popcount(dst)` after the store.
    pub and_assign_count: fn(&mut [u64], &[u64]) -> u64,
    /// `dst = b & !a`, returning `popcount(dst)`. With `b`'s padding
    /// bits clear the result's padding is clear too, so no tail masking
    /// is needed (the `RowSet` tail invariant).
    pub and_not_count: fn(&mut [u64], &[u64], &[u64]) -> u64,
}

/// Which kernel implementation to use; see [`force`] and `CCE_KERNELS`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Runtime feature detection (the default).
    Auto,
    /// The portable scalar oracle.
    Scalar,
    /// Require AVX2 (falls back to scalar with a warning if absent).
    Avx2,
    /// Require NEON (falls back to scalar with a warning if absent).
    Neon,
}

impl Mode {
    /// Parses a `CCE_KERNELS` / `--kernels` value.
    pub fn parse(s: &str) -> Option<Mode> {
        match s.to_ascii_lowercase().as_str() {
            "auto" | "native" | "" => Some(Mode::Auto),
            "scalar" => Some(Mode::Scalar),
            "avx2" => Some(Mode::Avx2),
            "neon" => Some(Mode::Neon),
            _ => None,
        }
    }
}

static FORCED: Mutex<Option<Mode>> = Mutex::new(None);
static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

/// Requests a specific kernel implementation for the whole process.
///
/// Must run before the first kernel use (daemon/CLI startup); once
/// [`active()`] has selected, the choice is frozen. Returns the name of
/// the implementation that will be (or already is) active, so callers
/// can log when a late or unsupported request was ignored.
pub fn force(mode: Mode) -> &'static str {
    if ACTIVE.get().is_none() {
        *FORCED.lock().unwrap_or_else(|e| e.into_inner()) = Some(mode);
    }
    active().name
}

/// The process-wide kernel vtable, selected on first call.
pub fn active() -> &'static Kernels {
    ACTIVE.get_or_init(|| {
        let forced = *FORCED.lock().unwrap_or_else(|e| e.into_inner());
        let mode = forced
            .or_else(|| {
                std::env::var("CCE_KERNELS").ok().map(|v| {
                    Mode::parse(&v).unwrap_or_else(|| {
                        eprintln!("warning: unknown CCE_KERNELS={v:?}, using auto");
                        Mode::Auto
                    })
                })
            })
            .unwrap_or(Mode::Auto);
        let k = select(mode);
        cce_obs::counter!("cce_kernel_dispatch_total", "path" => k.name).inc();
        k
    })
}

/// Resolves a [`Mode`] against the hardware, warning on unsupported
/// explicit requests.
fn select(mode: Mode) -> &'static Kernels {
    match mode {
        Mode::Scalar => &scalar::KERNELS,
        Mode::Auto => detect().unwrap_or(&scalar::KERNELS),
        Mode::Avx2 | Mode::Neon => match detect() {
            Some(k) if (mode == Mode::Avx2) == (k.name == "avx2") => k,
            _ => {
                eprintln!("warning: requested {mode:?} kernels unavailable, using scalar");
                &scalar::KERNELS
            }
        },
    }
}

/// The best SIMD implementation this CPU supports, if any.
pub fn detect() -> Option<&'static Kernels> {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(&x86::KERNELS);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return Some(&neon::KERNELS);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word patterns covering dense/sparse/boundary mixes.
    fn words(len: usize, seed: u64) -> Vec<u64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..len)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match i % 5 {
                    0 => u64::MAX,
                    1 => 0,
                    _ => state,
                }
            })
            .collect()
    }

    /// Every implementation compiled for this target must agree with the
    /// scalar oracle on every length across vector-width boundaries.
    #[test]
    fn simd_kernels_match_scalar_oracle() {
        let Some(simd) = detect() else {
            eprintln!("no SIMD on this host; oracle-only");
            return;
        };
        let o = &scalar::KERNELS;
        for len in [
            0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 157, 1024,
        ] {
            for seed in 0..4u64 {
                let p = words(len, seed);
                let a = words(len, seed + 101);
                let b = words(len, seed + 202);
                assert_eq!((simd.count)(&p), (o.count)(&p), "count len={len}");
                assert_eq!(
                    (simd.count_and)(&p, &a),
                    (o.count_and)(&p, &a),
                    "count_and len={len}"
                );
                assert_eq!(
                    (simd.count_and2)(&p, &a, &b),
                    (o.count_and2)(&p, &a, &b),
                    "count_and2 len={len}"
                );
                let mut d1 = p.clone();
                let mut d2 = p.clone();
                assert_eq!(
                    (simd.and_assign_count)(&mut d1, &a),
                    (o.and_assign_count)(&mut d2, &a),
                    "and_assign_count len={len}"
                );
                assert_eq!(d1, d2, "and_assign stored words len={len}");
                let mut o1 = vec![0u64; len];
                let mut o2 = vec![0u64; len];
                assert_eq!(
                    (simd.and_not_count)(&mut o1, &b, &a),
                    (o.and_not_count)(&mut o2, &b, &a),
                    "and_not_count len={len}"
                );
                assert_eq!(o1, o2, "and_not stored words len={len}");
            }
        }
    }

    #[test]
    fn mode_parsing_accepts_known_names_only() {
        assert_eq!(Mode::parse("scalar"), Some(Mode::Scalar));
        assert_eq!(Mode::parse("AVX2"), Some(Mode::Avx2));
        assert_eq!(Mode::parse("neon"), Some(Mode::Neon));
        assert_eq!(Mode::parse("auto"), Some(Mode::Auto));
        assert_eq!(Mode::parse("native"), Some(Mode::Auto));
        assert_eq!(Mode::parse("sse9"), None);
    }

    #[test]
    fn active_is_stable_and_force_reports_it() {
        let first = active().name;
        assert_eq!(active().name, first, "selection must be frozen");
        // A post-selection force is ignored but reports the truth.
        assert_eq!(force(Mode::Scalar), first);
    }
}
