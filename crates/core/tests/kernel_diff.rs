//! Differential property tests pinning every SIMD kernel to the scalar
//! oracle.
//!
//! The contract under test is [`cce_core::kernels::Kernels`]: whatever
//! implementation runtime dispatch selects (AVX2 on `x86_64`, NEON on
//! `aarch64`), its counts **and stored words** must be byte-identical
//! to the always-compiled scalar path — for random word soups, the
//! adversarial all-ones/all-zeros extremes, single-word ("single-row")
//! inputs, and every length straddling the 4- and 8-word unrolling
//! boundaries plus the scalar remainder tail.
//!
//! CI runs this suite twice: natively (SIMD dispatched) and with
//! `CCE_KERNELS=scalar`, which turns the differential pairs into
//! oracle-vs-oracle identities — proving the override works and keeping
//! the suite meaningful on SIMD-less hardware.

use cce_core::kernels::{self, scalar};
use proptest::prelude::*;

/// The dispatched implementation vs the oracle on one `(p, a, b)` word
/// triple: all five kernel entry points, counts and stored words.
fn assert_kernels_agree(p: &[u64], a: &[u64], b: &[u64]) {
    let k = kernels::active();
    assert_eq!((k.count)(p), scalar::count(p), "count len={}", p.len());
    assert_eq!(
        (k.count_and)(p, a),
        scalar::count_and(p, a),
        "count_and len={}",
        p.len()
    );
    assert_eq!(
        (k.count_and2)(p, a, b),
        scalar::count_and2(p, a, b),
        "count_and2 len={}",
        p.len()
    );
    let mut d_simd = p.to_vec();
    let mut d_oracle = p.to_vec();
    assert_eq!(
        (k.and_assign_count)(&mut d_simd, a),
        scalar::and_assign_count(&mut d_oracle, a),
        "and_assign_count len={}",
        p.len()
    );
    assert_eq!(d_simd, d_oracle, "and_assign stored words len={}", p.len());
    let mut o_simd = vec![0u64; p.len()];
    let mut o_oracle = vec![0u64; p.len()];
    assert_eq!(
        (k.and_not_count)(&mut o_simd, b, a),
        scalar::and_not_count(&mut o_oracle, b, a),
        "and_not_count len={}",
        p.len()
    );
    assert_eq!(o_simd, o_oracle, "and_not stored words len={}", p.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random word soups at random lengths (including the empty slice
    /// and lengths around the 4/8-word unroll boundaries, since 0..40
    /// covers every remainder class twice).
    #[test]
    fn random_words_match_oracle(
        p in proptest::collection::vec(any::<u64>(), 0usize..40),
        seed in any::<u64>(),
    ) {
        let a: Vec<u64> = p.iter().enumerate()
            .map(|(i, w)| w.rotate_left((i % 64) as u32) ^ seed)
            .collect();
        let b: Vec<u64> = p.iter().enumerate()
            .map(|(i, w)| w.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64))
            .collect();
        assert_kernels_agree(&p, &a, &b);
    }

    /// The adversarial extremes: all-ones against all-zeros in every
    /// role, where a sign/saturation bug in a byte-wise popcount (e.g.
    /// treating 0xFF as -1) is maximally visible.
    #[test]
    fn all_ones_all_zeros_match_oracle(len in 0usize..40, ones_in_p in any::<bool>()) {
        let ones = vec![u64::MAX; len];
        let zeros = vec![0u64; len];
        let (p, q) = if ones_in_p { (&ones, &zeros) } else { (&zeros, &ones) };
        assert_kernels_agree(p, q, p);
        assert_kernels_agree(p, p, q);
        assert_kernels_agree(q, p, p);
    }

    /// Single-row shapes: one word, one bit set — the smallest RowSet a
    /// one-row context produces, entirely in the scalar remainder of
    /// every SIMD kernel.
    #[test]
    fn single_row_words_match_oracle(bit in 0u32..64, other in any::<u64>()) {
        let p = vec![1u64 << bit];
        let a = vec![other];
        let b = vec![!other];
        assert_kernels_agree(&p, &a, &b);
    }
}

/// Deterministic sweep of every length 0..=130 (all remainder classes of
/// the 2/4/8-word vector strides, three times over) with mixed patterns —
/// a non-random backstop so a boundary bug cannot hide behind sampling.
#[test]
fn exhaustive_length_sweep_matches_oracle() {
    for len in 0usize..=130 {
        let p: Vec<u64> = (0..len)
            .map(|i| match i % 4 {
                0 => u64::MAX,
                1 => 0,
                2 => 0xaaaa_aaaa_aaaa_aaaa,
                _ => (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d),
            })
            .collect();
        let a: Vec<u64> = p.iter().rev().cloned().collect();
        let b: Vec<u64> = p.iter().map(|w| !w).collect();
        assert_kernels_agree(&p, &a, &b);
    }
}

/// `CCE_KERNELS=scalar` must actually pin the dispatch to the oracle —
/// the CI matrix leg relies on it. (Only observable when the variable is
/// set; under normal runs this asserts dispatch consistency instead.)
#[test]
fn env_override_pins_scalar() {
    let name = kernels::active().name;
    match std::env::var("CCE_KERNELS").ok().as_deref() {
        Some("scalar") => assert_eq!(name, "scalar", "CCE_KERNELS=scalar must win dispatch"),
        _ => assert!(
            ["scalar", "avx2", "neon"].contains(&name),
            "unknown dispatch path {name}"
        ),
    }
}
