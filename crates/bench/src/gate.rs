//! The baseline gate shared by the `exp_bench_*` binaries: each binary
//! names the keys it gates, and every key fails loudly on a >20%
//! regression *or* on a malformed baseline (missing key, shape
//! mismatch, zero/negative/NaN reference value). The parser and the
//! comparison are [`cce_obs::check_key`], which `cce-load` also gates
//! through.

/// Compares one gated key between the current and baseline documents at
/// the bench tolerance (0.8× the baseline); returns the number of
/// failures (0 = pass).
pub fn check_key(current: &str, baseline: &str, key: &str) -> usize {
    cce_obs::check_key(current, baseline, key, 0.8)
}
