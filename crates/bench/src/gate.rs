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

/// Compares one deterministic count between the current and baseline
/// documents for equality; returns the number of failures (0 = pass).
/// A missing key or a shape mismatch fails loudly, like [`check_key`].
pub fn check_exact(current: &str, baseline: &str, key: &str) -> usize {
    let cur = cce_obs::extract_numbers(current, key);
    let base = cce_obs::extract_numbers(baseline, key);
    if base.is_empty() || cur.len() != base.len() {
        eprintln!(
            "GATE FAILURE: \"{key}\" has {} baseline vs {} current entries — regenerate the baseline",
            base.len(),
            cur.len()
        );
        return 1;
    }
    let mut failures = 0;
    for (i, (c, b)) in cur.iter().zip(&base).enumerate() {
        if c == b {
            eprintln!("ok: \"{key}\" entry {i}: {c} == baseline");
        } else {
            eprintln!("MISMATCH: \"{key}\" entry {i}: {c} vs baseline {b} (exact count)");
            failures += 1;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_gate_fails_on_any_difference_or_missing_key() {
        let base = "{\"misses\": 120}";
        assert_eq!(check_exact("{\"misses\": 120}", base, "misses"), 0);
        assert_eq!(check_exact("{\"misses\": 119}", base, "misses"), 1);
        assert_eq!(check_exact("{\"misses\": 121}", base, "misses"), 1);
        assert_eq!(check_exact("{\"misses\": 120}", "{}", "misses"), 1);
        assert_eq!(check_exact("{}", base, "misses"), 1);
    }
}
