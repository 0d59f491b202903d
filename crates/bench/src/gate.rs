//! The baseline gate shared by the `exp_bench_*` binaries: each binary
//! names the keys it gates, and every key fails loudly on a >20%
//! regression *or* on a malformed baseline (missing key, shape
//! mismatch, zero/negative/NaN reference value). A gate that silently
//! skips on bad reference data passes every regression.

/// Extracts every `"<key>": <number>` occurrence from a JSON document, in
/// document order — enough structure for the baseline comparison without
/// a JSON dependency.
pub fn extract_numbers(doc: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let num: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push(v);
        }
    }
    out
}

/// Compares one gated key between the current and baseline documents;
/// returns the number of failures (0 = pass).
pub fn check_key(current: &str, baseline: &str, key: &str) -> usize {
    let cur = extract_numbers(current, key);
    let base = extract_numbers(baseline, key);
    if base.is_empty() {
        eprintln!("GATE FAILURE: baseline has no \"{key}\" fields — regenerate the baseline");
        return 1;
    }
    if cur.len() != base.len() {
        eprintln!(
            "GATE FAILURE: baseline shape mismatch for \"{key}\" ({} vs {} entries) — regenerate the baseline",
            base.len(),
            cur.len()
        );
        return 1;
    }
    let mut failures = 0;
    for (i, (c, b)) in cur.iter().zip(&base).enumerate() {
        if !(b.is_finite() && *b > 0.0) {
            eprintln!(
                "GATE FAILURE: \"{key}\" entry {i}: baseline value {b} is not a positive number"
            );
            failures += 1;
            continue;
        }
        if *c < 0.8 * *b {
            eprintln!(
                "REGRESSION: \"{key}\" entry {i}: {c:.3} vs baseline {b:.3} (>{:.0}% drop)",
                (1.0 - c / b) * 100.0
            );
            failures += 1;
        } else {
            eprintln!("ok: \"{key}\" entry {i}: {c:.3} vs baseline {b:.3}");
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-key gate the way each binary composes one.
    fn gate(current: &str, baseline: &str) -> usize {
        check_key(current, baseline, "after_rows_per_sec")
            + check_key(current, baseline, "explains_per_sec")
    }

    const CUR: &str = r#"{
  "large_context": {"explains_per_sec": 500.0},
  "results": [{"after_rows_per_sec": 1000.0}, {"after_rows_per_sec": 2000.0}]
}"#;

    #[test]
    fn healthy_baseline_passes_and_regressions_fail() {
        assert_eq!(gate(CUR, CUR), 0);
        let fast = r#"{
  "large_context": {"explains_per_sec": 500.0},
  "results": [{"after_rows_per_sec": 9000.0}, {"after_rows_per_sec": 2000.0}]
}"#;
        assert_eq!(gate(CUR, fast), 1);
    }

    /// The corrupted-baseline matrix: every malformation must FAIL the
    /// gate (non-zero), never silently pass.
    #[test]
    fn corrupted_baseline_fails_loudly() {
        // Missing key entirely (e.g. a baseline from an older shape).
        let no_large =
            r#"{"results": [{"after_rows_per_sec": 1000.0}, {"after_rows_per_sec": 2000.0}]}"#;
        assert!(gate(CUR, no_large) > 0);
        // Truncated results array (shape mismatch).
        let truncated = r#"{
  "large_context": {"explains_per_sec": 500.0},
  "results": [{"after_rows_per_sec": 1000.0}]
}"#;
        assert!(gate(CUR, truncated) > 0);
        // Zeroed field: any current value would beat 0.8 × 0.
        let zeroed = r#"{
  "large_context": {"explains_per_sec": 0},
  "results": [{"after_rows_per_sec": 1000.0}, {"after_rows_per_sec": 2000.0}]
}"#;
        assert!(gate(CUR, zeroed) > 0);
        // NaN field: every comparison against NaN is false → would pass.
        let nan = r#"{
  "large_context": {"explains_per_sec": 500.0},
  "results": [{"after_rows_per_sec": NaN}, {"after_rows_per_sec": 2000.0}]
}"#;
        assert!(gate(CUR, nan) > 0);
        // Outright garbage / empty document.
        assert!(gate(CUR, "{}") > 0);
        assert!(gate(CUR, "not json at all") > 0);
    }
}
