//! `exp_bench_batch` — measures the batch explanation engine and writes
//! `BENCH_batch.json`, the first entry of the repo's `BENCH_*` perf
//! trajectory.
//!
//! Three paths are timed over the same `explain_all` workload:
//!
//! * **before** — the pre-engine path: the lazy-greedy driver over row
//!   lists, sequential, no index ([`Srk::explain`], what plain
//!   `cce explain` runs);
//! * **lazy_seq** — the same driver over the bitset index, still
//!   sequential ([`ContextIndex::explain`], reusing the thread's live
//!   sets and candidate heap across targets);
//! * **after** — the full engine: lazy greedy + per-thread buffer reuse +
//!   duplicate-row memoization + work-stealing scheduler
//!   ([`Cce::explain_all_parallel`]).
//!
//! Alongside wall-clock rows/sec it records p50/p99 per-key latency, the
//! memo hit rate, and the observability counters the optimizations move
//! (`cce_explain_violator_scans_total`, `cce_lazy_greedy_skips_total`).
//!
//! A separate **large-context** entry exercises the direct indexed path
//! (SIMD kernels, one thread) at production scale: one Loan context of
//! 1 000 000 rows (200 000 in `--quick`), explained at ~512 sampled
//! targets through [`ContextIndex::explain`], reporting index build
//! time and `explains_per_sec` — the number the kernel work moves.
//!
//! Flags / environment:
//!
//! * `--quick` or `CCE_BENCH_QUICK=1` — 2 000-row contexts and a
//!   200 000-row large entry (CI mode; default is the 10 000-row /
//!   1 000 000-row workload of the acceptance criteria),
//! * `--out <path>` — output path (default `BENCH_batch.json`),
//! * `--baseline <path>` — compare against a previous run and exit
//!   non-zero when `after` rows/sec or the large entry's
//!   `explains_per_sec` regresses by more than 20% — or when the
//!   baseline itself is malformed (shape mismatch, zero/NaN fields):
//!   a silently-skipped gate passes every regression.

use std::time::Instant;

use cce_bench::gate;
use cce_core::{Alpha, Cce, CceConfig, Context, ContextIndex, Srk};
use cce_dataset::{synth, BinSpec};

/// One `(dataset, buckets, alpha)` measurement.
struct RunResult {
    dataset: &'static str,
    buckets: usize,
    alpha: f64,
    rows: usize,
    classes: usize,
    memo_hit_rate: f64,
    before_rows_per_sec: f64,
    lazy_seq_rows_per_sec: f64,
    after_rows_per_sec: f64,
    speedup: f64,
    p50_ns: u64,
    p99_ns: u64,
    violator_scans_before: u64,
    violator_scans_after: u64,
    lazy_skip_ratio: f64,
}

/// Sums a counter family's value, optionally restricted to one `algo`
/// label, from a fresh registry snapshot.
fn counter_value(name: &str, algo: Option<&str>) -> u64 {
    cce_obs::registry()
        .snapshot()
        .entries
        .iter()
        .filter(|e| {
            e.name == name
                && algo.is_none_or(|a| e.labels.get("algo").map(String::as_str) == Some(a))
        })
        .map(|e| match e.value {
            cce_obs::MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Runs `f` `reps` times and returns the fastest wall-clock seconds.
fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn run_config(
    dataset: &'static str,
    buckets: usize,
    alpha_v: f64,
    rows: usize,
    threads: usize,
    reps: usize,
) -> RunResult {
    // Generate at the exact requested row count (`general_dataset` scales
    // the paper's sizes; the bench wants a controlled context).
    let raw = match dataset {
        "Loan" => synth::loan::generate(rows, 42),
        "Compas" => synth::compas::generate(rows, 42),
        other => panic!("unsupported bench dataset {other}"),
    };
    let ds = raw.encode(&BinSpec::uniform(buckets));
    let ctx = Context::from_recorded(&ds);
    let alpha = Alpha::new(alpha_v).expect("valid alpha");
    let n = ctx.len();

    // Every measured side pays the full `explain_all` cost, index build
    // included — that is what the batch entry point actually does.

    // --- before: the row-list scan, no index (plain `cce explain`) ------
    let scans_srk_0 = counter_value("cce_explain_violator_scans_total", Some("srk"));
    let mut before_keys = 0usize;
    let srk = Srk::new(alpha);
    let before_secs = time_best(reps, || {
        let mut keys = 0usize;
        for t in 0..n {
            keys += usize::from(srk.explain(&ctx, t).is_ok());
        }
        before_keys = keys;
    });
    let violator_scans_before = (counter_value("cce_explain_violator_scans_total", Some("srk"))
        - scans_srk_0)
        / reps as u64;

    // --- lazy sequential over the index --------------------------------
    let scans_lazy_0 = counter_value("cce_explain_violator_scans_total", Some("indexed"));
    let skips_0 = counter_value("cce_lazy_greedy_skips_total", None);
    let mut lazy_keys = 0usize;
    let lazy_secs = time_best(reps, || {
        let idx = ContextIndex::new(&ctx);
        let mut keys = 0usize;
        for t in 0..n {
            keys += usize::from(idx.explain(&ctx, t, alpha).is_ok());
        }
        lazy_keys = keys;
    });
    let violator_scans_after = (counter_value("cce_explain_violator_scans_total", Some("indexed"))
        - scans_lazy_0)
        / reps as u64;
    let lazy_skips = (counter_value("cce_lazy_greedy_skips_total", None) - skips_0) / reps as u64;
    assert_eq!(
        before_keys, lazy_keys,
        "indexed and row-list paths must succeed on identical targets"
    );

    // --- per-key latency percentiles (separate pass: the per-key timer
    // pairs would otherwise inflate the throughput numbers) -------------
    let idx = ContextIndex::new(&ctx);
    let mut per_key_ns: Vec<u64> = Vec::with_capacity(n);
    for t in 0..n {
        let k0 = Instant::now();
        let _ = idx.explain(&ctx, t, alpha);
        per_key_ns.push(k0.elapsed().as_nanos() as u64);
    }

    // --- after: the full engine (memo + work stealing) -----------------
    let cce = Cce::with_context(
        ctx.clone(),
        CceConfig {
            alpha,
            ..CceConfig::default()
        },
    );
    let warm = cce.explain_all_parallel(threads); // warm-up + correctness
    assert_eq!(warm.len(), lazy_keys, "engine must produce the same keys");
    let after_secs = time_best(reps, || {
        assert_eq!(cce.explain_all_parallel(threads).len(), lazy_keys);
    });

    let (class_reps, _) = ctx.duplicate_classes();
    let classes = class_reps.len();
    per_key_ns.sort_unstable();
    let denom = violator_scans_after + lazy_skips;
    RunResult {
        dataset,
        buckets,
        alpha: alpha_v,
        rows: n,
        classes,
        memo_hit_rate: (n - classes) as f64 / n as f64,
        before_rows_per_sec: n as f64 / before_secs,
        lazy_seq_rows_per_sec: n as f64 / lazy_secs,
        after_rows_per_sec: n as f64 / after_secs,
        speedup: before_secs / after_secs,
        p50_ns: cce_obs::nearest_rank(&per_key_ns, 0.50),
        p99_ns: cce_obs::nearest_rank(&per_key_ns, 0.99),
        violator_scans_before,
        violator_scans_after,
        lazy_skip_ratio: if denom == 0 {
            0.0
        } else {
            lazy_skips as f64 / denom as f64
        },
    }
}

/// The 1M-row (200k in quick mode) single-huge-context measurement:
/// index build time plus sampled-target explain throughput through the
/// direct indexed path.
struct LargeResult {
    dataset: &'static str,
    rows: usize,
    targets: usize,
    kernels: &'static str,
    index_build_ms: f64,
    explains_per_sec: f64,
    /// Fractional µs: at quick-mode sizes an indexed explain is
    /// sub-microsecond, and integer-µs truncation reported `p50_us: 0`.
    p50_us: f64,
    p99_us: f64,
}

fn run_large(rows: usize) -> LargeResult {
    let raw = synth::loan::generate(rows, 42);
    let ds = raw.encode(&BinSpec::uniform(10));
    let ctx = Context::from_recorded(&ds);
    let alpha = Alpha::ONE;

    let t0 = Instant::now();
    let idx = ContextIndex::new(&ctx);
    let index_build_ms = t0.elapsed().as_secs_f64() * 1_000.0;

    // Explaining every row of a 1M context would take the eager-scale
    // path minutes; ~512 evenly-spaced targets measure the same kernel
    // work with stable statistics.
    let n_targets = 512.min(rows);
    let step = (rows / n_targets).max(1);
    let targets: Vec<usize> = (0..n_targets).map(|i| i * step).collect();
    // Warm-up pass (page in the postings, settle the kernel dispatch).
    for &t in targets.iter().take(32) {
        let _ = idx.explain(&ctx, t, alpha);
    }
    let mut per_key_ns: Vec<u64> = Vec::with_capacity(targets.len());
    let t1 = Instant::now();
    for &t in &targets {
        let k0 = Instant::now();
        let _ = idx.explain(&ctx, t, alpha);
        per_key_ns.push(k0.elapsed().as_nanos() as u64);
    }
    let secs = t1.elapsed().as_secs_f64();
    per_key_ns.sort_unstable();
    LargeResult {
        dataset: "Loan",
        rows,
        targets: targets.len(),
        kernels: cce_core::kernels::active().name,
        index_build_ms,
        explains_per_sec: targets.len() as f64 / secs.max(1e-9),
        p50_us: cce_obs::nearest_rank(&per_key_ns, 0.50) as f64 / 1_000.0,
        p99_us: cce_obs::nearest_rank(&per_key_ns, 0.99) as f64 / 1_000.0,
    }
}

fn large_to_json(l: &LargeResult) -> String {
    format!(
        "  \"large_context\": {{\"dataset\": \"{}\", \"rows\": {}, \"targets\": {}, \
         \"kernels\": \"{}\", \"index_build_ms\": {:.1}, \
         \"explains_per_sec\": {:.1}, \"p50_us\": {:.3}, \"p99_us\": {:.3}}},\n",
        l.dataset,
        l.rows,
        l.targets,
        l.kernels,
        l.index_build_ms,
        l.explains_per_sec,
        l.p50_us,
        l.p99_us
    )
}

fn to_json(
    results: &[RunResult],
    large: &LargeResult,
    rows: usize,
    threads: usize,
    quick: bool,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"batch_engine\",\n");
    out.push_str(&format!("  \"rows\": {rows},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&large_to_json(large));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"dataset\": \"{}\", ", r.dataset));
        out.push_str(&format!("\"buckets\": {}, ", r.buckets));
        out.push_str(&format!("\"alpha\": {}, ", r.alpha));
        out.push_str(&format!("\"rows\": {}, ", r.rows));
        out.push_str(&format!("\"classes\": {}, ", r.classes));
        out.push_str(&format!("\"memo_hit_rate\": {:.4}, ", r.memo_hit_rate));
        out.push_str(&format!(
            "\"before_rows_per_sec\": {:.1}, ",
            r.before_rows_per_sec
        ));
        out.push_str(&format!(
            "\"lazy_seq_rows_per_sec\": {:.1}, ",
            r.lazy_seq_rows_per_sec
        ));
        out.push_str(&format!(
            "\"after_rows_per_sec\": {:.1}, ",
            r.after_rows_per_sec
        ));
        out.push_str(&format!("\"speedup\": {:.2}, ", r.speedup));
        out.push_str(&format!("\"p50_ns\": {}, ", r.p50_ns));
        out.push_str(&format!("\"p99_ns\": {}, ", r.p99_ns));
        out.push_str(&format!(
            "\"violator_scans_before\": {}, ",
            r.violator_scans_before
        ));
        out.push_str(&format!(
            "\"violator_scans_after\": {}, ",
            r.violator_scans_after
        ));
        out.push_str(&format!("\"lazy_skip_ratio\": {:.4}", r.lazy_skip_ratio));
        out.push('}');
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Gates both the batch-engine throughput and the large-context explain
/// rate; returns the total failure count (0 = pass).
fn check_baseline(current: &str, baseline: &str) -> usize {
    gate::check_key(current, baseline, "after_rows_per_sec")
        + gate::check_key(current, baseline, "explains_per_sec")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let quick = flag("--quick")
        || std::env::var("CCE_BENCH_QUICK")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
    let out_path = opt("--out").unwrap_or_else(|| "BENCH_batch.json".to_string());
    let baseline_path = opt("--baseline");
    let rows = if quick { 2_000 } else { 10_000 };
    let reps = if quick { 2 } else { 3 };
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);

    // The acceptance workload (Loan at α ∈ {1.0, 0.95}) plus a coarse
    // 4-bucket encode, where binning collisions make rows collide and the
    // duplicate-row memoization carries the win.
    let configs: [(&'static str, usize, f64); 3] =
        [("Loan", 10, 1.0), ("Loan", 10, 0.95), ("Loan", 4, 1.0)];
    let mut results = Vec::new();
    for (dataset, buckets, alpha) in configs {
        eprintln!("running {dataset} buckets={buckets} α={alpha} rows={rows} threads={threads}…");
        let r = run_config(dataset, buckets, alpha, rows, threads, reps);
        eprintln!(
            "  before {:>9.0} rows/s | lazy seq {:>9.0} | engine {:>9.0} ({:.2}×) | memo {:.0}% | skip {:.0}%",
            r.before_rows_per_sec,
            r.lazy_seq_rows_per_sec,
            r.after_rows_per_sec,
            r.speedup,
            r.memo_hit_rate * 100.0,
            r.lazy_skip_ratio * 100.0
        );
        results.push(r);
    }

    let large_rows = if quick { 200_000 } else { 1_000_000 };
    eprintln!("running large-context Loan rows={large_rows} (direct indexed path)…");
    let large = run_large(large_rows);
    eprintln!(
        "  kernels={} | index build {:.0} ms | {:.1} explains/s (p50 {:.3} µs, p99 {:.3} µs over {} targets)",
        large.kernels,
        large.index_build_ms,
        large.explains_per_sec,
        large.p50_us,
        large.p99_us,
        large.targets
    );

    let json = to_json(&results, &large, rows, threads, quick);
    std::fs::write(&out_path, &json).expect("write bench json");
    eprintln!("wrote {out_path}");
    cce_bench::dump_metrics("bench_batch");

    if let Some(bp) = baseline_path {
        match std::fs::read_to_string(&bp) {
            Ok(baseline) => {
                let failures = check_baseline(&json, &baseline);
                if failures > 0 {
                    eprintln!("{failures} gate failure(s) against {bp}");
                    std::process::exit(1);
                }
                eprintln!("no regressions against {bp}");
            }
            Err(e) => {
                eprintln!("GATE FAILURE: baseline {bp} unreadable ({e})");
                std::process::exit(1);
            }
        }
    }
}
