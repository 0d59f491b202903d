//! `exp_bench_churn` — measures incremental ΔI index maintenance and
//! writes `BENCH_churn.json`.
//!
//! The tentpole claim under test: patching the [`ContextIndex`](cce_core::ContextIndex) in place
//! (insert/evict deltas — free-slot reuse, seed-table cell patches,
//! incremental twin-hash certificate) makes a context arrival
//! **explainable ≥10× faster** than the pre-delta path, which rebuilt
//! the whole engine (index + duplicate-class partition) on any change.
//! Measured at 100 000 live rows — the "100k+" scale the acceptance
//! criteria name — in quick mode too: the update path is cheap enough
//! that CI affords the real context size, only the event counts shrink.
//!
//! Reported entries:
//!
//! * **arrival-to-explainable latency** — per-arrival wall-clock until
//!   the engine can serve explains again: one [`BatchEngine::push`]
//!   delta (patch) vs one full [`BatchEngine::new`] rebuild over the
//!   grown context (rebuild); p50/p99 µs for the patch side, mean ms
//!   for the rebuild side (a rebuild has no meaningful per-event
//!   distribution at the rep counts a bench can afford);
//! * **sustained churn throughput** — a steady-state ΔI sliding window
//!   (push + [`LiveWindow::slide`] granule eviction, evicted slots reused
//!   by later arrivals) in events/sec, patch vs rebuild-per-granule;
//! * **window_max_arrival_us** — the slowest single arrival (push plus
//!   any slide it completes) of that window loop; printed, not gated;
//! * **update_speedup** — rebuild mean latency over patch p50 latency.
//!   The bench itself enforces the acceptance bound (`≥ 10×`) and
//!   exits non-zero below it, baseline or no baseline.
//!
//! Flags / environment:
//!
//! * `--quick` or `CCE_BENCH_QUICK=1` — fewer churn events (CI mode);
//!   the context stays at 100k rows,
//! * `--out <path>` — output path (default `BENCH_churn.json`),
//! * `--baseline <path>` — compare against a previous run and exit
//!   non-zero when `patch_events_per_sec` or `update_speedup` regresses
//!   by more than 20% — or when the baseline itself is malformed
//!   (missing keys, shape mismatch, zero/NaN fields): a silently-skipped
//!   gate passes every regression.

use std::time::Instant;

use cce_bench::gate;
use cce_core::engine::BatchEngine;
use cce_core::{Alpha, Context, LiveWindow, WorkBudget};
use cce_dataset::{synth, BinSpec, Instance, Label};

struct ChurnResult {
    rows: usize,
    events: usize,
    kernels: &'static str,
    /// Patch side: per-arrival insert-delta latency.
    patch_p50_us: f64,
    patch_p99_us: f64,
    /// Rebuild side: full engine rebuild per arrival (the pre-delta
    /// behavior), mean over `rebuild_reps`.
    rebuild_mean_ms: f64,
    /// rebuild mean / patch p50 — the acceptance ratio.
    update_speedup: f64,
    /// Steady-state ΔI window events/sec (push and slide deltas).
    patch_events_per_sec: f64,
    /// Slowest single arrival of the steady-state window loop.
    window_max_arrival_us: f64,
    /// Steady-state events/sec when every ΔI granule pays a rebuild.
    rebuild_events_per_sec: f64,
    /// Post-churn explain latency through the patched index (sanity:
    /// patching must not degrade the read side).
    explain_p50_us: f64,
}

fn run(rows: usize, events: usize, rebuild_reps: usize) -> ChurnResult {
    let raw = synth::loan::generate(rows + events + events, 42);
    let ds = raw.encode(&BinSpec::uniform(10));
    let pool = Context::from_recorded(&ds);
    let alpha = Alpha::ONE;
    let arrivals: Vec<(Instance, Label)> = (rows..rows + events + events)
        .map(|r| (pool.instance(r).clone(), pool.prediction(r)))
        .collect();

    let base_ctx = {
        let xs: Vec<Instance> = (0..rows).map(|r| pool.instance(r).clone()).collect();
        let ps: Vec<Label> = (0..rows).map(|r| pool.prediction(r)).collect();
        Context::new(pool.schema_arc(), xs, ps)
    };

    eprintln!("  building base engine over {rows} rows…");
    let mut engine = BatchEngine::new(base_ctx.clone(), alpha);

    // --- arrival-to-explainable: patch side ----------------------------
    // Each event is one insert delta; the engine is explainable the
    // moment push returns (no rebuild, no invalidation).
    let mut per_event_ns: Vec<u64> = Vec::with_capacity(events);
    for (x, p) in arrivals.iter().take(events).cloned() {
        let t0 = Instant::now();
        engine.push(x, p).expect("arrival width matches");
        per_event_ns.push(t0.elapsed().as_nanos() as u64);
    }
    per_event_ns.sort_unstable();
    let patch_p50_us = cce_obs::nearest_rank(&per_event_ns, 0.50) as f64 / 1_000.0;
    let patch_p99_us = cce_obs::nearest_rank(&per_event_ns, 0.99) as f64 / 1_000.0;

    // The patched engine must actually serve: explain freshly arrived
    // rows and record the read-side latency.
    let mut explain_ns: Vec<u64> = Vec::new();
    for i in 0..32.min(events) {
        let t = engine.len() - 1 - i;
        let t0 = Instant::now();
        // A NoConformantKey is a legitimate (and fully computed) answer
        // for a contradictory arrival at α = 1; only the latency matters.
        let _ = engine.explain_one(t, WorkBudget::unlimited());
        explain_ns.push(t0.elapsed().as_nanos() as u64);
    }
    explain_ns.sort_unstable();
    let explain_p50_us = cce_obs::nearest_rank(&explain_ns, 0.50) as f64 / 1_000.0;

    // --- arrival-to-explainable: rebuild side --------------------------
    // The pre-delta behavior: any context change invalidates the engine,
    // so the arrival is explainable only after a full rebuild of the
    // grown context.
    let grown = engine.materialize();
    let mut rebuild_secs = 0.0;
    for _ in 0..rebuild_reps {
        let ctx = grown.clone();
        let t0 = Instant::now();
        let rebuilt = BatchEngine::new(ctx, alpha);
        rebuild_secs += t0.elapsed().as_secs_f64();
        assert_eq!(rebuilt.len(), engine.len());
    }
    let rebuild_mean_ms = rebuild_secs / rebuild_reps as f64 * 1_000.0;
    let update_speedup = (rebuild_mean_ms * 1_000.0) / patch_p50_us.max(1e-9);

    // --- sustained churn throughput: patch side ------------------------
    // Steady-state sliding window at the current size, ΔI = 64: every
    // arrival is a push delta, every 64th completes a granule eviction
    // whose freed slots the next arrivals reuse.
    const DELTA: usize = 64;
    let window = LiveWindow {
        capacity: engine.len(),
        delta: DELTA,
    };
    let mut staged = 0usize;
    let mut max_arrival_ns = 0u128;
    let t0 = Instant::now();
    for (x, p) in arrivals.iter().skip(events).take(events).cloned() {
        let t = Instant::now();
        engine.push(x, p).expect("arrival width matches");
        window.slide(&mut engine, &mut staged);
        max_arrival_ns = max_arrival_ns.max(t.elapsed().as_nanos());
    }
    let patch_events_per_sec = events as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let window_max_arrival_us = max_arrival_ns as f64 / 1_000.0;

    // --- sustained churn throughput: rebuild side ----------------------
    // The same slide pattern when every ΔI granule pays a rebuild. A few
    // granules are plenty — each one costs a full index build.
    let granules = rebuild_reps.max(2);
    let mut xs: Vec<Instance> = grown.instances().to_vec();
    let mut ps: Vec<Label> = (0..grown.len()).map(|r| grown.prediction(r)).collect();
    let t0 = Instant::now();
    for g in 0..granules {
        let start = (g * DELTA) % events;
        for (x, p) in arrivals.iter().skip(start).take(DELTA).cloned() {
            xs.push(x);
            ps.push(p);
        }
        xs.drain(..DELTA);
        ps.drain(..DELTA);
        let rebuilt = BatchEngine::new(
            Context::new(pool.schema_arc(), xs.clone(), ps.clone()),
            alpha,
        );
        assert!(!rebuilt.is_empty());
    }
    let rebuild_events_per_sec = (granules * DELTA) as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    ChurnResult {
        rows,
        events,
        kernels: cce_core::kernels::active().name,
        patch_p50_us,
        patch_p99_us,
        rebuild_mean_ms,
        update_speedup,
        patch_events_per_sec,
        window_max_arrival_us,
        rebuild_events_per_sec,
        explain_p50_us,
    }
}

fn to_json(r: &ChurnResult, quick: bool) -> String {
    format!(
        "{{\n  \"bench\": \"churn\",\n  \"rows\": {},\n  \"events\": {},\n  \"quick\": {},\n  \"kernels\": \"{}\",\n  \
         \"patch_p50_us\": {:.2},\n  \"patch_p99_us\": {:.2},\n  \"rebuild_mean_ms\": {:.2},\n  \
         \"update_speedup\": {:.1},\n  \"patch_events_per_sec\": {:.1},\n  \
         \"window_max_arrival_us\": {:.1},\n  \
         \"rebuild_events_per_sec\": {:.1},\n  \"explain_p50_us\": {:.2}\n}}\n",
        r.rows,
        r.events,
        quick,
        r.kernels,
        r.patch_p50_us,
        r.patch_p99_us,
        r.rebuild_mean_ms,
        r.update_speedup,
        r.patch_events_per_sec,
        r.window_max_arrival_us,
        r.rebuild_events_per_sec,
        r.explain_p50_us,
    )
}

fn check_baseline(current: &str, baseline: &str) -> usize {
    gate::check_key(current, baseline, "patch_events_per_sec")
        + gate::check_key(current, baseline, "update_speedup")
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
    let out_path = opt("--out").unwrap_or_else(|| "BENCH_churn.json".to_string());
    let baseline_path = opt("--baseline");
    // The acceptance scale is "100k+ rows"; the delta path is cheap
    // enough that CI runs the real context size, so the ≥10× bound is
    // checked at scale in quick mode too.
    let rows = 100_000;
    let events = if quick { 2_000 } else { 10_000 };
    let rebuild_reps = if quick { 3 } else { 5 };

    eprintln!("running churn bench: rows={rows} events={events}…");
    let r = run(rows, events, rebuild_reps);
    eprintln!(
        "  patch p50 {:.1} µs (p99 {:.1}) | rebuild {:.1} ms | speedup {:.0}× | \
         sustained {:.0} ev/s patched (worst arrival {:.0} µs) vs {:.1} ev/s rebuilt | \
         explain p50 {:.1} µs",
        r.patch_p50_us,
        r.patch_p99_us,
        r.rebuild_mean_ms,
        r.update_speedup,
        r.patch_events_per_sec,
        r.window_max_arrival_us,
        r.rebuild_events_per_sec,
        r.explain_p50_us,
    );

    let json = to_json(&r, quick);
    std::fs::write(&out_path, &json).expect("write bench json");
    eprintln!("wrote {out_path}");
    cce_bench::dump_metrics("bench_churn");

    let mut failures = 0;
    // The acceptance bound holds unconditionally, baseline or not.
    if r.update_speedup < 10.0 {
        eprintln!(
            "ACCEPTANCE FAILURE: update_speedup {:.1}× < 10× at {} rows",
            r.update_speedup, r.rows
        );
        failures += 1;
    }
    if let Some(bp) = baseline_path {
        match std::fs::read_to_string(&bp) {
            Ok(baseline) => {
                let n = check_baseline(&json, &baseline);
                if n == 0 {
                    eprintln!("no regressions against {bp}");
                }
                failures += n;
            }
            Err(e) => {
                eprintln!("GATE FAILURE: baseline {bp} unreadable ({e})");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} gate failure(s)");
        std::process::exit(1);
    }
}
