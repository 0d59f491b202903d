//! Churn differential tests: a delta-patched engine must be
//! *indistinguishable* from a freshly rebuilt one.
//!
//! The tentpole invariant — explains served off an index mutated in
//! place by insert/delete deltas (free-slot reuse, seed-table cell
//! patches, incremental twin-hash certificate) are **byte-identical** to
//! explains off an index built from scratch over the same live rows —
//! checked under:
//!
//! * random interleavings of insert / ΔI-evict / explain / **drain and
//!   refill** (every live row evicted, then as many pushed back, so every
//!   slot is freed and reused in a new order);
//! * word-boundary row counts (the stream is steered through 64 and 128
//!   live rows, where `RowSet` words are exactly full and the free-slot
//!   complement has no padding tail);
//! * budgeted *and* unlimited explains (degradation points must survive
//!   patching too);
//! * a kill-during-churn crash test: a WAL-durable [`SlidingWindow`]
//!   whose recovery bulk-builds the index once and then **re-applies the
//!   pending deltas** from the WAL — the recovered window must be
//!   byte-identical in persisted state *and* in explain output to a
//!   never-crashed reference.

use std::sync::Arc;

use cce_core::engine::BatchEngine;
use cce_core::persist::{FaultPlan, MemVfs, PersistError, PersistState};
use cce_core::{Alpha, Context, Durable, ResolutionPolicy, SlidingWindow, Srk, WorkBudget};
use cce_dataset::{FeatureDef, Instance, Label, Schema};
use proptest::prelude::*;

const N_FEATURES: usize = 4;
const CARD: u32 = 3;

fn schema() -> Arc<Schema> {
    let names: Vec<String> = (0..CARD).map(|v| format!("v{v}")).collect();
    let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    let feats = (0..N_FEATURES)
        .map(|f| FeatureDef::categorical(&format!("f{f}"), &name_refs))
        .collect();
    Arc::new(Schema::new(feats))
}

/// Deterministic row material: row `i` of the pool.
fn pool_row(i: usize) -> (Instance, Label) {
    let mut s = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next = || {
        s ^= s >> 30;
        s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        s ^= s >> 27;
        (s >> 33) as u32
    };
    let vals: Vec<u32> = (0..N_FEATURES).map(|_| next() % CARD).collect();
    let label = Label(next() % 2);
    (Instance::new(vals), label)
}

fn empty_engine() -> BatchEngine {
    BatchEngine::new(Context::new(schema(), Vec::new(), Vec::new()), Alpha::ONE)
}

/// Asserts every live logical target explains byte-identically on the
/// churned engine and on a from-scratch engine over the same live rows,
/// at an unlimited and a tight budget.
fn assert_matches_rebuild(engine: &BatchEngine) {
    let fresh = BatchEngine::new(engine.materialize(), engine.alpha());
    assert_eq!(engine.len(), fresh.len());
    let targets: Vec<usize> = (0..engine.len()).collect();
    for budget in [WorkBudget::unlimited(), WorkBudget::new(25)] {
        assert_eq!(
            engine.explain_batch(&targets, budget, 2),
            fresh.explain_batch(&targets, budget, 2),
            "patched engine diverged from rebuild (budget {budget:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of insert / ΔI-evict / explain / drain and
    /// refill. The op stream is interpreted over a deterministic row
    /// pool; after every explain op and at the end, the churned engine is
    /// differentially compared against a fresh rebuild.
    #[test]
    fn random_churn_matches_rebuild(
        ops in proptest::collection::vec(0u8..=9, 12..=48),
        seed in 0usize..1_000,
    ) {
        let mut engine = empty_engine();
        let mut next_row = seed;
        for (i, &op) in ops.iter().enumerate() {
            match op {
                // Weighted toward inserts so contexts actually grow.
                0..=4 => {
                    for _ in 0..=(op as usize % 3) {
                        let (x, p) = pool_row(next_row);
                        next_row += 1;
                        prop_assert!(engine.push(x, p).is_ok());
                    }
                }
                5 | 6 => {
                    engine.evict_oldest(1 + (i % 3));
                }
                7 => {
                    let live = engine.len();
                    engine.evict_oldest(live);
                    for _ in 0..live {
                        let (x, p) = pool_row(next_row);
                        next_row += 1;
                        prop_assert!(engine.push(x, p).is_ok());
                    }
                }
                _ => {
                    // Spot-check one target cheaply, full check rarely.
                    if !engine.is_empty() {
                        let t = (seed + i) % engine.len();
                        let fresh = BatchEngine::new(engine.materialize(), Alpha::ONE);
                        prop_assert_eq!(
                            engine.explain_one(t, WorkBudget::unlimited()),
                            fresh.explain_one(t, WorkBudget::unlimited()),
                            "mid-stream divergence at op {} target {}", i, t
                        );
                    }
                }
            }
        }
        assert_matches_rebuild(&engine);
    }

    /// Steers the live count exactly onto the 64- and 128-row word
    /// boundaries with free slots present, then compares.
    #[test]
    fn word_boundary_live_counts_match_rebuild(
        two_words in 0u8..2,
        extra in 1usize..32,
        seed in 0usize..1_000,
    ) {
        let boundary = if two_words == 1 { 128usize } else { 64 };
        let mut engine = empty_engine();
        // Overshoot the boundary, then evict the oldest `extra` rows so
        // live == boundary with `extra` free slots.
        for i in 0..boundary + extra {
            let (x, p) = pool_row(seed + i);
            prop_assert!(engine.push(x, p).is_ok());
        }
        engine.evict_oldest(extra);
        prop_assert_eq!(engine.len(), boundary);
        prop_assert!(engine.tombstones() > 0, "boundary case needs tombstones");
        assert_matches_rebuild(&engine);
    }

    /// Transient membership: every arrival is explained ad hoc (the
    /// sliding window's visitor path) against the mutating engine; the
    /// result must equal appending the visitor to a materialized context
    /// and running SRK, and the probe must leave the live rows and the
    /// version alone. Across the whole stream the probes may add at most
    /// one slot beyond the peak live count (a free slot the next push
    /// reuses).
    #[test]
    fn adhoc_probes_leave_no_trace_under_churn(
        ops in proptest::collection::vec(0u8..=3, 8..=24),
        seed in 0usize..1_000,
    ) {
        let mut engine = empty_engine();
        let srk = Srk::new(Alpha::ONE);
        let mut peak = 0;
        for (next_row, &op) in (seed..).zip(ops.iter()) {
            let (x, p) = pool_row(next_row);
            match op {
                0..=1 => { prop_assert!(engine.push(x, p).is_ok()); }
                2 => { engine.evict_oldest(1); }
                _ => {
                    let before = (engine.len(), engine.version());
                    let got = engine.explain_adhoc(&x, p).map(|b| b.key);
                    let mut joined = engine.materialize();
                    joined.push(x, p).unwrap();
                    let want = srk.explain(&joined, joined.len() - 1);
                    prop_assert_eq!(got, want, "adhoc probe diverged");
                    prop_assert_eq!(
                        (engine.len(), engine.version()),
                        before,
                        "adhoc probe mutated the engine"
                    );
                }
            }
            peak = peak.max(engine.len());
            prop_assert!(
                engine.len() + engine.tombstones() <= peak + 1,
                "adhoc probes grew the slot universe"
            );
        }
        assert_matches_rebuild(&engine);
    }
}

/// Kill-during-churn: drive a WAL-durable sliding window (small enough
/// that ΔI slides fire during the run) into a crash at many points.
/// Recovery decodes the checkpoint (one bulk index build), then replays
/// the WAL tail — each replayed arrival an insert/evict delta. The
/// recovered window must match a never-crashed reference byte-for-byte
/// in persisted state and in explain output.
#[test]
fn kill_during_churn_recovers_delta_coherent_state() {
    const DIR: &str = "cw";
    const EVERY: u64 = 16;
    const CAPACITY: usize = 24;
    const DELTA: usize = 6;
    let fresh_window = || {
        SlidingWindow::new(
            schema(),
            CAPACITY,
            DELTA,
            Alpha::ONE,
            ResolutionPolicy::LastWins,
        )
    };
    let mut crashed_cases = 0;
    for kill_after in [5u64, 19, 41, 83, 131, 211] {
        let vfs = MemVfs::with_plan(FaultPlan::crash_after(kill_after), kill_after);
        let durable = match Durable::create(fresh_window(), vfs.clone(), DIR, EVERY) {
            Ok(d) => d,
            Err(e) => {
                assert_eq!(e, PersistError::Crashed, "create may only fail by dying");
                crashed_cases += 1;
                continue;
            }
        };
        let mut durable = durable;
        let mut acked = 0usize;
        for i in 0..96 {
            let (x, p) = pool_row(i);
            match durable.observe(&x, p) {
                Ok(()) => acked += 1,
                Err(PersistError::Crashed) => break,
                Err(e) => panic!("unexpected persist error mid-churn: {e}"),
            }
        }
        if !vfs.has_crashed() {
            continue;
        }
        crashed_cases += 1;

        let (recovered, _replayed) =
            Durable::<SlidingWindow, _>::resume(vfs.into_rebooted(), DIR, EVERY)
                .expect("resume after crash");
        let recovered = recovered.into_state();

        // Every WAL-acked arrival survived. The crash may additionally
        // have landed ONE in-flight arrival durably (fsynced before the
        // kill but never acknowledged), so the recovered state must be
        // byte-identical to a never-crashed run over `acked` or
        // `acked + 1` arrivals — nothing else.
        let reference_over = |n: usize| {
            let mut w = fresh_window();
            for i in 0..n {
                let (x, p) = pool_row(i);
                w.push(x, p).expect("reference push");
            }
            w
        };
        let survived = (acked..=acked + 1)
            .find(|&n| reference_over(n).state_bytes() == recovered.state_bytes())
            .unwrap_or_else(|| {
                panic!(
                    "kill@{kill_after}: recovered state matches neither {acked} nor {} arrivals",
                    acked + 1
                )
            });
        let mut reference = reference_over(survived);

        // And the recovered (bulk-built + replay-patched) engine explains
        // identically to the reference (pure delta-patched) engine.
        let mut recovered = recovered;
        let (probe_x, probe_p) = pool_row(500);
        assert_eq!(
            recovered.explain(&probe_x, probe_p),
            reference.explain(&probe_x, probe_p),
            "kill@{kill_after}: recovered explain diverged"
        );
        let fresh = BatchEngine::new(recovered.context(), Alpha::ONE);
        let targets: Vec<usize> = (0..fresh.len()).collect();
        assert_eq!(
            recovered
                .engine()
                .explain_batch(&targets, WorkBudget::unlimited(), 2),
            fresh.explain_batch(&targets, WorkBudget::unlimited(), 2),
            "kill@{kill_after}: recovered engine diverged from rebuild"
        );
    }
    assert!(
        crashed_cases >= 3,
        "fault plan must actually fire in most cases (fired {crashed_cases})"
    );
}
