//! Corruption and crash tests for the paged context store: a damaged
//! store must surface as a clean [`PersistError`] (at open) or an
//! [`ExplainError::Storage`] (at fault time) — **never** a panic and
//! never a silently wrong key.
//!
//! Mirrors `persist_roundtrip.rs` / `persist_crash.rs` for the new
//! subsystem:
//!
//! * single-byte flips anywhere in the file (header, page payloads,
//!   page CRCs, footer) — every flip is either detected or provably
//!   harmless (explains still match the in-RAM oracle);
//! * truncation at every length — always detected, because the footer
//!   lives at the end of the file;
//! * kill-at-op-N during `cce convert` with randomized unsynced-tail
//!   fates on reboot — the published path never holds a torn store, and
//!   a re-convert on the rebooted filesystem always recovers;
//! * injected short/torn *ranged reads* — the fault surfaces as an
//!   error on exactly the explain that consumed it;
//! * one rotted bitset page under concurrent explains — every explain
//!   that touches it errors, every other one is unchanged, and the bad
//!   page is never cached.

use std::sync::Arc;

use cce_core::persist::{FaultPlan, MemVfs, PersistError, ReadFault, Vfs};
use cce_core::{
    pagestore::write_store, Alpha, Context, ContextIndex, ExplainError, PageStore,
    PagedContextIndex,
};
use cce_dataset::{FeatureDef, Instance, Label, Schema};
use proptest::prelude::*;

const PATH: &str = "ctx.pg";

fn small_ctx() -> Context {
    let names = ["a", "b", "c"];
    let feats = (0..3)
        .map(|f| FeatureDef::categorical(&format!("f{f}"), &names))
        .collect();
    let instances = (0..50)
        .map(|r| {
            Instance::new(vec![
                (r % 3) as u32,
                ((r / 3) % 3) as u32,
                ((r * 7) % 3) as u32,
            ])
        })
        .collect();
    let predictions = (0..50).map(|r| Label((r % 2) as u32)).collect();
    Context::new(Arc::new(Schema::new(feats)), instances, predictions)
}

/// The store is valid iff every explain matches the in-RAM oracle; a
/// corrupt store must fail loudly somewhere on this path instead.
fn open_and_check(vfs: MemVfs, ctx: &Context) -> Result<(), String> {
    let paged = match PagedContextIndex::open(vfs, PATH, 1 << 16) {
        Ok(p) => p,
        Err(_) => return Ok(()), // detected at open: acceptable
    };
    let index = ContextIndex::new(ctx);
    for target in 0..ctx.len() {
        match paged.explain_row(target, Alpha::ONE) {
            Err(ExplainError::Storage { .. }) => {} // detected at fault: acceptable
            got => {
                let want = index.explain(ctx, target, Alpha::ONE);
                if got != want {
                    return Err(format!(
                        "silent corruption: target {target} returned {got:?}, oracle {want:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

fn written_store(ctx: &Context, page_size: usize) -> (MemVfs, Vec<u8>) {
    let mut vfs = MemVfs::new();
    write_store(&mut vfs, PATH, ctx, page_size, &[]).expect("convert");
    let bytes = vfs.read(PATH).expect("read").expect("store exists");
    (vfs, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flip one byte anywhere: detected, or provably harmless.
    #[test]
    fn single_byte_flips_are_detected_or_harmless(
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let ctx = small_ctx();
        let (mut vfs, mut bytes) = written_store(&ctx, 24);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << bit;
        vfs.write(PATH, &bytes).expect("write corrupted store");
        if let Err(msg) = open_and_check(vfs, &ctx) {
            panic!("{msg} (flip at byte {pos}, bit {bit})");
        }
    }

    /// Truncate at any length: always detected at open (the footer is
    /// the last thing in the file, so no prefix can validate).
    #[test]
    fn truncation_is_always_detected_at_open(cut_seed in any::<u64>()) {
        let ctx = small_ctx();
        let (mut vfs, bytes) = written_store(&ctx, 24);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        vfs.write(PATH, &bytes[..cut]).expect("write truncated store");
        prop_assert!(
            PageStore::open(vfs, PATH, 1 << 16).is_err(),
            "truncation to {} of {} bytes must not validate",
            cut,
            bytes.len()
        );
    }

    /// Inject a short or torn ranged read: the explain that consumes it
    /// errors (or the open fails); nothing panics, nothing lies.
    #[test]
    fn ranged_read_faults_error_cleanly(
        nth in 1u64..48,
        torn in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let ctx = small_ctx();
        let kind = if torn { ReadFault::Torn } else { ReadFault::Short };
        // Convert performs no ranged reads, so the fault fires during
        // the open/explain phase below.
        let mut vfs = MemVfs::with_plan(FaultPlan::fault_read(kind, nth), seed);
        write_store(&mut vfs, PATH, &ctx, 24, &[]).expect("convert is read-free");
        if let Err(msg) = open_and_check(vfs, &ctx) {
            panic!("{msg} (fault {kind:?} on ranged read {nth})");
        }
    }
}

/// Kill the "process" after each storage op during convert, reboot with
/// every unsynced-tail fate the VFS models, and require: the published
/// path either opens as a fully valid store (byte-equal explains) or
/// refuses to open — and a re-convert afterwards always recovers.
#[test]
fn kill_during_convert_is_torn_proof_and_recoverable() {
    let ctx = small_ctx();
    let oracle = ContextIndex::new(&ctx);
    // A clean convert takes only a handful of ops (chunked appends);
    // sweep well past it so the no-crash tail is covered too.
    for kill_after in 0..16u64 {
        for seed in [1u64, 7, 1234, 0xDEAD] {
            let mut vfs = MemVfs::with_plan(FaultPlan::crash_after(kill_after), seed);
            let converted = write_store(&mut vfs, PATH, &ctx, 32, &[]);
            let crashed = vfs.has_crashed();
            assert_eq!(
                converted.is_err(),
                crashed,
                "convert must fail iff the fault plan fired (kill {kill_after})"
            );
            let vfs = vfs.into_rebooted();

            // Phase 1: whatever survived must never serve torn data.
            match PagedContextIndex::open(vfs.clone(), PATH, 1 << 16) {
                Err(_) => {} // no published store (or tail-rotted rename) — fine
                Ok(paged) => {
                    for target in (0..ctx.len()).step_by(9) {
                        let want = oracle.explain(&ctx, target, Alpha::ONE);
                        match paged.explain_row(target, Alpha::ONE) {
                            Err(ExplainError::Storage { .. }) => {}
                            got => assert_eq!(
                                got, want,
                                "torn store served wrong bits (kill {kill_after}, seed {seed})"
                            ),
                        }
                    }
                }
            }

            // Phase 2: rebuild on the rebooted filesystem and verify.
            let mut vfs = vfs;
            write_store(&mut vfs, PATH, &ctx, 32, &[]).expect("re-convert after reboot");
            let paged = PagedContextIndex::open(vfs, PATH, 1 << 16).expect("rebuilt store opens");
            for target in (0..ctx.len()).step_by(11) {
                assert_eq!(
                    paged.explain_row(target, Alpha::ONE),
                    oracle.explain(&ctx, target, Alpha::ONE),
                    "rebuilt store diverged (kill {kill_after}, seed {seed})"
                );
            }
        }
    }
}

/// A failed convert must leave an existing valid store untouched: the
/// temp-file dance may die, but the published path keeps serving.
#[test]
fn failed_convert_preserves_the_previous_store() {
    let ctx = small_ctx();
    let oracle = ContextIndex::new(&ctx);
    let mut clean = MemVfs::new();
    write_store(&mut clean, PATH, &ctx, 24, &[]).expect("initial convert");

    let bytes = clean.read(PATH).expect("read").expect("store exists");

    // Re-convert under kill points sweeping every convert op. The plan
    // is armed at construction, so seeding the old store consumes the
    // first two gated ops (write + sync) — offset the kill past them.
    for kill_after in 0..8u64 {
        let mut planned = MemVfs::with_plan(FaultPlan::crash_after(kill_after + 3), 99);
        planned.write(PATH, &bytes).expect("seed planned vfs");
        planned.sync_file(PATH).expect("make it durable");
        let reconvert = write_store(&mut planned, PATH, &ctx, 32, &[]);
        if reconvert.is_ok() {
            continue; // kill point past the convert — nothing to check
        }
        let rebooted = planned.into_rebooted();
        let paged = match PagedContextIndex::open(rebooted, PATH, 1 << 16) {
            Ok(p) => p,
            // The interrupted convert may have completed its rename and
            // then lost the *unsynced* new file's tail at reboot; that
            // window tears the new file, not the old one, and open
            // detects it. What is forbidden is serving wrong bits.
            Err(_) => continue,
        };
        for target in (0..ctx.len()).step_by(13) {
            match paged.explain_row(target, Alpha::ONE) {
                Err(ExplainError::Storage { .. }) => {}
                got => assert_eq!(
                    got,
                    oracle.explain(&ctx, target, Alpha::ONE),
                    "stale/torn mix served wrong bits (kill {kill_after})"
                ),
            }
        }
    }
}

/// The writer's own config validation: page sizes the format cannot
/// express are rejected up front, before any byte is written.
#[test]
fn invalid_page_sizes_are_rejected() {
    let ctx = small_ctx();
    let mut vfs = MemVfs::new();
    for bad in [0usize, 7, 12, 20] {
        // 0 and 7: not multiples of 8; 12/20 too (row width is 16).
        let err = write_store(&mut vfs, PATH, &ctx, bad, &[]);
        assert!(
            matches!(err, Err(PersistError::Corrupt { .. })),
            "page size {bad}"
        );
    }
    // 8 < row_width (16): a whole record must fit one page.
    assert!(write_store(&mut vfs, PATH, &ctx, 8, &[]).is_err());
    assert!(
        vfs.read(PATH).expect("read").is_none(),
        "no partial file published"
    );
}

/// Four threads explain over a store with one flipped byte in a bitset
/// page. An explain touches that page iff, on a clean store opened
/// fresh with room for every page, the page is resident afterwards.
/// Each touching explain errors — on every pass, so the bad page never
/// reached the cache — and every other explain matches the oracle.
#[test]
fn concurrent_explains_over_one_rotted_page() {
    // Unlike `small_ctx`, whose every row has a flipped-label twin (so
    // explains end on the certificate without reading a bitset page),
    // these rows are mostly explainable.
    let names = ["a", "b", "c"];
    let feats = (0..4)
        .map(|f| FeatureDef::categorical(&format!("f{f}"), &names))
        .collect();
    let instances = (0..60u32)
        .map(|r| Instance::new((0..4).map(|f| (r * (f + 5) / (f + 2)) % 3).collect()))
        .collect();
    let predictions = (0..60).map(|r| Label(u32::from(r % 5 < 2))).collect();
    let ctx = Context::new(Arc::new(Schema::new(feats)), instances, predictions);
    let oracle = ContextIndex::new(&ctx);
    let (clean, mut bytes) = written_store(&ctx, 24);
    // Page 0 is the posting column of `f0 = a` (one page per column at
    // 60 rows); a third of the targets touch it.
    let bad_page = 0u64;
    let touches: Vec<bool> = (0..ctx.len())
        .map(|t| {
            let fresh = PagedContextIndex::open(clean.clone(), PATH, 1 << 20).expect("open");
            assert_eq!(
                fresh.explain_row(t, Alpha::ONE),
                oracle.explain(&ctx, t, Alpha::ONE)
            );
            let misses = fresh.cache_stats().misses;
            fresh.store().page(bad_page).expect("clean page");
            fresh.cache_stats().misses == misses
        })
        .collect();
    assert!(touches.iter().any(|&t| t) && !touches.iter().all(|&t| t));

    // Frames follow the 24-byte header at a 28-byte stride (24-byte
    // payload, CRC trailer); the flip lands inside the payload.
    bytes[24 + 28 * bad_page as usize + 5] ^= 0x10;
    let mut rotted = MemVfs::new();
    rotted.write(PATH, &bytes).expect("write rotted store");
    let paged = PagedContextIndex::open(rotted, PATH, 1 << 20).expect("footer intact");
    std::thread::scope(|scope| {
        for seed in 1..=4u64 {
            let (paged, ctx, oracle, touches) = (&paged, &ctx, &oracle, &touches);
            scope.spawn(move || {
                for pass in 0..2 {
                    for i in 0..ctx.len() {
                        let t = (i * 7 + seed as usize * 13 + pass) % ctx.len();
                        let got = paged.explain_row(t, Alpha::ONE);
                        if touches[t] {
                            assert!(
                                matches!(got, Err(ExplainError::Storage { .. })),
                                "target {t} touches the rotted page: {got:?}"
                            );
                        } else {
                            assert_eq!(got, oracle.explain(ctx, t, Alpha::ONE), "target {t}");
                        }
                    }
                }
            });
        }
    });
    assert!(
        paged.store().page(bad_page).is_err(),
        "bad page never cached"
    );
}
