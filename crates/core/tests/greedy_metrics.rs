//! The greedy driver is generic, but its metrics are not: each concrete
//! caller records a run under its own literal `algo` label. A label
//! interned inside the generic driver would be shared by every source
//! (one call-site `static` per generic function), filing paged counts
//! under `algo="indexed"` or the reverse. This file holds one test so
//! no concurrent test in the same process moves the counters it reads.

use cce_core::persist::MemVfs;
use cce_core::{pagestore::write_store, Alpha, Context, ContextIndex, PagedContextIndex, Srk};
use cce_dataset::{synth, BinSpec};

fn scans(algo: &str) -> u64 {
    cce_obs::registry()
        .snapshot()
        .entries
        .iter()
        .filter(|e| {
            e.name == "cce_explain_violator_scans_total"
                && e.labels.get("algo").map(String::as_str) == Some(algo)
        })
        .map(|e| match e.value {
            cce_obs::MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

#[test]
fn indexed_and_paged_explains_count_under_their_own_labels() {
    let ds = synth::loan::generate(300, 42).encode(&BinSpec::uniform(8));
    let ctx = Context::from_recorded(&ds);
    // A target needing two or more features: only rounds after the
    // first evaluate candidates against the live violators.
    let target = (0..ctx.len())
        .find(|&t| {
            Srk::new(Alpha::ONE)
                .explain(&ctx, t)
                .is_ok_and(|k| k.succinctness() >= 2)
        })
        .expect("some Loan target needs a multi-feature key");
    let index = ContextIndex::new(&ctx);
    let mut vfs = MemVfs::new();
    write_store(&mut vfs, "ctx.pg", &ctx, 4096, &[]).expect("convert");
    let paged = PagedContextIndex::open(vfs, "ctx.pg", 1 << 20).expect("open");

    let (indexed0, paged0) = (scans("indexed"), scans("paged"));
    index.explain(&ctx, target, Alpha::ONE).unwrap();
    let (indexed1, paged1) = (scans("indexed"), scans("paged"));
    assert!(indexed1 > indexed0, "an indexed explain moves algo=indexed");
    assert_eq!(paged1, paged0, "an indexed explain leaves algo=paged alone");

    paged.explain_row(target, Alpha::ONE).unwrap();
    let (indexed2, paged2) = (scans("indexed"), scans("paged"));
    assert!(paged2 > paged1, "a paged explain moves algo=paged");
    assert_eq!(
        indexed2, indexed1,
        "a paged explain leaves algo=indexed alone"
    );
    assert_eq!(
        paged2 - paged1,
        indexed1 - indexed0,
        "both sources evaluate the same candidates"
    );
}
