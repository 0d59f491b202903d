//! Criterion bench: the batch explanation engine, layer by layer.
//!
//! Compares, on one shared `explain_all` workload:
//!
//! * `srk_seq` — the pre-engine baseline: the row-list scan, no index,
//! * `lazy_seq` — CELF lazy-greedy selection + fused popcounts + live-set
//!   reuse, still sequential,
//! * `engine_parallel` — the full engine: lazy greedy + duplicate-row
//!   memoization + work-stealing scheduler.

use cce_core::{Alpha, Cce, CceConfig, Context, ContextIndex, Srk};
use cce_dataset::{synth, BinSpec};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_batch_engine(c: &mut Criterion) {
    // Same workload family as `exp_bench_batch --quick`: a generated
    // Loan context large enough that bitset passes, not fixed per-call
    // overheads, dominate.
    let raw = synth::loan::generate(2_000, 42);
    let ctx = Context::from_recorded(&raw.encode(&BinSpec::uniform(10)));
    let ctx = &ctx;
    let n = ctx.len();
    let alpha = Alpha::ONE;
    let idx = ContextIndex::new(ctx);
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);

    let mut group = c.benchmark_group("batch_engine");
    let srk = Srk::new(alpha);
    group.bench_function(format!("srk_seq/{n}"), |b| {
        b.iter(|| {
            let mut keys = 0usize;
            for t in 0..n {
                keys += usize::from(srk.explain(ctx, t).is_ok());
            }
            std::hint::black_box(keys)
        });
    });
    group.bench_function(format!("lazy_seq/{n}"), |b| {
        b.iter(|| {
            let mut keys = 0usize;
            for t in 0..n {
                keys += usize::from(idx.explain(ctx, t, alpha).is_ok());
            }
            std::hint::black_box(keys)
        });
    });
    let cce = Cce::with_context(ctx.clone(), CceConfig::default());
    group.bench_function(format!("engine_parallel/{n}x{threads}"), |b| {
        b.iter(|| std::hint::black_box(cce.explain_all_parallel(threads).len()));
    });
    group.finish();
}

criterion_group!(benches, bench_batch_engine);
criterion_main!(benches);
