//! `cce` — client-centric feature explanations from the command line.
//!
//! The tool works on *encoded* CSV files: one categorical code per cell,
//! a header row, and a final `__label` column holding the recorded
//! predictions (exactly what a serving client logs). Generate a sample
//! with `cce export`.
//!
//! ```text
//! cce export  --dataset Loan --out loan.csv [--rows N] [--seed S]
//! cce explain --data loan.csv --target 0 [--alpha 0.95]
//! cce summarize --data loan.csv [--max-patterns 8] [--alpha 1.0]
//! cce importance --data loan.csv --target 0 [--permutations 256]
//! cce monitor --data loan.csv --target 0 [--alpha 1.0]
//! ```
//!
//! Every subcommand accepts `--metrics <path>`: on exit the process-global
//! observability registry is snapshotted to the file — JSONL by default,
//! Prometheus text format when the path ends in `.prom`.

use std::process::ExitCode;

use cce_core::persist::StdVfs;
use cce_core::{
    importance, summarize, Alpha, Context, Durable, ExplainStatus, ImportanceParams, OsrkMonitor,
    Srk, SummaryParams, WorkBudget,
};
use cce_dataset::{csv, schema_io, synth, BinSpec, Dataset};

mod args;

use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cce export     --dataset <Adult|German|Compas|Loan|Recid|Tiers> --out <file.csv> [--rows N] [--seed S] [--buckets B]
  cce convert    --data <file.csv> --out <store.pg> [--page-size BYTES]
  cce explain    --data <file.csv> --target <row> [--alpha A] [--budget SCANS] [--json]
  cce explain    --store <store.pg> --target <row> [--cache-mb N] [--alpha A] [--budget SCANS] [--json]
  cce summarize  --data <file.csv> [--max-patterns K] [--alpha A] [--coverage C]
  cce importance --data <file.csv> --target <row> [--permutations P] [--seed S]
  cce monitor    --data <file.csv> --target <row> [--alpha A] [--seed S]
                 [--checkpoint-dir <dir> [--checkpoint-every N] [--resume]]
  cce serve      (--data <file.csv> | --store <store.pg> [--cache-mb N])
                 [--addr HOST:PORT] [--alpha A] [--target ROW] [--seed S]
                 [--linger-ms MS] [--max-batch N] [--threads T]
                 [--shed-depth N] [--degrade-depth N] [--degrade-budget SCANS]
                 [--checkpoint-dir <dir> [--checkpoint-every N] [--resume]]
                 [--max-conns N] [--keepalive-ms MS]
                 [--kernels auto|scalar|avx2|neon]
                 [--window ROWS [--window-delta D]]  slide the live ingest context by ΔI=D
                 [--shards N [--shard-deadline-ms MS] [--shard-retries R]
                  [--shard-backoff-ms MS] [--shard-hedge-ms MS] [--chaos]]
                 --store serves explains out-of-core from a converted store (no CSV load);
                   the store is read-only: /monitor/ingest feeds the monitor only
                 --shards partitions rows across N supervised worker processes
  cce shard-worker --data <file.csv> --shard-index I --shards N [--addr HOST:PORT]
                 (spawned by `cce serve --shards`; rarely run by hand)
  (any subcommand) [--metrics <file.jsonl|file.prom>]  dump metrics on exit";

/// The flags each subcommand accepts (`None` → unknown subcommand).
fn allowed_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "export" => &["dataset", "out", "rows", "seed", "buckets", "metrics"],
        "convert" => &["data", "out", "page-size", "metrics"],
        "explain" => &[
            "data", "store", "cache-mb", "target", "alpha", "budget", "json", "metrics",
        ],
        "summarize" => &["data", "max-patterns", "alpha", "coverage", "metrics"],
        "importance" => &["data", "target", "permutations", "seed", "metrics"],
        "monitor" => &[
            "data",
            "target",
            "alpha",
            "seed",
            "checkpoint-dir",
            "checkpoint-every",
            "resume",
            "metrics",
        ],
        "serve" => &[
            "data",
            "addr",
            "alpha",
            "target",
            "seed",
            "linger-ms",
            "max-batch",
            "threads",
            "shed-depth",
            "degrade-depth",
            "degrade-budget",
            "checkpoint-dir",
            "checkpoint-every",
            "resume",
            "max-conns",
            "keepalive-ms",
            "kernels",
            "window",
            "window-delta",
            "store",
            "cache-mb",
            "shards",
            "shard-deadline-ms",
            "shard-retries",
            "shard-backoff-ms",
            "shard-hedge-ms",
            "chaos",
            "metrics",
        ],
        "shard-worker" => &[
            "data",
            "shard-index",
            "shards",
            "addr",
            "no-stdin-watch",
            "metrics",
        ],
        _ => return None,
    })
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("missing subcommand".into());
    };
    let allowed = allowed_flags(cmd).ok_or_else(|| format!("unknown subcommand {cmd:?}"))?;
    let args = Args::parse(rest, allowed)?;
    let result = match cmd.as_str() {
        "export" => export(&args),
        "convert" => convert(&args),
        "explain" => explain(&args),
        "summarize" => summarize_cmd(&args),
        "importance" => importance_cmd(&args),
        "monitor" => monitor(&args),
        "serve" => serve(&args),
        "shard-worker" => shard_worker(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    // Dump metrics even on failure: the error path is exactly where the
    // counters are most interesting.
    if let Some(path) = args.optional("metrics") {
        write_metrics(&path)?;
    }
    result
}

/// Snapshots the global registry to `path` — JSONL unless the path ends
/// in `.prom`, then Prometheus text format.
fn write_metrics(path: &str) -> Result<(), String> {
    let snapshot = cce_obs::registry().snapshot();
    let text = if path.ends_with(".prom") {
        snapshot.to_prometheus_string()
    } else {
        snapshot.to_jsonl_string()
    };
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

fn load(args: &Args) -> Result<Dataset, String> {
    let path = args.required("data")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // With a sidecar (written by `cce export`), values and labels render
    // with their real names; otherwise fall back to inferred codes.
    let sidecar_path = format!("{path}.schema");
    if let Ok(sidecar) = std::fs::read_to_string(&sidecar_path) {
        let (schema, label_names) = schema_io::sidecar_from_text(&sidecar)
            .map_err(|e| format!("parsing {sidecar_path}: {e}"))?;
        let ds = csv::from_csv(&text, &path, schema).map_err(|e| format!("parsing {path}: {e}"))?;
        Ok(ds.with_label_names(label_names))
    } else {
        csv::infer_from_csv(&text, &path).map_err(|e| format!("parsing {path}: {e}"))
    }
}

fn context_of(ds: &Dataset) -> Context {
    // The CSV's label column holds recorded predictions (what a client
    // logs during serving).
    let ctx = Context::from_recorded(ds);
    cce_obs::gauge!("cce_cli_context_rows").set(ctx.len() as i64);
    ctx
}

fn alpha_of(args: &Args) -> Result<Alpha, String> {
    let a = args.float("alpha")?.unwrap_or(1.0);
    Alpha::new(a).map_err(|e| e.to_string())
}

fn export(args: &Args) -> Result<(), String> {
    let name = args.required("dataset")?;
    let out = args.required("out")?;
    let seed = args.int("seed")?.unwrap_or(42) as u64;
    let buckets = args.int("buckets")?.unwrap_or(10) as usize;
    let rows = args.int("rows")?;
    let raw = if name == "Tiers" {
        synth::tiers::generate(rows.unwrap_or(2_000) as usize, seed)
    } else {
        let mut raw = synth::general_dataset(&name, 1.0, seed)
            .ok_or_else(|| format!("unknown dataset {name:?}"))?;
        if let Some(r) = rows {
            let scale = r as f64 / raw.len() as f64;
            raw = synth::general_dataset(&name, scale, seed).expect("known dataset");
        }
        raw
    };
    let ds = raw.encode(&BinSpec::uniform(buckets));
    std::fs::write(&out, csv::to_csv(&ds)).map_err(|e| format!("writing {out}: {e}"))?;
    // Sidecar: preserves value/label display names for later rendering.
    let sidecar = schema_io::sidecar_to_text(ds.schema(), &raw.label_names);
    let sidecar_path = format!("{out}.schema");
    std::fs::write(&sidecar_path, sidecar).map_err(|e| format!("writing {sidecar_path}: {e}"))?;
    println!(
        "wrote {} rows × {} features to {out} (+ {sidecar_path})",
        ds.len(),
        ds.schema().n_features()
    );
    Ok(())
}

/// Converts an encoded CSV into the paged on-disk store format.
fn convert(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let ctx = context_of(&ds);
    let out = args.required("out")?;
    let page_size = match args.int("page-size")? {
        Some(v) if v > 0 => v as usize,
        Some(v) => return Err(format!("--page-size must be positive, got {v}")),
        None => cce_core::pagestore::DEFAULT_PAGE_SIZE,
    };
    let summary =
        cce_core::pagestore::write_store(&mut StdVfs, &out, &ctx, page_size, ds.label_names())
            .map_err(|e| format!("converting to {out}: {e}"))?;
    println!(
        "wrote {} rows to {out}: {} pages × {} B ({} bytes total)",
        summary.rows, summary.pages, summary.page_size, summary.bytes
    );
    Ok(())
}

fn budget_of(args: &Args) -> Result<WorkBudget, String> {
    match args.int("budget")? {
        Some(b) if b >= 0 => Ok(WorkBudget::new(b as u64)),
        Some(b) => Err(format!("--budget must be non-negative, got {b}")),
        None => Ok(WorkBudget::unlimited()),
    }
}

/// `--cache-mb` as a byte budget for the page cache (default 64 MiB).
fn cache_bytes_of(args: &Args) -> Result<usize, String> {
    match args.int("cache-mb")? {
        Some(v) if v >= 0 => Ok((v as usize) << 20),
        Some(v) => Err(format!("--cache-mb must be non-negative, got {v}")),
        None => Ok(64 << 20),
    }
}

/// `cce explain --store`: out-of-core explain over a converted store.
/// Rendering uses the store's embedded schema and label names, so the
/// output text matches a CSV-backed explain of the same context.
fn explain_store(args: &Args, store: &str) -> Result<(), String> {
    let target = args.int("target")?.ok_or("missing --target")? as usize;
    let alpha = alpha_of(args)?;
    let budget = budget_of(args)?;
    let paged = cce_core::PagedContextIndex::open(StdVfs, store, cache_bytes_of(args)?)
        .map_err(|e| format!("opening {store}: {e}"))?;
    let rows = paged.len();
    let result = paged.explain_row_budgeted(target, alpha, budget);
    if args.flag("json") {
        let resp = cce_serve::explain_response(target, alpha, &result);
        println!("{}", String::from_utf8_lossy(&resp.body));
        return result.map(|_| ()).map_err(|e| e.to_string());
    }
    let budgeted = result.map_err(|e| e.to_string())?;
    let key = budgeted.key;
    if let ExplainStatus::Degraded {
        spent,
        remaining_violators,
    } = budgeted.status
    {
        println!(
            "NOTE: work budget exhausted after {spent} scans — partial key, \
             {remaining_violators} violators not yet covered"
        );
    }
    let (x, label, _twins) = paged
        .store()
        .row(target)
        .map_err(|e| format!("reading row {target} from {store}: {e}"))?;
    let schema = paged.store().schema().clone();
    let label_name = paged.store().directory().label_name(label);
    println!("{}", key.render(&schema, &x, &label_name));
    let stats = paged.cache_stats();
    println!(
        "succinctness: {} | requested α: {} | achieved conformity over {} instances: {:.2}%",
        key.succinctness(),
        alpha,
        rows,
        key.achieved_conformity() * 100.0
    );
    println!(
        "page cache: {} B resident, {} hits / {} misses / {} evictions",
        stats.resident_bytes, stats.hits, stats.misses, stats.evictions
    );
    Ok(())
}

fn explain(args: &Args) -> Result<(), String> {
    if let Some(store) = args.optional("store") {
        if args.optional("data").is_some() {
            return Err("--store and --data are mutually exclusive".into());
        }
        return explain_store(args, &store);
    }
    let ds = load(args)?;
    let ctx = context_of(&ds);
    let target = args.int("target")?.ok_or("missing --target")? as usize;
    let alpha = alpha_of(args)?;
    let budget = budget_of(args)?;
    let result = Srk::new(alpha).explain_budgeted(&ctx, target, budget);
    if args.flag("json") {
        // Render through the exact same function the serving daemon
        // uses, so scripted clients see one JSON shape everywhere.
        let resp = cce_serve::explain_response(target, alpha, &result);
        println!("{}", String::from_utf8_lossy(&resp.body));
        return result.map(|_| ()).map_err(|e| e.to_string());
    }
    let budgeted = result.map_err(|e| e.to_string())?;
    let key = budgeted.key;
    if let ExplainStatus::Degraded {
        spent,
        remaining_violators,
    } = budgeted.status
    {
        println!(
            "NOTE: work budget exhausted after {spent} scans — partial key, \
             {remaining_violators} violators not yet covered"
        );
    }
    let x = ctx.instance(target);
    println!(
        "{}",
        key.render(ds.schema(), x, &ds.label_name(ctx.prediction(target)))
    );
    println!(
        "succinctness: {} | requested α: {} | achieved conformity over {} instances: {:.2}%",
        key.succinctness(),
        alpha,
        ctx.len(),
        key.achieved_conformity() * 100.0
    );
    Ok(())
}

fn summarize_cmd(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let ctx = context_of(&ds);
    let params = SummaryParams {
        alpha: alpha_of(args)?,
        max_patterns: args.int("max-patterns")?.unwrap_or(8) as usize,
        coverage_target: args.float("coverage")?.unwrap_or(0.95),
        ..Default::default()
    };
    let summary = summarize(&ctx, params).map_err(|e| e.to_string())?;
    println!(
        "{} patterns covering {:.1}% of {} instances:",
        summary.len(),
        summary.coverage() * 100.0,
        ctx.len()
    );
    for p in summary.patterns() {
        println!(
            "  [{:>4} rows, {:>5.1}% precise] {}",
            p.support,
            p.precision * 100.0,
            p.render(ds.schema(), &ds.label_name(p.prediction))
        );
    }
    Ok(())
}

fn importance_cmd(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let ctx = context_of(&ds);
    let target = args.int("target")?.ok_or("missing --target")? as usize;
    let params = ImportanceParams {
        permutations: args.int("permutations")?.unwrap_or(256) as usize,
        seed: args.int("seed")?.unwrap_or(7) as u64,
    };
    let phi = importance::shapley_sampled(&ctx, target, params).map_err(|e| e.to_string())?;
    let mut ranked: Vec<(usize, f64)> = phi.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
    println!(
        "context-relative importance for row {target} (prediction {}):",
        ds.label_name(ctx.prediction(target))
    );
    for (f, s) in ranked {
        println!("  {:<20} {s:+.4}", ds.schema().feature(f).name);
    }
    Ok(())
}

fn monitor(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let ctx = context_of(&ds);
    let target = args.int("target")?.ok_or("missing --target")? as usize;
    if target >= ctx.len() {
        return Err(format!("--target {target} out of range (0..{})", ctx.len()));
    }
    let alpha = alpha_of(args)?;
    let seed = args.int("seed")?.unwrap_or(7) as u64;
    let ckpt_dir = args.optional("checkpoint-dir");
    let every = args.int("checkpoint-every")?.unwrap_or(256).max(1) as u64;
    if args.flag("resume") && ckpt_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".into());
    }

    // The arrival stream is every row but the target, in file order.
    let arrivals: Vec<usize> = (0..ctx.len()).filter(|&r| r != target).collect();
    let progress_step = (ctx.len() / 10).max(1);
    let report = |m: &OsrkMonitor, r: usize| {
        if (r + 1).is_multiple_of(progress_step) {
            println!(
                "after {:>6} arrivals: key size {} ({} violators tolerated)",
                m.n_seen(),
                m.succinctness(),
                m.n_violators()
            );
        }
    };

    let m = if let Some(dir) = ckpt_dir {
        // Crash-safe path: every arrival is WAL-logged before it is
        // applied; snapshots rotate every `--checkpoint-every` arrivals.
        let (mut durable, skip) = if args.flag("resume") {
            let (d, replayed) = Durable::<OsrkMonitor, StdVfs>::resume(StdVfs, &dir, every)
                .map_err(|e| format!("resuming from {dir}: {e}"))?;
            let done = d.state().n_seen();
            println!(
                "resumed epoch {} from {dir}: {done} arrivals already durable \
                 ({replayed} replayed from WAL)",
                d.epoch()
            );
            (d, done)
        } else {
            let m = OsrkMonitor::new(
                ctx.instance(target).clone(),
                ctx.prediction(target),
                alpha,
                seed,
            );
            let d = Durable::create(m, StdVfs, &dir, every)
                .map_err(|e| format!("creating checkpoint in {dir}: {e}"))?;
            (d, 0)
        };
        for &r in arrivals.iter().skip(skip) {
            durable
                .observe(ctx.instance(r), ctx.prediction(r))
                .map_err(|e| format!("durable observe: {e}"))?;
            report(durable.state(), r);
        }
        durable.into_state()
    } else {
        let mut m = OsrkMonitor::new(
            ctx.instance(target).clone(),
            ctx.prediction(target),
            alpha,
            seed,
        );
        for &r in &arrivals {
            let _ = m.observe(ctx.instance(r).clone(), ctx.prediction(r));
            report(&m, r);
        }
        m
    };
    let key = m.to_relative_key();
    println!(
        "final: {}",
        key.render(
            ds.schema(),
            ctx.instance(target),
            &ds.label_name(ctx.prediction(target))
        )
    );
    Ok(())
}

/// `cce shard-worker`: the worker-process body behind `cce serve
/// --shards` — loads its hash partition of the data and serves the shard
/// wire protocol until its supervisor exits.
fn shard_worker(args: &Args) -> Result<(), String> {
    let cfg = cce_serve::shard::worker::WorkerConfig {
        data: args.required("data")?,
        shard_index: args.int("shard-index")?.ok_or("missing --shard-index")? as usize,
        shards: args.int("shards")?.ok_or("missing --shards")? as usize,
        addr: args
            .optional("addr")
            .unwrap_or_else(|| "127.0.0.1:0".to_string()),
        watch_stdin: !args.flag("no-stdin-watch"),
    };
    cce_serve::shard::worker::run(&cfg).map_err(|e| e.to_string())
}

fn serve(args: &Args) -> Result<(), String> {
    use cce_serve::{AdmissionConfig, BatcherConfig, MonitorBackend, Server, ServerConfig};
    use std::time::Duration;

    let alpha = alpha_of(args)?;
    // Sharded mode partitions rows across worker processes; it owns the
    // whole explain path, so the single-process backends are excluded.
    let shards = match args.int("shards")? {
        Some(n) if n >= 1 => Some(n as usize),
        Some(n) => return Err(format!("--shards must be at least 1, got {n}")),
        None => None,
    };
    if shards.is_some() {
        if args.optional("store").is_some() {
            return Err("--shards and --store are mutually exclusive".into());
        }
        if args.int("window")?.is_some() {
            return Err(
                "--window is not supported with --shards (worker partitions never evict)".into(),
            );
        }
    }
    // Disk-backed mode: `/explain` answers from the converted store via
    // the page cache. The store is a read-only context: ingest feeds
    // only the monitor, so there is nothing for a window to slide.
    let paged = match args.optional("store") {
        Some(path) => {
            if args.optional("data").is_some() {
                return Err("--store and --data are mutually exclusive".into());
            }
            if args.int("window")?.is_some() {
                return Err(
                    "--window is not supported with --store (the store context never slides)"
                        .into(),
                );
            }
            let idx = cce_core::PagedContextIndex::open(StdVfs, &path, cache_bytes_of(args)?)
                .map_err(|e| format!("opening {path}: {e}"))?;
            println!("store: {path} ({} rows)", idx.len());
            Some(idx)
        }
        None => None,
    };
    let ctx = match &paged {
        Some(p) => Context::new(p.store().schema().clone(), Vec::new(), Vec::new()),
        None => context_of(&load(args)?),
    };
    let addr = args
        .optional("addr")
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    // The ingest monitor tracks one target row's key online.
    let target = args.int("target")?.unwrap_or(0) as usize;
    let monitor_rows = paged
        .as_ref()
        .map_or(ctx.len(), cce_core::PagedContextIndex::len);
    if target >= monitor_rows {
        return Err(format!(
            "--target {target} out of range (0..{monitor_rows})"
        ));
    }
    // The monitor's seed row comes from the store when disk-backed.
    let (seed_x, seed_pred) = match &paged {
        Some(p) => {
            let (x, pred, _twins) = p
                .store()
                .row(target)
                .map_err(|e| format!("reading row {target}: {e}"))?;
            (x, pred)
        }
        None => (ctx.instance(target).clone(), ctx.prediction(target)),
    };
    let seed = args.int("seed")?.unwrap_or(7) as u64;

    let mut batcher_cfg = BatcherConfig::default();
    if let Some(v) = args.int("max-batch")? {
        batcher_cfg.max_batch = v.max(1) as usize;
    }
    if let Some(v) = args.int("linger-ms")? {
        batcher_cfg.linger = Duration::from_millis(v.max(0) as u64);
    }
    if let Some(v) = args.int("threads")? {
        batcher_cfg.threads = v.max(1) as usize;
    }
    let mut admission_cfg = AdmissionConfig::default();
    if let Some(v) = args.int("shed-depth")? {
        admission_cfg.shed_depth = v.max(0) as usize;
    }
    if let Some(v) = args.int("degrade-depth")? {
        admission_cfg.degrade_depth = v.max(0) as usize;
    }
    if let Some(v) = args.int("degrade-budget")? {
        admission_cfg.degrade_budget = v.max(0) as u64;
    }
    let mut server_cfg = ServerConfig::default();
    if let Some(v) = args.int("max-conns")? {
        server_cfg.max_connections = v.max(1) as usize;
    }
    if let Some(v) = args.int("keepalive-ms")? {
        server_cfg.keep_alive_timeout = Duration::from_millis(v.max(1) as u64);
    }
    // Kernel selection must land before the first bitset op (the index
    // build below) — after that the process-wide choice is frozen.
    if let Some(v) = args.optional("kernels") {
        let mode = cce_core::kernels::Mode::parse(&v)
            .ok_or_else(|| format!("--kernels {v:?}: expected auto|scalar|avx2|neon"))?;
        let active = cce_core::kernels::force(mode);
        println!("kernels: {active}");
    }
    let window = match (args.int("window")?, args.int("window-delta")?) {
        (Some(cap), delta) => {
            let capacity = cap.max(1) as usize;
            let delta = delta.unwrap_or(1).max(1) as usize;
            if delta > capacity {
                return Err(format!(
                    "--window-delta {delta} must not exceed --window {capacity}"
                ));
            }
            Some(cce_serve::LiveWindow { capacity, delta })
        }
        (None, Some(_)) => return Err("--window-delta requires --window".into()),
        (None, None) => None,
    };

    let backend = if let Some(dir) = args.optional("checkpoint-dir") {
        let every = args.int("checkpoint-every")?.unwrap_or(256).max(1) as u64;
        let durable = if args.flag("resume") {
            let (d, replayed) = Durable::<OsrkMonitor, StdVfs>::resume(StdVfs, &dir, every)
                .map_err(|e| format!("resuming from {dir}: {e}"))?;
            println!(
                "resumed epoch {} from {dir}: {} arrivals already durable \
                 ({replayed} replayed from WAL)",
                d.epoch(),
                d.state().n_seen()
            );
            d
        } else {
            let m = OsrkMonitor::new(seed_x.clone(), seed_pred, alpha, seed);
            Durable::create(m, StdVfs, &dir, every)
                .map_err(|e| format!("creating checkpoint in {dir}: {e}"))?
        };
        MonitorBackend::Durable(durable)
    } else {
        if args.flag("resume") {
            return Err("--resume requires --checkpoint-dir".into());
        }
        MonitorBackend::Plain(OsrkMonitor::new(seed_x.clone(), seed_pred, alpha, seed))
    };

    let app = if let Some(n_shards) = shards {
        use cce_serve::shard::router::IngestLog;
        use cce_serve::shard::{
            spawn_shards, ShardClient, ShardPolicy, ShardedBackend, WorkerSpec,
        };
        use std::sync::Arc;

        let data = args.required("data")?;
        let mut policy = ShardPolicy::default();
        if let Some(v) = args.int("shard-deadline-ms")? {
            policy.deadline = Duration::from_millis(v.max(1) as u64);
        }
        if let Some(v) = args.int("shard-retries")? {
            policy.retries = v.max(0) as u32;
        }
        if let Some(v) = args.int("shard-backoff-ms")? {
            policy.backoff = Duration::from_millis(v.max(0) as u64);
        }
        if let Some(v) = args.int("shard-hedge-ms")? {
            policy.hedge_after = match v.max(0) {
                0 => None,
                ms => Some(Duration::from_millis(ms as u64)),
            };
        }
        let clients: Vec<Arc<ShardClient>> = (0..n_shards)
            .map(|i| Arc::new(ShardClient::down(i, policy)))
            .collect();
        let log = Arc::new(IngestLog::new());
        let exe = std::env::current_exe().map_err(|e| format!("locating cce binary: {e}"))?;
        let spec = WorkerSpec {
            program: exe,
            args_prefix: vec!["shard-worker".to_string()],
            data: data.clone(),
            shards: n_shards,
        };
        let handle = spawn_shards(spec, clients.clone(), Arc::clone(&log))
            .map_err(|e| format!("spawning shard workers: {e}"))?;
        let sharded = Arc::new(ShardedBackend::new(
            alpha,
            ctx.schema().n_features(),
            clients,
            ctx.len() as u64,
            log,
            args.flag("chaos"),
        ));
        sharded.set_supervisor(handle);
        println!("shards: {n_shards} workers up over {} rows", ctx.len());
        // The local engine only carries the schema (ingest validation,
        // health); all rows live with the workers.
        let empty = Context::new(ctx.schema_arc(), Vec::new(), Vec::new());
        cce_serve::build_app_sharded(empty, alpha, batcher_cfg, admission_cfg, backend, sharded)
    } else {
        match paged {
            Some(p) => cce_serve::build_app_paged(
                ctx,
                alpha,
                cce_core::engine::EngineConfig::default(),
                batcher_cfg,
                admission_cfg,
                backend,
                window,
                p,
            ),
            None => cce_serve::build_app_with(
                ctx,
                alpha,
                cce_core::engine::EngineConfig::default(),
                batcher_cfg,
                admission_cfg,
                backend,
                window,
            ),
        }
    };
    let server =
        Server::bind(app, &addr, server_cfg).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = server
        .local_addr()
        .map_err(|e| format!("resolving bound address: {e}"))?;
    // Scripts (the CI smoke job, the e2e tests) wait for this line.
    println!("listening on {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(|e| format!("serving: {e}"))
}
