//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (§7 and Appendix B).
//!
//! Each experiment lives in [`experiments`] as a function returning
//! [`cce_metrics::Table`]s; the `src/bin` wrappers print them and
//! `run_all` writes the full report used by EXPERIMENTS.md.
//!
//! Scale knobs (environment variables):
//!
//! * `CCE_SCALE` — multiplies the paper's dataset sizes (default `0.2`;
//!   use `1` to regenerate at full size),
//! * `CCE_TARGETS` — instances explained per dataset (paper: 100;
//!   default 30),
//! * `CCE_SEED` — global seed (default 42).
//!
//! Absolute numbers differ from the paper's (different hardware, synthetic
//! data); the *shapes* — orderings, ratios, crossovers — are the
//! reproduction targets. See EXPERIMENTS.md for the side-by-side record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod methods;
pub mod setup;

pub use setup::{prepare, prepare_em, ExpConfig, Prepared, PreparedEm};

/// Snapshots the global observability registry to
/// `reports/metrics-<tag>.jsonl` (creating `reports/` if needed) so every
/// experiment leaves its counters next to its report. Empty snapshots are
/// skipped; IO failures are reported but never abort an experiment run.
pub fn dump_metrics(tag: &str) {
    let snapshot = cce_obs::registry().snapshot();
    if snapshot.entries.is_empty() {
        return;
    }
    if let Err(e) = std::fs::create_dir_all("reports") {
        eprintln!("warning: could not create reports/: {e}");
        return;
    }
    let path = format!("reports/metrics-{tag}.jsonl");
    match std::fs::write(&path, snapshot.to_jsonl_string()) {
        Ok(()) => eprintln!("metrics snapshot written to {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
