//! Budgeted admission control: the overload state machine.
//!
//! Before every explain the daemon feeds the explains in flight, arrival
//! included, through three levels:
//!
//! ```text
//!            depth ≥ degrade_depth            depth ≥ shed_depth
//!  NORMAL ─────────────────────────▶ DEGRADED ─────────────────────▶ SHEDDING
//!    ▲                                  │  ▲                            │
//!    └── depth < degrade_depth/2 ───────┘  └── depth < shed_depth/2 ────┘
//! ```
//!
//! * **Normal** — every explain runs to completion (unlimited
//!   [`WorkBudget`]).
//! * **Degraded** — explains are capped at `degrade_budget` violator
//!   scans ([`Srk::explain_budgeted`]); responses carry an explicit
//!   `"degraded"` [`ExplainStatus`] with the partial key, trading key
//!   completeness for bounded latency.
//! * **Shedding** — new work is refused outright with `429` and a
//!   `Retry-After` hint; admitted work still drains.
//!
//! Exits use half-depth hysteresis so a load oscillating around a
//! threshold does not flap between levels on every request.
//!
//! [`Srk::explain_budgeted`]: cce_core::Srk::explain_budgeted
//! [`ExplainStatus`]: cce_core::ExplainStatus

use std::sync::Mutex;

use cce_core::WorkBudget;

/// Thresholds of the admission state machine.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Load at which new requests are shed with `429`.
    pub shed_depth: usize,
    /// Load at which explains degrade to `degrade_budget`.
    pub degrade_depth: usize,
    /// Violator-scan budget per explain while degraded.
    pub degrade_budget: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            shed_depth: 1024,
            degrade_depth: 256,
            degrade_budget: 100_000,
        }
    }
}

/// The current overload level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Full-fidelity service.
    Normal,
    /// Budget-capped explains.
    Degraded,
    /// Refusing new work.
    Shedding,
}

/// The state machine itself. All transitions happen in [`Admission::observe`],
/// driven by one load observation per explain arrival.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    level: Mutex<Level>,
}

impl Admission {
    /// A machine starting at [`Level::Normal`].
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            level: Mutex::new(Level::Normal),
        }
    }

    /// Feeds a load observation through the transition function
    /// and returns the (possibly new) level.
    pub fn observe(&self, depth: usize) -> Level {
        let mut level = self.level.lock().unwrap_or_else(|e| e.into_inner());
        let next = match *level {
            Level::Normal if depth >= self.cfg.shed_depth => Level::Shedding,
            Level::Normal if depth >= self.cfg.degrade_depth => Level::Degraded,
            Level::Degraded if depth >= self.cfg.shed_depth => Level::Shedding,
            Level::Degraded if depth < self.cfg.degrade_depth / 2 => Level::Normal,
            Level::Shedding if depth < self.cfg.shed_depth / 2 => {
                if depth < self.cfg.degrade_depth / 2 {
                    Level::Normal
                } else {
                    Level::Degraded
                }
            }
            current => current,
        };
        if next != *level {
            cce_obs::counter!("cce_serve_admission_transitions_total").inc();
        }
        *level = next;
        cce_obs::gauge!("cce_serve_admission_level").set(match next {
            Level::Normal => 0,
            Level::Degraded => 1,
            Level::Shedding => 2,
        });
        next
    }

    /// The current level, without feeding an observation.
    pub fn level(&self) -> Level {
        *self.level.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The per-explain work budget at the current level.
    pub fn budget(&self) -> WorkBudget {
        self.budget_at(self.level())
    }

    /// The per-explain work budget at `level` — pass the level an
    /// [`Admission::observe`] returned so the shed check and the budget
    /// come from the same observation.
    pub fn budget_at(&self, level: Level) -> WorkBudget {
        match level {
            Level::Normal => WorkBudget::unlimited(),
            Level::Degraded | Level::Shedding => WorkBudget::new(self.cfg.degrade_budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Admission {
        Admission::new(AdmissionConfig {
            shed_depth: 100,
            degrade_depth: 10,
            degrade_budget: 5,
        })
    }

    #[test]
    fn escalates_and_recovers_with_hysteresis() {
        let a = machine();
        assert_eq!(a.observe(0), Level::Normal);
        assert_eq!(a.observe(9), Level::Normal);
        assert_eq!(a.observe(10), Level::Degraded);
        // Must fall below degrade_depth/2 to recover, not just below 10.
        assert_eq!(a.observe(7), Level::Degraded);
        assert_eq!(a.observe(4), Level::Normal);
        // Straight to shedding from normal under a burst.
        assert_eq!(a.observe(150), Level::Shedding);
        // Stays shedding until depth < 50…
        assert_eq!(a.observe(60), Level::Shedding);
        // …then lands in degraded (depth ≥ degrade_depth/2)…
        assert_eq!(a.observe(30), Level::Degraded);
        // …and finally back to normal.
        assert_eq!(a.observe(2), Level::Normal);
    }

    #[test]
    fn budget_follows_level() {
        let a = machine();
        assert_eq!(a.budget(), WorkBudget::unlimited());
        a.observe(10);
        assert_eq!(a.budget(), WorkBudget::new(5));
        a.observe(150);
        assert_eq!(a.budget(), WorkBudget::new(5));
    }

    #[test]
    fn zero_thresholds_pin_the_level() {
        // shed_depth=0 → every observation sheds (used by tests to force
        // deterministic 429s).
        let always_shed = Admission::new(AdmissionConfig {
            shed_depth: 0,
            degrade_depth: 0,
            degrade_budget: 1,
        });
        assert_eq!(always_shed.observe(0), Level::Shedding);
        assert_eq!(always_shed.observe(0), Level::Shedding);
        // degrade_depth=0 with a huge shed_depth → permanently degraded.
        let always_degrade = Admission::new(AdmissionConfig {
            shed_depth: usize::MAX,
            degrade_depth: 0,
            degrade_budget: 1,
        });
        assert_eq!(always_degrade.observe(0), Level::Degraded);
        assert_eq!(always_degrade.observe(0), Level::Degraded);
    }
}
