#![warn(missing_docs)]

//! Energy accounting substrate for the precision-beekeeping reproduction.
//!
//! The deployed system in the paper is powered by a 30 W solar panel feeding
//! a 20 000 mAh power bank through a 5 V DC/DC converter, and is metered by
//! three ±5 A current sensors sampled by an always-on Raspberry Pi Zero.
//! This crate models that whole power path from first principles:
//!
//! * [`state`] — power-state machines (off / boot / active / sleep /
//!   shutdown) with per-state draw,
//! * [`meter`] — the current-sensor + sampling model and trapezoidal energy
//!   integration,
//! * [`trace`] — power time-series, routine segmentation and the statistics
//!   the paper reports (mean routine power 2.14 W, σ = 0.009 W, …),
//! * [`battery`] — state-of-charge model with charge/discharge efficiency,
//! * [`solar`] — diurnal irradiance, panel and DC/DC converter models,
//! * [`harvest`] — the combined solar → converter → battery → load loop that
//!   produces Figure 2's night brown-outs,
//! * [`ledger`] — named per-task energy breakdowns used by the scenario
//!   tables.

pub mod battery;
pub mod harvest;
pub mod ledger;
pub mod meter;
pub mod solar;
pub mod state;
pub mod trace;

pub use battery::Battery;
pub use harvest::{HarvestStep, PowerSystem, PowerSystemConfig};
pub use ledger::{EnergyLedger, LedgerEntry};
pub use meter::{CurrentSensor, EnergyMeter};
pub use solar::{DcDcConverter, Irradiance, SolarPanel};
pub use state::{PowerState, StateMachine, Transition};
pub use trace::{PowerTrace, RoutineStats, Segment};

/// Canonicalizes a human-readable task/state label into a metric-name
/// segment: lowercase, every non-alphanumeric run collapsed to one `_`.
/// `"Queen detection model (SVM)"` → `"queen_detection_model_svm"`.
pub fn metric_slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut pending_sep = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if pending_sep && !out.is_empty() {
                out.push('_');
            }
            pending_sep = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending_sep = true;
        }
    }
    out
}

#[cfg(test)]
mod slug_tests {
    use super::metric_slug;

    #[test]
    fn slugs_collapse_and_lowercase() {
        assert_eq!(metric_slug("Queen detection model (SVM)"), "queen_detection_model_svm");
        assert_eq!(metric_slug("wake+collect"), "wake_collect");
        assert_eq!(metric_slug("Sleep"), "sleep");
        assert_eq!(metric_slug("  -- "), "");
    }
}
