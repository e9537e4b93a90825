//! MoLoc algorithm configuration.

use moloc_motion::kernel::KernelConfig;
use serde::{Deserialize, Serialize};

/// Tunables of the motion-assisted localization algorithm.
///
/// The paper sets the discretization windows from the motion database's
/// spreads: `α = 20°` and `β = 1 m` (Sec. VI-B2). The candidate count
/// `k` is not stated; the default of 8 sits on the accuracy plateau of
/// the k sweep (`repro --exp ablations`, DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoLocConfig {
    /// Number of location candidates retrieved per query (Eq. 3).
    pub k: usize,
    /// Direction discretization window `α`, degrees (Eq. 5).
    pub alpha_deg: f64,
    /// Offset discretization window `β`, meters (Eq. 5).
    pub beta_m: f64,
    /// Motion probability assigned to a pair absent from the motion
    /// database. A small non-zero value keeps candidates alive when the
    /// crowd never walked that pair; 0 reproduces the strict paper
    /// formula.
    pub missing_pair_prob: f64,
    /// Offset standard deviation of the stay-in-place model used when a
    /// candidate pair is the *same* location (the paper leaves
    /// self-transitions undefined; the user may pause at a spot).
    pub stationary_offset_std_m: f64,
    /// When the combined (fingerprint × motion) mass of every candidate
    /// underflows below this total, fall back to fingerprint-only
    /// probabilities instead of dividing by ~0 (robustness guard; the
    /// paper's normalizer `N` assumes a non-degenerate sum).
    pub degenerate_total_floor: f64,
}

impl Default for MoLocConfig {
    fn default() -> Self {
        Self {
            k: 8,
            alpha_deg: 20.0,
            beta_m: 1.0,
            missing_pair_prob: 1e-6,
            stationary_offset_std_m: 0.5,
            degenerate_total_floor: 1e-5,
        }
    }
}

impl MoLocConfig {
    /// The paper's published parameters (α = 20°, β = 1 m).
    pub fn paper() -> Self {
        Self::default()
    }

    /// The subset of this configuration a
    /// [`moloc_motion::MotionKernel`](moloc_motion::kernel::MotionKernel)
    /// bakes into its tables.
    pub fn kernel_config(&self) -> KernelConfig {
        KernelConfig {
            alpha_deg: self.alpha_deg,
            beta_m: self.beta_m,
            missing_pair_prob: self.missing_pair_prob,
            stationary_offset_std_m: self.stationary_offset_std_m,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero, windows are non-positive, or floors are
    /// negative.
    pub fn validate(&self) {
        assert!(self.k >= 1, "k must be at least 1");
        assert!(
            self.alpha_deg > 0.0 && self.alpha_deg.is_finite(),
            "alpha must be positive"
        );
        assert!(
            self.beta_m > 0.0 && self.beta_m.is_finite(),
            "beta must be positive"
        );
        assert!(
            self.missing_pair_prob >= 0.0 && self.missing_pair_prob.is_finite(),
            "missing-pair probability must be non-negative"
        );
        assert!(
            self.stationary_offset_std_m > 0.0,
            "stationary offset std must be positive"
        );
        assert!(
            self.degenerate_total_floor >= 0.0,
            "degenerate floor must be non-negative"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = MoLocConfig::paper();
        assert_eq!(c.alpha_deg, 20.0);
        assert_eq!(c.beta_m, 1.0);
        assert!(c.k >= 1);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_rejected() {
        MoLocConfig {
            k: 0,
            ..MoLocConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn zero_alpha_rejected() {
        MoLocConfig {
            alpha_deg: 0.0,
            ..MoLocConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn negative_beta_rejected() {
        MoLocConfig {
            beta_m: -1.0,
            ..MoLocConfig::default()
        }
        .validate();
    }
}
