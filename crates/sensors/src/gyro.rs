//! Synthetic gyroscope (z-axis turn rate) signals.
//!
//! The paper's future-work section suggests "highly accurate direction
//! estimation by using gyroscope and advanced filtering techniques such
//! as the Kalman filter". This module provides the gyroscope substrate
//! for that extension: the z-axis angular rate a phone would measure
//! while its carrier walks and turns, with the classic MEMS error model
//! (constant bias + white noise), whose integration drifts over time —
//! exactly the error structure heading fusion must fight.

use crate::noise::NoiseModel;
use crate::series::TimeSeries;
use moloc_stats::circular::signed_diff_deg;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Synthesizes z-axis turn-rate readings from a true heading series.
///
/// # Examples
///
/// ```
/// use moloc_sensors::gyro::GyroSynthesizer;
/// use moloc_sensors::series::TimeSeries;
/// use rand::SeedableRng;
///
/// // Constant heading → zero rate (plus bias/noise).
/// let truth = TimeSeries::new(0.0, 10.0, vec![90.0; 20]).unwrap();
/// let gyro = GyroSynthesizer::new(0.0, 0.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let rates = gyro.synthesize(&truth, &mut rng);
/// assert!(rates.values().iter().all(|&r| r.abs() < 1e-9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GyroSynthesizer {
    /// Constant rate bias in °/s (MEMS gyros drift by 0.1–2 °/s).
    pub bias_deg_s: f64,
    /// White noise standard deviation in °/s.
    pub noise_sigma_deg_s: f64,
}

impl GyroSynthesizer {
    /// Creates a synthesizer.
    ///
    /// # Panics
    ///
    /// Panics if the noise sigma is negative.
    pub fn new(bias_deg_s: f64, noise_sigma_deg_s: f64) -> Self {
        assert!(noise_sigma_deg_s >= 0.0, "noise sigma must be non-negative");
        Self {
            bias_deg_s,
            noise_sigma_deg_s,
        }
    }

    /// A perfect gyro.
    pub fn ideal() -> Self {
        Self {
            bias_deg_s: 0.0,
            noise_sigma_deg_s: 0.0,
        }
    }

    /// Turn-rate readings (°/s) derived from consecutive true headings.
    /// The first sample's rate is 0 (no previous heading).
    pub fn synthesize<R: Rng + ?Sized>(
        &self,
        true_headings: &TimeSeries,
        rng: &mut R,
    ) -> TimeSeries {
        let mut rates = true_headings.clone();
        self.synthesize_in_place(&mut rates, rng);
        rates
    }

    /// [`Self::synthesize`] in the caller's buffer: `series` holds the
    /// true headings on entry and the turn-rate readings on return, with
    /// the same start time and rate. Nothing is allocated, so a renderer
    /// can stage the true headings in the buffer the readings will keep.
    pub fn synthesize_in_place<R: Rng + ?Sized>(&self, series: &mut TimeSeries, rng: &mut R) {
        let dt = series.dt();
        let noise = NoiseModel::new(self.bias_deg_s, self.noise_sigma_deg_s);
        let mut previous = None;
        for value in series.values_mut() {
            let heading = *value;
            let true_rate = match previous {
                None => 0.0,
                Some(previous) => signed_diff_deg(previous, heading) / dt,
            };
            previous = Some(heading);
            *value = noise.apply_value(true_rate, rng);
        }
    }
}

/// Integrates turn-rate readings into a relative heading series
/// starting from `initial_heading_deg`. Pure dead reckoning: bias
/// accumulates linearly with time.
pub fn integrate_rates(rates: &TimeSeries, initial_heading_deg: f64) -> TimeSeries {
    let dt = rates.dt();
    let mut heading = initial_heading_deg;
    let values: Vec<f64> = rates
        .values()
        .iter()
        .map(|&rate| {
            heading += rate * dt;
            moloc_stats::circular::normalize_deg(heading)
        })
        .collect();
    TimeSeries::new(rates.t0(), rates.sample_rate_hz(), values).expect("rate unchanged")
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_stats::circular::abs_diff_deg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn turning_truth() -> TimeSeries {
        // Heading ramps 0 → 90° over 3 s at 10 Hz (30 °/s), then holds.
        let mut v = Vec::new();
        for i in 0..30 {
            v.push(i as f64 * 3.0);
        }
        v.extend(std::iter::repeat_n(90.0, 20));
        TimeSeries::new(0.0, 10.0, v).unwrap()
    }

    #[test]
    fn rates_reflect_turns() {
        let mut rng = StdRng::seed_from_u64(0);
        let rates = GyroSynthesizer::ideal().synthesize(&turning_truth(), &mut rng);
        // During the ramp: 30 °/s; during the hold: 0.
        assert!((rates.values()[10] - 30.0).abs() < 1e-9);
        assert!(rates.values()[40].abs() < 1e-9);
    }

    #[test]
    fn integration_recovers_heading_without_bias() {
        let truth = turning_truth();
        let mut rng = StdRng::seed_from_u64(1);
        let rates = GyroSynthesizer::new(0.0, 0.2).synthesize(&truth, &mut rng);
        let integrated = integrate_rates(&rates, truth.values()[0]);
        let end_err = abs_diff_deg(
            *integrated.values().last().unwrap(),
            *truth.values().last().unwrap(),
        );
        assert!(end_err < 3.0, "end error {end_err}");
    }

    #[test]
    fn bias_makes_integration_drift_linearly() {
        let truth = TimeSeries::new(0.0, 10.0, vec![0.0; 100]).unwrap(); // 10 s still
        let mut rng = StdRng::seed_from_u64(2);
        let rates = GyroSynthesizer::new(1.0, 0.0).synthesize(&truth, &mut rng);
        let integrated = integrate_rates(&rates, 0.0);
        // 1 °/s bias over 10 s → ≈ 10° drift.
        let drift = abs_diff_deg(*integrated.values().last().unwrap(), 0.0);
        assert!((drift - 10.0).abs() < 0.5, "drift {drift}");
    }

    #[test]
    fn rates_handle_wraparound_headings() {
        // 350° → 10° is a +20° turn, not −340°.
        let truth = TimeSeries::new(0.0, 10.0, vec![350.0, 10.0]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let rates = GyroSynthesizer::ideal().synthesize(&truth, &mut rng);
        assert!((rates.values()[1] - 200.0).abs() < 1e-9); // 20° / 0.1 s
    }

    #[test]
    fn in_place_synthesis_matches_the_allocating_form() {
        let truth = turning_truth();
        let gyro = GyroSynthesizer::new(0.4, 0.5);
        let expected = gyro.synthesize(&truth, &mut StdRng::seed_from_u64(4));
        let mut series = truth.clone();
        let data = series.values().as_ptr();
        gyro.synthesize_in_place(&mut series, &mut StdRng::seed_from_u64(4));
        assert_eq!(series, expected);
        assert_eq!(series.values().as_ptr(), data);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_noise_panics() {
        let _ = GyroSynthesizer::new(0.0, -1.0);
    }
}
