//! Synthetic gait accelerometer signals.
//!
//! The paper's Fig. 4 shows the magnitude of acceleration during 10
//! steps: a repetitive pattern oscillating around gravity (~9.8 m/s²)
//! with one dominant peak per step, swinging roughly between 6 and
//! 15 m/s². [`GaitSynthesizer`] reproduces that waveform as a
//! fundamental sinusoid at the step frequency plus a second harmonic
//! (the heel-strike bump) and sensor noise, driven by a continuous
//! *walking phase* so multi-interval traces stay coherent.

use crate::noise::NoiseModel;
use crate::series::TimeSeries;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Standard gravity in m/s².
pub const GRAVITY: f64 = 9.81;

/// Synthesizes accelerometer-magnitude signals for walking and idling.
///
/// # Examples
///
/// ```
/// use moloc_sensors::accel::GaitSynthesizer;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let s = GaitSynthesizer::default().synthesize_walk(10, 0.5, 10.0, &mut rng);
/// assert_eq!(s.len(), 50); // 5 s at 10 Hz
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaitSynthesizer {
    /// Peak amplitude of the fundamental, in m/s² (per-user gait
    /// vigour; the paper's walkers differ in this).
    pub amplitude: f64,
    /// Second-harmonic amplitude as a fraction of the fundamental.
    pub harmonic_ratio: f64,
    /// Sensor noise applied to the synthesized magnitude.
    pub noise: NoiseModel,
}

impl Default for GaitSynthesizer {
    fn default() -> Self {
        Self {
            amplitude: 2.8,
            harmonic_ratio: 0.3,
            noise: NoiseModel::new(0.0, 0.25),
        }
    }
}

impl GaitSynthesizer {
    /// The clean (noise-free) magnitude at walking phase `phase`
    /// (one unit of phase = one step).
    ///
    /// The peak of each step occurs at phase `k + 0.25`.
    pub fn magnitude_at_phase(&self, phase: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * phase;
        GRAVITY + self.amplitude * w.sin() + self.amplitude * self.harmonic_ratio * (2.0 * w).sin()
    }

    /// Synthesizes a walking segment of `duration_s` seconds with step
    /// period `step_period_s`, starting at walking phase `phase0`.
    /// Returns the series and the phase at the end of the segment.
    ///
    /// # Panics
    ///
    /// Panics if the duration is negative or period/rate are not
    /// positive.
    pub fn synthesize_segment<R: Rng + ?Sized>(
        &self,
        duration_s: f64,
        step_period_s: f64,
        phase0: f64,
        sample_rate_hz: f64,
        rng: &mut R,
    ) -> (TimeSeries, f64) {
        let mut series = TimeSeries::default();
        let phase = self.synthesize_segment_into(
            duration_s,
            step_period_s,
            phase0,
            sample_rate_hz,
            rng,
            &mut series,
        );
        (series, phase)
    }

    /// [`Self::synthesize_segment`] into `out`, reusing its buffer: the
    /// segment's `round(duration_s × sample_rate_hz)` samples replace
    /// `out`'s contents, and nothing is allocated when `out` already
    /// has that capacity. Returns the phase at the end of the segment.
    ///
    /// # Panics
    ///
    /// Panics if the duration is negative or period/rate are not
    /// positive.
    pub fn synthesize_segment_into<R: Rng + ?Sized>(
        &self,
        duration_s: f64,
        step_period_s: f64,
        phase0: f64,
        sample_rate_hz: f64,
        rng: &mut R,
        out: &mut TimeSeries,
    ) -> f64 {
        assert!(duration_s >= 0.0, "duration must be non-negative");
        assert!(step_period_s > 0.0, "step period must be positive");
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        let n = (duration_s * sample_rate_hz).round() as usize;
        let dt = 1.0 / sample_rate_hz;
        out.assign(
            0.0,
            sample_rate_hz,
            (0..n).map(|i| {
                let phase = phase0 + i as f64 * dt / step_period_s;
                self.noise.apply_value(self.magnitude_at_phase(phase), rng)
            }),
        )
        .expect("positive rate");
        phase0 + duration_s / step_period_s
    }

    /// Synthesizes exactly `n_steps` steps with the given period — the
    /// protocol behind the paper's Fig. 4 (10 steps).
    pub fn synthesize_walk<R: Rng + ?Sized>(
        &self,
        n_steps: usize,
        step_period_s: f64,
        sample_rate_hz: f64,
        rng: &mut R,
    ) -> TimeSeries {
        self.synthesize_segment(
            n_steps as f64 * step_period_s,
            step_period_s,
            0.0,
            sample_rate_hz,
            rng,
        )
        .0
    }

    /// Synthesizes a stationary segment: gravity plus noise.
    pub fn synthesize_idle<R: Rng + ?Sized>(
        &self,
        duration_s: f64,
        sample_rate_hz: f64,
        rng: &mut R,
    ) -> TimeSeries {
        assert!(duration_s >= 0.0, "duration must be non-negative");
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        let n = (duration_s * sample_rate_hz).round() as usize;
        let values = (0..n)
            .map(|_| self.noise.apply_value(GRAVITY, rng))
            .collect();
        TimeSeries::new(0.0, sample_rate_hz, values).expect("positive rate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_waveform_oscillates_around_gravity() {
        let g = GaitSynthesizer {
            noise: NoiseModel::clean(),
            ..GaitSynthesizer::default()
        };
        // Average over a full period ≈ gravity.
        let n = 1000;
        let mean: f64 = (0..n)
            .map(|i| g.magnitude_at_phase(i as f64 / n as f64))
            .sum::<f64>()
            / n as f64;
        assert!((mean - GRAVITY).abs() < 1e-6);
        // Peak near phase 0.25 is well above gravity.
        assert!(g.magnitude_at_phase(0.25) > GRAVITY + 2.0);
        assert!(g.magnitude_at_phase(0.75) < GRAVITY - 2.0);
    }

    #[test]
    fn fig4_like_signal_spans_expected_range() {
        // Paper Fig. 4: swings roughly within [5, 16] m/s².
        let mut rng = StdRng::seed_from_u64(2);
        let s = GaitSynthesizer::default().synthesize_walk(10, 0.5, 10.0, &mut rng);
        let max = s.values().iter().cloned().fold(f64::MIN, f64::max);
        let min = s.values().iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 11.0 && max < 17.0, "max {max}");
        assert!(min < 8.0 && min > 4.0, "min {min}");
    }

    #[test]
    fn segment_phase_is_continuous() {
        let g = GaitSynthesizer::default();
        let mut rng = StdRng::seed_from_u64(3);
        let (_, phase) = g.synthesize_segment(2.0, 0.5, 0.0, 10.0, &mut rng);
        assert!((phase - 4.0).abs() < 1e-12); // 2 s / 0.5 s per step
        let (_, phase2) = g.synthesize_segment(0.75, 0.5, phase, 10.0, &mut rng);
        assert!((phase2 - 5.5).abs() < 1e-12);
    }

    #[test]
    fn idle_signal_hovers_at_gravity() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = GaitSynthesizer::default().synthesize_idle(5.0, 10.0, &mut rng);
        assert_eq!(s.len(), 50);
        let mean = s.mean().unwrap();
        assert!((mean - GRAVITY).abs() < 0.2);
        assert!(s.variance().unwrap() < 0.2);
    }

    #[test]
    fn walk_duration_matches_steps_times_period() {
        let mut rng = StdRng::seed_from_u64(5);
        let s = GaitSynthesizer::default().synthesize_walk(7, 0.6, 20.0, &mut rng);
        assert!((s.duration() - 4.2).abs() < 0.051);
    }

    #[test]
    fn segment_into_reuses_the_buffer_and_matches_the_allocating_form() {
        let g = GaitSynthesizer::default();
        let (expected, phase) =
            g.synthesize_segment(3.0, 0.5, 0.25, 10.0, &mut StdRng::seed_from_u64(6));
        let mut out = TimeSeries::new(5.0, 1.0, Vec::with_capacity(30)).unwrap();
        let data = out.values().as_ptr();
        let phase_into = g.synthesize_segment_into(
            3.0,
            0.5,
            0.25,
            10.0,
            &mut StdRng::seed_from_u64(6),
            &mut out,
        );
        assert_eq!(out, expected);
        assert_eq!(phase_into.to_bits(), phase.to_bits());
        assert_eq!(out.values().as_ptr(), data, "the buffer was reallocated");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = GaitSynthesizer::default().synthesize_segment(-1.0, 0.5, 0.0, 10.0, &mut rng);
    }
}
