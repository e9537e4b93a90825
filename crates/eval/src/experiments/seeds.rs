//! Seed-sensitivity sweep (robustness extension).
//!
//! The paper reports one deployment; a simulation can ask how stable
//! the headline comparison is across worlds. This experiment rebuilds
//! the hall + corpus under several master seeds and reports the spread
//! of WiFi and MoLoc accuracies at 6 APs. It uses the reduced corpus —
//! the goal is variance across worlds, not absolute values.

use crate::metrics::{flatten, summarize};
use crate::pipeline::{localize_moloc, localize_wifi, EvalWorld};
use crate::report;
use moloc_core::config::MoLocConfig;
use moloc_stats::online::Welford;

/// One seed's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedOutcome {
    /// The master seed.
    pub seed: u64,
    /// WiFi accuracy.
    pub wifi_accuracy: f64,
    /// MoLoc accuracy.
    pub moloc_accuracy: f64,
}

/// The sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedSweep {
    /// Per-seed outcomes.
    pub outcomes: Vec<SeedOutcome>,
}

impl SeedSweep {
    /// Mean and sample standard deviation of the WiFi accuracies.
    pub fn wifi_stats(&self) -> (f64, f64) {
        let acc: Welford = self.outcomes.iter().map(|o| o.wifi_accuracy).collect();
        (acc.mean(), acc.sample_std())
    }

    /// Mean and sample standard deviation of the MoLoc accuracies.
    pub fn moloc_stats(&self) -> (f64, f64) {
        let acc: Welford = self.outcomes.iter().map(|o| o.moloc_accuracy).collect();
        (acc.mean(), acc.sample_std())
    }

    /// Fraction of seeds where MoLoc beat WiFi.
    pub fn win_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .filter(|o| o.moloc_accuracy > o.wifi_accuracy)
            .count() as f64
            / self.outcomes.len() as f64
    }
}

/// Runs the sweep over `seeds` at 6 APs on the reduced corpus.
///
/// Seeds fan out on the [`moloc_runtime`] worker pool: each world is
/// a pure function of its seed, so the sweep is order-preserving and
/// deterministic.
pub fn run(seeds: &[u64]) -> SeedSweep {
    // One seed per shard: each item builds and evaluates an entire
    // world, so the finest granularity load-balances best.
    let outcomes = moloc_runtime::par_map_chunked(seeds, 1, |&seed| {
        let world = EvalWorld::small(seed);
        let setting = world.setting(6);
        let wifi = summarize(&flatten(&localize_wifi(&world, &setting)));
        let moloc = summarize(&flatten(&localize_moloc(
            &world,
            &setting,
            MoLocConfig::paper(),
        )));
        SeedOutcome {
            seed,
            wifi_accuracy: wifi.accuracy,
            moloc_accuracy: moloc.accuracy,
        }
    });
    SeedSweep { outcomes }
}

/// Renders the sweep.
pub fn render(sweep: &SeedSweep) -> String {
    let mut out = String::from("# Extension: seed-sensitivity sweep (6 APs, reduced corpus)\n");
    let rows: Vec<Vec<String>> = sweep
        .outcomes
        .iter()
        .map(|o| {
            vec![
                o.seed.to_string(),
                format!("{:.0}%", o.wifi_accuracy * 100.0),
                format!("{:.0}%", o.moloc_accuracy * 100.0),
            ]
        })
        .collect();
    out.push_str(&report::table(&["Seed", "WiFi", "MoLoc"], &rows));
    let (wm, ws) = sweep.wifi_stats();
    let (mm, ms) = sweep.moloc_stats();
    out.push_str(&format!(
        "WiFi  {:.1}% ± {:.1}%   MoLoc {:.1}% ± {:.1}%   MoLoc wins {:.0}% of worlds\n",
        wm * 100.0,
        ws * 100.0,
        mm * 100.0,
        ms * 100.0,
        sweep.win_rate() * 100.0,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_moloc_wins_most_worlds() {
        let sweep = run(&[3, 101, 202]);
        assert_eq!(sweep.outcomes.len(), 3);
        assert!(
            sweep.win_rate() >= 2.0 / 3.0,
            "MoLoc won only {:.0}% of worlds",
            sweep.win_rate() * 100.0
        );
        let (mm, _) = sweep.moloc_stats();
        let (wm, _) = sweep.wifi_stats();
        assert!(mm > wm, "mean MoLoc {mm:.2} vs WiFi {wm:.2}");
        let text = render(&sweep);
        assert!(text.contains("MoLoc wins"));
    }
}
