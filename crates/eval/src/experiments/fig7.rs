//! Fig. 7: overall localization accuracy, MoLoc vs WiFi, at 4/5/6 APs.
//!
//! The paper's headline result: MoLoc reaches 75/82/86 % accuracy where
//! plain WiFi fingerprinting reaches 31/36/43 %, and MoLoc's maximum
//! error drops by ≈ 4 m.

use crate::cache::ScenarioCache;
use crate::metrics::{error_ecdf, flatten, summarize, LocalizationSummary};
use crate::pipeline::{
    localize_moloc, localize_moloc_with, localize_wifi, EvalWorld, PassOutcome, Setting,
};
use crate::report;
use moloc_core::config::MoLocConfig;
use moloc_stats::ecdf::Ecdf;

/// One method's results at one AP count.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Summary statistics.
    pub summary: LocalizationSummary,
    /// The error CDF.
    pub ecdf: Ecdf,
    /// Raw per-trace outcomes (consumed by Fig. 8 and Table I).
    pub outcomes: Vec<Vec<PassOutcome>>,
}

fn method_result(outcomes: Vec<Vec<PassOutcome>>) -> MethodResult {
    let flat = flatten(&outcomes);
    MethodResult {
        summary: summarize(&flat),
        ecdf: error_ecdf(&flat),
        outcomes,
    }
}

/// Both methods at one AP count.
#[derive(Debug, Clone, PartialEq)]
pub struct ApSettingResult {
    /// Number of APs (4, 5, or 6).
    pub n_aps: usize,
    /// The WiFi fingerprinting baseline.
    pub wifi: MethodResult,
    /// MoLoc.
    pub moloc: MethodResult,
}

/// The full Fig. 7 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7 {
    /// Results per AP count, ascending.
    pub settings: Vec<ApSettingResult>,
}

/// Runs one AP setting with an explicit MoLoc configuration.
pub fn run_setting(world: &EvalWorld, setting: &Setting, config: MoLocConfig) -> ApSettingResult {
    ApSettingResult {
        n_aps: setting.n_aps,
        wifi: method_result(localize_wifi(world, setting)),
        moloc: method_result(localize_moloc(world, setting, config)),
    }
}

/// Runs the full experiment at the paper's 4/5/6-AP settings.
///
/// AP counts fan out on the [`moloc_runtime`] worker pool (nested
/// inside, each `localize_*` call fans its traces out on the same
/// pool).
pub fn run(world: &EvalWorld) -> Fig7 {
    run_cached(&ScenarioCache::new(world))
}

/// Runs the full experiment against a [`ScenarioCache`]: the per-AP
/// settings, fingerprint indexes, and motion kernels are fetched from
/// (or built into) the cache, so a `repro` run that also produces
/// Fig. 6, Fig. 8, or Table I builds each artifact exactly once.
pub fn run_cached(cache: &ScenarioCache<'_>) -> Fig7 {
    let world = cache.world();
    let config = MoLocConfig::paper();
    // Warm all three settings concurrently before the per-AP fan-out:
    // the expensive builds overlap instead of serializing behind the
    // first AP count's localization work.
    cache.prewarm(&[4, 5, 6]);
    let settings = moloc_runtime::par_map(&[4, 5, 6], |&n| {
        let artifacts = cache.artifacts(n);
        let kernel = cache.kernel(n, &config);
        ApSettingResult {
            n_aps: artifacts.setting.n_aps,
            wifi: method_result(localize_wifi(world, &artifacts.setting)),
            moloc: method_result(localize_moloc_with(
                world,
                &artifacts.setting,
                config,
                &artifacts.index,
                &kernel,
            )),
        }
    });
    Fig7 { settings }
}

/// Renders the per-AP comparisons.
pub fn render(fig: &Fig7) -> String {
    let mut out = String::from("# Fig. 7: overall localization performance, MoLoc vs WiFi\n\n");
    let rows: Vec<Vec<String>> = fig
        .settings
        .iter()
        .flat_map(|s| {
            [
                vec![
                    format!("{}-AP WiFi", s.n_aps),
                    format!("{:.0}%", s.wifi.summary.accuracy * 100.0),
                    format!("{:.2}", s.wifi.summary.mean_error_m),
                    format!("{:.2}", s.wifi.summary.max_error_m),
                ],
                vec![
                    format!("{}-AP MoLoc", s.n_aps),
                    format!("{:.0}%", s.moloc.summary.accuracy * 100.0),
                    format!("{:.2}", s.moloc.summary.mean_error_m),
                    format!("{:.2}", s.moloc.summary.max_error_m),
                ],
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["Setting", "Accuracy", "Mean err (m)", "Max err (m)"],
        &rows,
    ));
    out.push('\n');
    for s in &fig.settings {
        out.push_str(&report::cdf_comparison(
            &format!("Fig. 7 {}-AP error CDF", s.n_aps),
            &[("MoLoc", &s.moloc.ecdf), ("WiFi", &s.wifi.ecdf)],
            16,
        ));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moloc_beats_wifi_on_small_world() {
        let world = EvalWorld::small(3);
        let setting = world.setting(6);
        let result = run_setting(&world, &setting, MoLocConfig::paper());
        assert!(
            result.moloc.summary.accuracy > result.wifi.summary.accuracy,
            "MoLoc {:.2} should beat WiFi {:.2}",
            result.moloc.summary.accuracy,
            result.wifi.summary.accuracy
        );
    }

    #[test]
    fn outcomes_cover_all_test_passes() {
        let world = EvalWorld::small(3);
        let setting = world.setting(5);
        let result = run_setting(&world, &setting, MoLocConfig::paper());
        let expected: usize = world.corpus.test.iter().map(|t| t.pass_count()).sum();
        assert_eq!(result.wifi.summary.passes, expected);
        assert_eq!(result.moloc.summary.passes, expected);
    }

    #[test]
    fn cached_run_matches_uncached_setting_run() {
        let world = EvalWorld::small(5);
        let cache = ScenarioCache::new(&world);
        let fig = run_cached(&cache);
        assert_eq!(fig.settings.len(), 3);
        // One setting and one kernel built per AP count, nothing more.
        assert_eq!(cache.setting_builds(), 3);
        assert_eq!(cache.kernel_builds(), 3);
        // The cached path reproduces the standalone path exactly
        // (PartialEq covers every outcome, summary, and CDF point).
        let six = fig.settings.iter().find(|s| s.n_aps == 6).unwrap();
        let direct = run_setting(&world, &world.setting(6), MoLocConfig::paper());
        assert_eq!(*six, direct);
    }

    #[test]
    fn render_contains_all_settings() {
        let world = EvalWorld::small(4);
        let setting = world.setting(6);
        let fig = Fig7 {
            settings: vec![run_setting(&world, &setting, MoLocConfig::paper())],
        };
        let text = render(&fig);
        assert!(text.contains("6-AP WiFi"));
        assert!(text.contains("6-AP MoLoc"));
        assert!(text.contains("error CDF"));
    }
}
