//! Ablations of MoLoc's design choices (DESIGN.md §4).
//!
//! * [`csc_vs_dsc`] — the paper's Continuous Step Counting vs the
//!   discrete baseline (Sec. IV-B1's motivation).
//! * [`sanitation`] — data sanitation on vs off (Sec. IV-B2).
//! * [`k_sweep`] — candidate-set size.
//! * [`window_sweep`] — discretization windows α and β (Sec. VI-B2).
//! * [`map_db`] — crowdsourced vs map-derived motion database
//!   (Sec. IV-A's consistency principle).

use crate::cache::ScenarioCache;
use crate::experiments::fig6;
use crate::metrics::{flatten, summarize};
use crate::pipeline::{analyze_trace, localize_moloc_with, CountingMethod, EvalWorld};
use crate::report;
use moloc_core::config::MoLocConfig;
use moloc_motion::filter::SanitationConfig;
use moloc_motion::map_based::{from_coordinates, MapBasedConfig};
use moloc_runtime::par_map;
use moloc_sensors::steps::StepDetector;
use moloc_sensors::stride::offset_m;
use moloc_stats::ecdf::Ecdf;

/// Offset-estimation errors of the two step-counting methods.
#[derive(Debug, Clone, PartialEq)]
pub struct CscVsDsc {
    /// |estimated − true| walked distance with CSC, meters.
    pub csc_errors: Ecdf,
    /// Same with DSC.
    pub dsc_errors: Ecdf,
}

/// Compares CSC and DSC offset errors over every training interval.
/// Traces fan out on the [`moloc_runtime`] worker pool; per-trace
/// error vectors merge back in trace order.
pub fn csc_vs_dsc(world: &EvalWorld) -> CscVsDsc {
    let detector = StepDetector::default();
    let per_trace = par_map(&world.corpus.train, |trace| {
        let step_length = trace.user.step_length_m();
        let (mut csc, mut dsc) = (Vec::new(), Vec::new());
        for interval in trace.intervals(&detector).iter() {
            let truth = world.hall.grid.distance(
                trace.passes[interval.from_index].location,
                trace.passes[interval.to_index].location,
            );
            csc.push((offset_m(interval.steps_csc, step_length) - truth).abs());
            dsc.push((offset_m(interval.steps_dsc, step_length) - truth).abs());
        }
        (csc, dsc)
    });
    let (mut csc, mut dsc) = (Vec::new(), Vec::new());
    for (c, d) in per_trace {
        csc.extend(c);
        dsc.extend(d);
    }
    CscVsDsc {
        csc_errors: Ecdf::from_samples(csc),
        dsc_errors: Ecdf::from_samples(dsc),
    }
}

/// Renders the CSC/DSC comparison.
pub fn render_csc_vs_dsc(result: &CscVsDsc) -> String {
    let mut out =
        String::from("# Ablation: Continuous vs Discrete Step Counting (offset error, m)\n");
    out.push_str(&report::cdf_comparison(
        "offset estimation error",
        &[("CSC", &result.csc_errors), ("DSC", &result.dsc_errors)],
        12,
    ));
    out.push_str(&format!(
        "mean: CSC {:.3} m, DSC {:.3} m\n",
        result.csc_errors.mean().unwrap_or(0.0),
        result.dsc_errors.mean().unwrap_or(0.0),
    ));
    out
}

/// One arm of the sanitation ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitationArm {
    /// Arm label.
    pub label: String,
    /// Motion-database validity (Fig. 6 metrics).
    pub validity: fig6::Fig6,
    /// MoLoc overall accuracy with this database.
    pub accuracy: f64,
    /// MoLoc mean error with this database.
    pub mean_error_m: f64,
}

/// Sanitation on vs off.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitationAblation {
    /// With the paper's two-level sanitation.
    pub with_sanitation: SanitationArm,
    /// With all filtering disabled.
    pub without_sanitation: SanitationArm,
}

fn sanitation_arm(
    cache: &ScenarioCache<'_>,
    n_aps: usize,
    config: SanitationConfig,
    label: &str,
) -> SanitationArm {
    let world = cache.world();
    let moloc_config = MoLocConfig::paper();
    let artifacts = cache.artifacts_with(n_aps, config, CountingMethod::Continuous);
    let kernel = cache.kernel_with(n_aps, config, CountingMethod::Continuous, &moloc_config);
    let outcomes = localize_moloc_with(
        world,
        &artifacts.setting,
        moloc_config,
        &artifacts.index,
        &kernel,
    );
    let flat = flatten(&outcomes);
    let summary = summarize(&flat);
    SanitationArm {
        label: label.to_string(),
        validity: fig6::run(world, &artifacts.setting),
        accuracy: summary.accuracy,
        mean_error_m: summary.mean_error_m,
    }
}

/// Runs the sanitation ablation at `n_aps` APs. The sanitized arm's
/// setting is shared with any other experiment on `cache` using the
/// paper configuration.
pub fn sanitation(cache: &ScenarioCache<'_>, n_aps: usize) -> SanitationAblation {
    SanitationAblation {
        with_sanitation: sanitation_arm(cache, n_aps, SanitationConfig::paper(), "sanitized"),
        without_sanitation: sanitation_arm(cache, n_aps, SanitationConfig::disabled(), "raw"),
    }
}

/// Renders the sanitation ablation.
pub fn render_sanitation(result: &SanitationAblation) -> String {
    let mut out = String::from("# Ablation: motion-database sanitation on vs off\n");
    let row = |arm: &SanitationArm| {
        vec![
            arm.label.clone(),
            format!("{}", arm.validity.pairs),
            format!(
                "{:.1}°",
                arm.validity.direction_errors.median().unwrap_or(f64::NAN)
            ),
            format!(
                "{:.2} m",
                arm.validity.offset_errors.median().unwrap_or(f64::NAN)
            ),
            format!("{:.0}%", arm.accuracy * 100.0),
            format!("{:.2} m", arm.mean_error_m),
        ]
    };
    out.push_str(&report::table(
        &[
            "Arm",
            "Pairs",
            "Med dir err",
            "Med off err",
            "MoLoc acc",
            "MoLoc mean err",
        ],
        &[
            row(&result.with_sanitation),
            row(&result.without_sanitation),
        ],
    ));
    out
}

/// Accuracy as a function of the candidate-set size `k`. The `k`
/// values fan out on the [`moloc_runtime`] worker pool; since `k`
/// does not enter the kernel tables, every arm shares *one* cached
/// setting, index, and kernel.
pub fn k_sweep(cache: &ScenarioCache<'_>, n_aps: usize, ks: &[usize]) -> Vec<(usize, f64)> {
    let world = cache.world();
    let artifacts = cache.artifacts(n_aps);
    let kernel = cache.kernel(n_aps, &MoLocConfig::paper());
    // One k per shard: each arm localizes the full test corpus, so the
    // finest granularity load-balances best.
    moloc_runtime::par_map_chunked(ks, 1, |&k| {
        let config = MoLocConfig {
            k,
            ..MoLocConfig::paper()
        };
        let outcomes =
            localize_moloc_with(world, &artifacts.setting, config, &artifacts.index, &kernel);
        (k, summarize(&flatten(&outcomes)).accuracy)
    })
}

/// Renders the k sweep.
pub fn render_k_sweep(result: &[(usize, f64)]) -> String {
    let mut out = String::from("# Ablation: candidate-set size k\n");
    let rows: Vec<Vec<String>> = result
        .iter()
        .map(|&(k, acc)| vec![k.to_string(), format!("{:.0}%", acc * 100.0)])
        .collect();
    out.push_str(&report::table(&["k", "MoLoc accuracy"], &rows));
    out
}

/// Accuracy across discretization windows: `alphas` at β = 1 m and
/// `betas` at α = 20°.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSweep {
    /// `(α, accuracy)` at β = 1 m.
    pub alpha: Vec<(f64, f64)>,
    /// `(β, accuracy)` at α = 20°.
    pub beta: Vec<(f64, f64)>,
}

/// Runs the window sweep. Each window setting fans out on the
/// [`moloc_runtime`] worker pool; all arms share one cached setting
/// and index, while each distinct `(α, β)` gets its own cached kernel.
pub fn window_sweep(
    cache: &ScenarioCache<'_>,
    n_aps: usize,
    alphas: &[f64],
    betas: &[f64],
) -> WindowSweep {
    let world = cache.world();
    let artifacts = cache.artifacts(n_aps);
    let accuracy = |config: MoLocConfig| {
        let kernel = cache.kernel(n_aps, &config);
        summarize(&flatten(&localize_moloc_with(
            world,
            &artifacts.setting,
            config,
            &artifacts.index,
            &kernel,
        )))
        .accuracy
    };
    WindowSweep {
        alpha: par_map(alphas, |&a| {
            (
                a,
                accuracy(MoLocConfig {
                    alpha_deg: a,
                    ..MoLocConfig::paper()
                }),
            )
        }),
        beta: par_map(betas, |&b| {
            (
                b,
                accuracy(MoLocConfig {
                    beta_m: b,
                    ..MoLocConfig::paper()
                }),
            )
        }),
    }
}

/// Renders the window sweep.
pub fn render_window_sweep(result: &WindowSweep) -> String {
    let mut out = String::from("# Ablation: discretization windows\n");
    let rows: Vec<Vec<String>> = result
        .alpha
        .iter()
        .map(|&(a, acc)| vec![format!("α = {a}°"), format!("{:.0}%", acc * 100.0)])
        .chain(
            result
                .beta
                .iter()
                .map(|&(b, acc)| vec![format!("β = {b} m"), format!("{:.0}%", acc * 100.0)]),
        )
        .collect();
    out.push_str(&report::table(&["Window", "MoLoc accuracy"], &rows));
    out
}

/// Crowdsourced vs map-derived motion database.
#[derive(Debug, Clone, PartialEq)]
pub struct MapDbAblation {
    /// Accuracy with the crowdsourced database.
    pub crowdsourced_accuracy: f64,
    /// Accuracy with the coordinates-only database.
    pub map_based_accuracy: f64,
    /// Pairs in each database.
    pub crowdsourced_pairs: usize,
    /// Pairs in the map-based database (includes wall-separated pairs).
    pub map_based_pairs: usize,
}

/// Runs the motion-database-source ablation. The crowdsourced arm
/// comes from the cache; the map-based arm swaps the motion database
/// (and thus needs a fresh kernel) but reuses the cached fingerprint
/// index, which depends only on the survey.
pub fn map_db(cache: &ScenarioCache<'_>, n_aps: usize) -> MapDbAblation {
    let world = cache.world();
    let config = MoLocConfig::paper();
    let crowdsourced = cache.artifacts(n_aps);
    let crowd_kernel = cache.kernel(n_aps, &config);
    let crowd_outcomes = localize_moloc_with(
        world,
        &crowdsourced.setting,
        config,
        &crowdsourced.index,
        &crowd_kernel,
    );

    let mut map_setting = crowdsourced.setting.clone();
    map_setting.motion_db = from_coordinates(&world.hall.grid, MapBasedConfig::default());
    let map_kernel = moloc_core::matching::build_kernel(&map_setting.motion_db, &config);
    let map_outcomes = localize_moloc_with(
        world,
        &map_setting,
        config,
        &crowdsourced.index,
        &map_kernel,
    );

    MapDbAblation {
        crowdsourced_accuracy: summarize(&flatten(&crowd_outcomes)).accuracy,
        map_based_accuracy: summarize(&flatten(&map_outcomes)).accuracy,
        crowdsourced_pairs: crowdsourced.setting.motion_db.pair_count(),
        map_based_pairs: map_setting.motion_db.pair_count(),
    }
}

/// Renders the map-db ablation.
pub fn render_map_db(result: &MapDbAblation) -> String {
    let mut out = String::from("# Ablation: crowdsourced vs map-derived motion database\n");
    out.push_str(&report::table(
        &["Source", "Pairs", "MoLoc accuracy"],
        &[
            vec![
                "crowdsourced".into(),
                result.crowdsourced_pairs.to_string(),
                format!("{:.0}%", result.crowdsourced_accuracy * 100.0),
            ],
            vec![
                "map-based".into(),
                result.map_based_pairs.to_string(),
                format!("{:.0}%", result.map_based_accuracy * 100.0),
            ],
        ],
    ));
    out
}

/// Heading calibration quality over the corpus — how well the Zee-style
/// procedure recovers each trace's true placement offset.
pub fn heading_calibration_errors(cache: &ScenarioCache<'_>, n_aps: usize) -> Ecdf {
    let world = cache.world();
    let artifacts = cache.artifacts(n_aps);
    let setting = &artifacts.setting;
    let detector = StepDetector::default();
    let traces: Vec<_> = world.corpus.iter().collect();
    par_map(&traces, |trace| {
        let analysis = analyze_trace(
            trace,
            &setting.fdb,
            &world.hall,
            &detector,
            CountingMethod::Continuous,
            n_aps,
        );
        let truth = trace.user.placement_offset_deg + trace.user.compass_bias_deg;
        moloc_stats::circular::abs_diff_deg(analysis.heading_offset_deg, truth)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csc_is_at_least_as_good_as_dsc() {
        let world = EvalWorld::small(21);
        let result = csc_vs_dsc(&world);
        assert!(
            result.csc_errors.mean().unwrap() <= result.dsc_errors.mean().unwrap() + 0.02,
            "CSC {:.3} vs DSC {:.3}",
            result.csc_errors.mean().unwrap(),
            result.dsc_errors.mean().unwrap()
        );
        let text = render_csc_vs_dsc(&result);
        assert!(text.contains("CSC"));
    }

    #[test]
    fn k_sweep_reports_each_k() {
        let world = EvalWorld::small(22);
        let cache = ScenarioCache::new(&world);
        let result = k_sweep(&cache, 6, &[1, 4]);
        assert_eq!(result.len(), 2);
        assert_eq!(result[0].0, 1);
        // Both arms shared one setting and one kernel.
        assert_eq!(cache.setting_builds(), 1);
        assert_eq!(cache.kernel_builds(), 1);
        // k = 1 degenerates to fingerprinting (no alternatives), so a
        // larger k should not hurt much.
        let text = render_k_sweep(&result);
        assert!(text.contains("MoLoc accuracy"));
    }

    #[test]
    fn heading_calibration_is_tight() {
        let world = EvalWorld::small(23);
        let cache = ScenarioCache::new(&world);
        let errors = heading_calibration_errors(&cache, 6);
        assert!(!errors.is_empty());
        assert!(
            errors.median().unwrap() < 12.0,
            "median calibration error {}°",
            errors.median().unwrap()
        );
    }

    #[test]
    fn map_db_reports_both_arms() {
        let world = EvalWorld::small(24);
        let cache = ScenarioCache::new(&world);
        let result = map_db(&cache, 6);
        assert!(result.map_based_pairs > 0);
        assert!(result.crowdsourced_pairs > 0);
        let text = render_map_db(&result);
        assert!(text.contains("crowdsourced"));
    }
}

/// Direction errors of two heading pipelines under a hostile compass.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadingFusionAblation {
    /// Per-interval |direction error| with the compass-only pipeline
    /// (the paper's implementation), degrees.
    pub compass_errors: Ecdf,
    /// Same with Kalman compass–gyro fusion (the paper's future-work
    /// extension), degrees.
    pub fused_errors: Ecdf,
}

/// Compares compass-only vs gyro-fused per-interval directions on
/// traces rendered with a *hostile* compass (σ = 25°). Placement
/// offsets are assumed calibrated (both pipelines get the true offset)
/// so the comparison isolates the noise-suppression benefit.
pub fn heading_fusion(world: &EvalWorld, seed: u64) -> HeadingFusionAblation {
    use moloc_mobility::render::TraceRenderer;
    use moloc_mobility::trajectory::Trajectory;
    use moloc_mobility::walk::random_walk;
    use moloc_sensors::fusion::HeadingFusion;
    use moloc_sensors::heading::motion_direction_deg;
    use moloc_stats::circular::abs_diff_deg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut users = moloc_mobility::user::paper_users();
    for u in &mut users {
        u.compass_noise_deg = 25.0;
    }
    let renderer = TraceRenderer::default();
    let mean_scans = world.hall.env.mean_scans(&world.hall.grid);
    // Users fan out on the worker pool; each derives its own RNG from
    // (seed, index), so the parallel result matches the serial one.
    let per_user = moloc_runtime::par_run(users.len(), |i| {
        let user = &users[i];
        let mut rng = StdRng::seed_from_u64(moloc_stats::sampling::derive_seed(seed, i as u64));
        let path = random_walk(&world.hall.graph, 16, &mut rng);
        let trajectory =
            Trajectory::from_path(&path, &world.hall.grid, user).expect("walks are non-trivial");
        let trace = renderer.render(&trajectory, user, &world.hall.env, &mean_scans, &mut rng);
        let offset = user.placement_offset_deg + user.compass_bias_deg;

        // Fused heading over the whole trace.
        let initial = trace.compass().values().first().copied().unwrap_or(0.0);
        let fused =
            HeadingFusion::new(initial, 4.0, 25.0 * 25.0).fuse_series(&trace.gyro, trace.compass());

        let (mut compass_errors, mut fused_errors) = (Vec::new(), Vec::new());
        for w in trace.passes.windows(2) {
            let truth = w[0]
                .position
                .bearing_deg_to_checked(w[1].position)
                .expect("distinct passes");
            let compass_slice = trace.compass().slice_time(w[0].time, w[1].time);
            let fused_slice = fused.slice_time(w[0].time, w[1].time);
            if let Some(d) = motion_direction_deg(&compass_slice, offset) {
                compass_errors.push(abs_diff_deg(d, truth));
            }
            if let Some(d) = motion_direction_deg(&fused_slice, offset) {
                fused_errors.push(abs_diff_deg(d, truth));
            }
        }
        (compass_errors, fused_errors)
    });
    let (mut compass_errors, mut fused_errors) = (Vec::new(), Vec::new());
    for (c, f) in per_user {
        compass_errors.extend(c);
        fused_errors.extend(f);
    }
    HeadingFusionAblation {
        compass_errors: Ecdf::from_samples(compass_errors),
        fused_errors: Ecdf::from_samples(fused_errors),
    }
}

/// Renders the heading-fusion ablation.
pub fn render_heading_fusion(result: &HeadingFusionAblation) -> String {
    let mut out = String::from(
        "# Ablation: compass-only vs Kalman gyro fusion (hostile compass, direction error)\n",
    );
    out.push_str(&report::cdf_comparison(
        "per-interval direction error (degrees)",
        &[
            ("fused", &result.fused_errors),
            ("compass", &result.compass_errors),
        ],
        10,
    ));
    out.push_str(&format!(
        "median: fused {:.1}°, compass-only {:.1}°\n",
        result.fused_errors.median().unwrap_or(f64::NAN),
        result.compass_errors.median().unwrap_or(f64::NAN),
    ));
    out
}

#[cfg(test)]
mod fusion_tests {
    use super::*;

    #[test]
    fn fusion_reduces_direction_error_under_hostile_compass() {
        let world = EvalWorld::small(41);
        let result = heading_fusion(&world, 41);
        assert!(!result.compass_errors.is_empty());
        assert!(
            result.fused_errors.median().unwrap() <= result.compass_errors.median().unwrap() + 1.0,
            "fused {:.1}° vs compass {:.1}°",
            result.fused_errors.median().unwrap(),
            result.compass_errors.median().unwrap()
        );
        let text = render_heading_fusion(&result);
        assert!(text.contains("fused"));
    }
}
