//! Degradation-ladder behavior under *composed* faults (ISSUE 8,
//! satellite 3).
//!
//! Drives the full pipeline through every point of an
//! `ApDropout × SensorGap × RlmCorruption` intensity grid, with all
//! three injectors stacked in one [`FaultSuite`]. Three invariants:
//!
//! 1. **No panic anywhere** — `localize_faulted` itself asserts a
//!    finite, normalized posterior after every pass, so merely
//!    completing the grid proves the degradation ladder absorbs every
//!    combination without NaN or mass loss.
//! 2. **Zero-intensity bit-identity** — the all-zero grid corner (all
//!    injectors at exact no-op settings) reproduces the clean
//!    pipeline's estimates exactly.
//! 3. **Monotone rung ordering** — because each injector draws
//!    `unit(hash(seed, ...)) < rate`, the corrupted sets are *nested*
//!    across rates under a fixed seed: every AP reading dropped at
//!    rate 0.3 is also dropped at 0.7. Holding the other axes fixed,
//!    the masked-query and no-observed-AP rung counts must therefore
//!    be non-decreasing along the dropout axis.

use std::sync::OnceLock;

use moloc_core::config::MoLocConfig;
use moloc_eval::experiments::robustness::{localize_faulted, DegradationCounts};
use moloc_eval::pipeline::{analyze_trace, EvalWorld, PassOutcome, Setting};
use moloc_faults::plan::{apply_to_trace, FaultSuite};
use moloc_faults::{ApDropout, RlmCorruption, SensorGap};
use moloc_mobility::render::SensorTrace;
use moloc_sensors::steps::StepDetector;

const SEED: u64 = 2013;
const N_APS: usize = 6;

const DROPOUT_RATES: [f64; 3] = [0.0, 0.3, 0.7];
const GAP_COUNTS: [usize; 2] = [0, 2];
const RLM_FRACTIONS: [f64; 2] = [0.0, 0.5];

struct Fixture {
    world: EvalWorld,
    setting: Setting,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = EvalWorld::small(SEED);
        let setting = world.setting(N_APS);
        Fixture { world, setting }
    })
}

fn suite(dropout: f64, gaps: usize, rlm: f64) -> FaultSuite {
    FaultSuite::new()
        .with(ApDropout {
            rate: dropout,
            seed: SEED,
        })
        .with(SensorGap {
            gaps_per_trace: gaps,
            gap_s: 3.0,
            seed: SEED ^ 0x4741_5053,
        })
        .with(RlmCorruption {
            fraction: rlm,
            seed: SEED ^ 0x524C_4D43,
        })
}

fn run_point(dropout: f64, gaps: usize, rlm: f64) -> (Vec<Vec<PassOutcome>>, DegradationCounts) {
    let fx = fixture();
    localize_faulted(
        &fx.world,
        &fx.setting,
        MoLocConfig::paper(),
        &suite(dropout, gaps, rlm),
    )
}

fn estimates(outcomes: &[Vec<PassOutcome>]) -> Vec<u32> {
    outcomes
        .iter()
        .flatten()
        .map(|o| o.estimate.get())
        .collect()
}

/// Every point of the composed grid, replayed with the `moloc-verify`
/// invariant layer recording: the Eq. 7 posterior must be a probability
/// simplex (finite, non-negative, summing to 1 ± 1e-12) and every k-NN
/// result must honor the rank/tie contract on *every* degradation rung
/// and fault mix — not just the clean corner the unit tests cover.
/// Recording mode (rather than panic mode) keeps the sweep running so
/// one failure reports the full violation list.
#[test]
fn composed_grid_upholds_verify_invariants_on_every_rung() {
    moloc_verify::enable_recording();
    let _ = moloc_verify::take_violations();
    for &gaps in &GAP_COUNTS {
        for &rlm in &RLM_FRACTIONS {
            for &dropout in &DROPOUT_RATES {
                let (_, counts) = run_point(dropout, gaps, rlm);
                assert!(counts.passes > 0, "grid point scored no passes");
                let violations = moloc_verify::take_violations();
                assert!(
                    violations.is_empty(),
                    "invariant violations at dropout {dropout}, gaps {gaps}, \
                     rlm {rlm}: {violations:?}"
                );
            }
        }
    }
    moloc_verify::set_enabled(false);
}

#[test]
fn zero_intensity_composition_is_bit_identical_to_clean() {
    let fx = fixture();
    let (clean, clean_counts) = localize_faulted(
        &fx.world,
        &fx.setting,
        MoLocConfig::paper(),
        &FaultSuite::new(),
    );
    let (zeroed, zero_counts) = run_point(0.0, 0, 0.0);
    assert_eq!(
        estimates(&zeroed),
        estimates(&clean),
        "zero-intensity composed suite diverged from the clean pipeline"
    );
    assert_eq!(
        zero_counts, clean_counts,
        "zero-intensity composed suite changed the rung occupancy"
    );
    assert_eq!(
        zero_counts.masked, 0,
        "clean pipeline must never take the masked-metric rung"
    );
}

#[test]
fn composed_grid_completes_with_monotone_rungs_along_dropout() {
    // Every grid point must complete (localize_faulted panics on any
    // non-finite or unnormalized posterior), score the same number of
    // passes, and — with the other axes held fixed — occupy the
    // masked/no-observed rungs monotonically in the dropout rate.
    let mut passes_everywhere: Option<usize> = None;
    for &gaps in &GAP_COUNTS {
        for &rlm in &RLM_FRACTIONS {
            let mut prev: Option<DegradationCounts> = None;
            for &dropout in &DROPOUT_RATES {
                let (_, counts) = run_point(dropout, gaps, rlm);
                assert!(counts.passes > 0, "grid point scored no passes");
                match passes_everywhere {
                    None => passes_everywhere = Some(counts.passes),
                    Some(expected) => assert_eq!(
                        counts.passes, expected,
                        "fault intensity changed the number of scored passes \
                         (dropout {dropout}, gaps {gaps}, rlm {rlm})"
                    ),
                }
                if let Some(prev) = prev {
                    assert!(
                        counts.masked >= prev.masked,
                        "masked rung regressed along the dropout axis \
                         (dropout {dropout}, gaps {gaps}, rlm {rlm}): \
                         {} < {}",
                        counts.masked,
                        prev.masked
                    );
                    assert!(
                        counts.no_observed >= prev.no_observed,
                        "no-observed rung regressed along the dropout axis \
                         (dropout {dropout}, gaps {gaps}, rlm {rlm}): \
                         {} < {}",
                        counts.no_observed,
                        prev.no_observed
                    );
                }
                prev = Some(counts);
            }
            // The top dropout rate must actually exercise the ladder —
            // a grid whose rungs never fire proves nothing.
            let top = prev.expect("grid row ran");
            assert!(
                top.masked > 0,
                "dropout 0.7 never took the masked rung (gaps {gaps}, rlm {rlm})"
            );
        }
    }
}

/// A trace's interval memo is keyed on pass times and the detector, not
/// on the sensor streams, so a fault that rewrites a stream must drop
/// it. Faulting a clone whose memo is filled must analyze exactly like
/// faulting a clone whose memo is empty.
#[test]
fn faults_on_a_memoized_trace_never_see_stale_intervals() {
    let fx = fixture();
    let detector = StepDetector::default();
    let gap = SensorGap {
        gaps_per_trace: 2,
        gap_s: 3.0,
        seed: SEED ^ 0x4741_5053,
    };
    let analyze = |trace: &SensorTrace| {
        let analysis = analyze_trace(
            trace,
            &fx.setting.fdb,
            &fx.world.hall,
            &detector,
            fx.setting.counting,
            N_APS,
        );
        // Debug prints every float in round-trip form, so equal strings
        // are bit-identical analyses, NaN step counts included.
        format!("{analysis:?}")
    };
    let mut changed = 0;
    for (i, original) in fx.world.corpus.test.iter().enumerate() {
        // Analyzing `warm` fills its memo; its clone below keeps it.
        let warm = original.clone();
        let clean = analyze(&warm);
        // A serde round trip yields the same trace with an empty memo.
        let json = serde_json::to_string(original).expect("trace serializes");
        let mut cold: SensorTrace = serde_json::from_str(&json).expect("trace deserializes");
        assert_eq!(&cold, original);

        let mut faulted_warm = warm.clone();
        apply_to_trace(&gap, i as u64, &mut faulted_warm);
        apply_to_trace(&gap, i as u64, &mut cold);
        let faulted = analyze(&cold);
        assert_eq!(
            analyze(&faulted_warm),
            faulted,
            "trace {i}: the memoized clone analyzed stale intervals"
        );
        changed += usize::from(faulted != clean);
    }
    // The fault must move some analyses, or the check proves nothing.
    assert!(changed > 0, "the gap fault never changed an analysis");
}
