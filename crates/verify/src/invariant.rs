//! Runtime invariant checks for the serving hot paths.
//!
//! Each check early-returns on one relaxed atomic load while disabled
//! (see the crate docs); when enabled, a violated invariant either
//! panics with full context (the test default) or records into the
//! global sink (the audit binary's mode). Checks never mutate their
//! inputs and never feed back into the computation, so enabling them
//! cannot change pipeline output — only detect that it is wrong.

use crate::{is_enabled, violate};
use moloc_geometry::LocationId;
use serde::{Deserialize, Serialize};

/// Absolute tolerance on the posterior probability-simplex sum. Every
/// normalized path divides by the freshly-computed total, so the
/// realized error is a few ULPs; `1e-12` leaves three orders of
/// margin while still catching any real mass-conservation bug.
pub const SIMPLEX_TOLERANCE: f64 = 1e-12;

/// One recorded invariant violation (recording mode only).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// The check's context label, e.g. `core.batch.posterior`.
    pub check: String,
    /// Human-readable description of what failed.
    pub detail: String,
}

/// Checks that `posterior` is a probability simplex: every weight
/// finite and non-negative, the total within
/// [`SIMPLEX_TOLERANCE`] of 1. No-op while disabled.
#[inline]
pub fn check_posterior<I>(check: &'static str, posterior: I)
where
    I: IntoIterator<Item = (LocationId, f64)>,
{
    if !is_enabled() {
        return;
    }
    let mut total = 0.0;
    let mut n = 0usize;
    for (location, p) in posterior {
        if !p.is_finite() || p < 0.0 {
            violate(
                check,
                format!("posterior weight for {location} is {p} (finite, >= 0 required)"),
            );
            return;
        }
        total += p;
        n += 1;
    }
    if n == 0 {
        violate(check, "posterior is empty".to_string());
        return;
    }
    if (total - 1.0).abs() > SIMPLEX_TOLERANCE {
        violate(
            check,
            format!("posterior over {n} candidates sums to {total:.17} (1 ± 1e-12 required)"),
        );
    }
}

/// Checks a k-NN result's rank contract: dissimilarities ascending,
/// exact ties broken by strictly ascending location id. No-op while
/// disabled.
#[inline]
pub fn check_knn_ranks<I>(check: &'static str, neighbors: I)
where
    I: IntoIterator<Item = (LocationId, f64)>,
{
    if !is_enabled() {
        return;
    }
    let mut prev: Option<(LocationId, f64)> = None;
    for (location, dissimilarity) in neighbors {
        if dissimilarity.is_nan() {
            violate(check, format!("NaN dissimilarity at {location}"));
            return;
        }
        if let Some((prev_loc, prev_diss)) = prev {
            let ordered =
                dissimilarity > prev_diss || (dissimilarity == prev_diss && location > prev_loc);
            if !ordered {
                violate(
                    check,
                    format!(
                        "rank order broken: ({prev_loc}, {prev_diss}) precedes \
                         ({location}, {dissimilarity}) — dissimilarity must ascend, \
                         ties by lower id"
                    ),
                );
                return;
            }
        }
        prev = Some((location, dissimilarity));
    }
}

/// Checks reorder-buffer watermark monotonicity: the watermark after
/// an operation is never below the watermark before it. No-op while
/// disabled.
#[inline]
pub fn check_watermark(check: &'static str, before: u64, after: u64) {
    if !is_enabled() {
        return;
    }
    if after < before {
        violate(
            check,
            format!("watermark moved backwards: {before} -> {after}"),
        );
    }
}

/// Checks snapshot epoch monotonicity: a publisher or reader never
/// observes an epoch below one it already observed. No-op while
/// disabled.
#[inline]
pub fn check_epoch(check: &'static str, before: u64, after: u64) {
    if !is_enabled() {
        return;
    }
    if after < before {
        violate(check, format!("epoch moved backwards: {before} -> {after}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enable_recording, set_enabled, take_violations, test_gate};

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    /// Runs `f` with recording enabled and returns what it recorded.
    fn recorded(f: impl FnOnce()) -> Vec<Violation> {
        let _gate = test_gate::lock();
        enable_recording();
        let _ = take_violations();
        f();
        let violations = take_violations();
        set_enabled(false);
        violations
    }

    #[test]
    fn valid_posterior_passes() {
        let v = recorded(|| {
            check_posterior("t", [(l(1), 0.25), (l(2), 0.5), (l(3), 0.25)]);
        });
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn non_unit_sum_and_bad_weights_are_flagged() {
        let v = recorded(|| {
            check_posterior("t.sum", [(l(1), 0.3), (l(2), 0.3)]);
            check_posterior("t.nan", [(l(1), f64::NAN)]);
            check_posterior("t.neg", [(l(1), -0.25), (l(2), 1.25)]);
            check_posterior("t.empty", std::iter::empty());
        });
        let checks: Vec<&str> = v.iter().map(|v| v.check.as_str()).collect();
        assert_eq!(checks, ["t.sum", "t.nan", "t.neg", "t.empty"]);
    }

    #[test]
    fn knn_tie_order_is_enforced_exactly() {
        let v = recorded(|| {
            // Correct: ascending, tie to lower id.
            check_knn_ranks("t.ok", [(l(1), 1.0), (l(2), 1.0), (l(3), 2.0)]);
            // Tie broken the wrong way.
            check_knn_ranks("t.tie", [(l(2), 1.0), (l(1), 1.0)]);
            // Descending rank.
            check_knn_ranks("t.desc", [(l(1), 2.0), (l(2), 1.0)]);
            // Duplicate entry (equal rank, equal id).
            check_knn_ranks("t.dup", [(l(1), 1.0), (l(1), 1.0)]);
        });
        let checks: Vec<&str> = v.iter().map(|v| v.check.as_str()).collect();
        assert_eq!(checks, ["t.tie", "t.desc", "t.dup"]);
    }

    #[test]
    fn watermark_and_epoch_monotonicity() {
        let v = recorded(|| {
            check_watermark("t.wm.ok", 3, 3);
            check_watermark("t.wm.ok2", 3, 7);
            check_watermark("t.wm.bad", 7, 3);
            check_epoch("t.ep.ok", 0, 1);
            check_epoch("t.ep.bad", 2, 1);
        });
        let checks: Vec<&str> = v.iter().map(|v| v.check.as_str()).collect();
        assert_eq!(checks, ["t.wm.bad", "t.ep.bad"]);
    }
}
