//! Structured audit reporting for the `moloc-audit` binary.
//!
//! The audit runs every differential suite to completion, collecting
//! divergences and invariant violations instead of aborting at the
//! first mismatch, then serializes one [`AuditReport`] as JSON. CI
//! gates on [`AuditReport::clean`].

use crate::Violation;
use serde::{Deserialize, Serialize};

/// One oracle-vs-optimised mismatch found by a differential suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Divergence {
    /// The suite that found it, e.g. `knn.masked`.
    pub suite: String,
    /// Which case inside the suite, e.g. `trace 3 step 17`.
    pub case: String,
    /// What the oracle produced.
    pub expected: String,
    /// What the optimised path produced.
    pub actual: String,
}

/// Per-suite execution summary: how many cases ran and how many
/// diverged, so a clean report still proves coverage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuiteSummary {
    /// Suite name, e.g. `eq7.kernel`.
    pub name: String,
    /// Differential comparisons executed.
    pub cases: u64,
    /// Comparisons that diverged from the oracle.
    pub divergences: u64,
}

/// The full audit run: seed, per-suite coverage, and every divergence
/// and invariant violation observed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AuditReport {
    /// The fault-plan / input-generation seed the run used.
    pub seed: u64,
    /// Per-suite case counts (in execution order).
    pub suites: Vec<SuiteSummary>,
    /// Every oracle-vs-optimised mismatch.
    pub divergences: Vec<Divergence>,
    /// Every runtime invariant violation recorded during the sweep.
    pub invariant_violations: Vec<Violation>,
}

impl AuditReport {
    /// A fresh report for one audit run.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Closes out one suite: records its summary and appends its
    /// divergences.
    pub fn finish_suite(&mut self, name: &str, cases: u64, divergences: Vec<Divergence>) {
        self.suites.push(SuiteSummary {
            name: name.to_string(),
            cases,
            divergences: divergences.len() as u64,
        });
        self.divergences.extend(divergences);
    }

    /// Whether the run passed: no divergences, no invariant
    /// violations, and at least one case actually executed (an audit
    /// that ran nothing is not evidence of anything).
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
            && self.invariant_violations.is_empty()
            && self.suites.iter().any(|s| s.cases > 0)
    }

    /// Total cases across all suites.
    pub fn total_cases(&self) -> u64 {
        self.suites.iter().map(|s| s.cases).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_not_clean() {
        assert!(!AuditReport::new(7).clean(), "zero cases must not pass");
    }

    #[test]
    fn clean_and_dirty_reports_classify() {
        let mut report = AuditReport::new(2013);
        report.finish_suite("knn.scalar", 128, Vec::new());
        assert!(report.clean());
        assert_eq!(report.total_cases(), 128);

        report.finish_suite(
            "eq4",
            64,
            vec![Divergence {
                suite: "eq4".to_string(),
                case: "step 9".to_string(),
                expected: "0.5".to_string(),
                actual: "0.4".to_string(),
            }],
        );
        assert!(!report.clean());
        assert_eq!(report.suites[1].divergences, 1);
        assert_eq!(report.total_cases(), 192);
    }

    #[test]
    fn report_serializes_round_trip() {
        let mut report = AuditReport::new(42);
        report.finish_suite("frame", 10, Vec::new());
        report.invariant_violations.push(Violation {
            check: "t".to_string(),
            detail: "d".to_string(),
        });
        let json = serde_json::to_string(&report).expect("serialize");
        let back: AuditReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
        assert!(!back.clean());
    }
}
