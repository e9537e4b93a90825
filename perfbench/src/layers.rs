//! Per-layer metrics of the traced run that every workload derives the
//! same way: bench-side span totals plus the program's own recorder.
//! Workload-specific probes override their entries afterwards; a layer
//! a workload never calls reports 0.

use crate::tracer::Tracer;
use crate::util::ratio;
use crate::{ObsView, Report};

/// Per-layer metric ← mean duration of a span, in the metric's unit.
const SPAN_MEANS: &[(&str, &str, f64)] = &[
    ("mobility.corpus_ms", "mobility.corpus", 1e6),
    ("radio.survey_ms", "radio.survey", 1e6),
    ("eval.setting_ms", "bench.setting", 1e6),
    ("eval.analyze_trace_us", "eval.analyze_trace", 1e3),
    ("eval.localize_moloc_ms", "bench.localize_moloc", 1e6),
    ("eval.localize_wifi_ms", "bench.localize_wifi", 1e6),
    ("motion.builder_ms", "motion.builder", 1e6),
    ("motion.kernel_build_ms", "motion.kernel_build", 1e6),
    ("fingerprint.db_build_ms", "fingerprint.db_build", 1e6),
    ("fingerprint.index_build_ms", "fingerprint.index_build", 1e6),
    ("core.trace_us", "core.trace", 1e3),
    ("session.ingest_us", "session.ingest", 1e3),
    ("live.publish_ms", "live.publish", 1e6),
];

/// Metrics only some workloads measure (probes and outside counts);
/// zero unless the workload sets them.
const WORKLOAD_SPECIFIC: &[&str] = &[
    "mobility.intervals_us",
    "fingerprint.nn_query_ns",
    "motion.rlm_accept_ratio",
    "core.trace_fponly_us",
    "core.fusion_share",
    "session.reorder_held_share",
    "session.duplicates_dropped",
    "live.publish_p99_ms",
    "live.adopt_step_us",
    "live.steady_step_us",
];

/// Fills the shared per-layer metrics. `ops` is the number of traced
/// operations the recorder saw.
pub fn fill(report: &mut Report, tracer: &Tracer, obs: &ObsView, ops: u64) {
    for &(metric, span, unit_ns) in SPAN_MEANS {
        report.set(metric, tracer.totals(span).mean(unit_ns));
    }
    for &metric in WORKLOAD_SPECIFIC {
        report.set(metric, 0.0);
    }
    let ops = ops as f64;
    let knn = |o: &ObsView| -> Option<f64> {
        Some(o.counter("fingerprint.knn.queries")? + o.counter("fingerprint.knn.masked_queries")?)
    };
    let m = &mut report.metrics;
    m.insert(
        "fingerprint.masked_share",
        knn(obs).and_then(|q| Some(ratio(obs.counter("fingerprint.knn.masked_queries")?, q))),
    );
    m.insert("fingerprint.knn.queries", knn(obs).map(|q| ratio(q, ops)));
    m.insert(
        "fingerprint.knn.candidates_scanned",
        knn(obs).and_then(|q| Some(ratio(obs.counter("fingerprint.knn.candidates_scanned")?, q))),
    );
    m.insert(
        "core.observe_ns",
        obs.hist("core.batch.observe")
            .map(|(n, s)| 1e9 * ratio(s, n)),
    );
    m.insert(
        "core.motion_fallback_share",
        obs.share(
            "core.degradation.motion_fallback",
            &["core.degradation.observations"],
        ),
    );
    m.insert(
        "core.eq7.pair_products",
        obs.hist("core.eq7.pair_products").map(|(n, s)| ratio(s, n)),
    );
    m.insert(
        "session.checkpoint.writes",
        obs.counter("session.checkpoint.writes")
            .map(|w| ratio(w, ops)),
    );
    m.insert(
        "session.checkpoint.bytes",
        obs.share("session.checkpoint.bytes", &["session.checkpoint.writes"]),
    );
    m.insert(
        "live.build_snapshot_ms",
        obs.hist("live.publish.build_seconds")
            .map(|(n, s)| 1e3 * ratio(s, n)),
    );
    m.insert(
        "live.deltas_per_publish",
        obs.share("live.publish.deltas_folded", &["live.publish.count"]),
    );
}
