//! One benchmark for the MoLoc reproduction: four named workloads, the
//! end-to-end metrics a user sees, and a traced run that attributes the
//! time to the workspace crates.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `paper-repro`, `large-survey`, `stream-serve`,
//! `live-update` (see `perfbench/README.md`). With `--trace 0` the last
//! stdout line is a JSON object carrying every end-to-end metric; with
//! `--trace 1` it carries every per-layer metric and the span file is
//! written under `.bench_build/perfbench-out/`.

mod host;
mod large_survey;
mod layers;
mod live_update;
mod paper_repro;
mod stream_serve;
mod tracer;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tracer::Tracer;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; `BENCHMARK.json` declares the same list with bounds.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_pct", "%"),
    ("ops_per_s", "1/s"),
    ("op_us.p50", "us"),
    ("op_us.p99", "us"),
    ("moloc_accuracy_pct", "%"),
    ("wifi_accuracy_pct", "%"),
    ("mean_error_m", "m"),
];

/// The layers, named after the workspace crates they time, plus the
/// benchmark's own glue.
const LAYERS: &[(&str, &str)] = &[
    ("bench", "bench.self_pct"),
    ("mobility", "mobility.self_pct"),
    ("radio", "radio.self_pct"),
    ("eval", "eval.self_pct"),
    ("motion", "motion.self_pct"),
    ("fingerprint", "fingerprint.self_pct"),
    ("core", "core.self_pct"),
    ("session", "session.self_pct"),
    ("live", "live.self_pct"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
const PER_LAYER: &[(&str, &str)] = &[
    ("mobility.corpus_ms", "ms"),
    ("mobility.intervals_us", "us"),
    ("radio.survey_ms", "ms"),
    ("eval.setting_ms", "ms"),
    ("eval.analyze_trace_us", "us"),
    ("eval.localize_moloc_ms", "ms"),
    ("eval.localize_wifi_ms", "ms"),
    ("motion.builder_ms", "ms"),
    ("motion.rlm_accept_ratio", "ratio"),
    ("motion.kernel_build_ms", "ms"),
    ("fingerprint.db_build_ms", "ms"),
    ("fingerprint.index_build_ms", "ms"),
    ("fingerprint.nn_query_ns", "ns"),
    ("fingerprint.masked_share", "ratio"),
    ("fingerprint.knn.queries", "count"),
    ("fingerprint.knn.candidates_scanned", "count"),
    ("core.trace_us", "us"),
    ("core.trace_fponly_us", "us"),
    ("core.fusion_share", "ratio"),
    ("core.observe_ns", "ns"),
    ("core.motion_fallback_share", "ratio"),
    ("core.eq7.pair_products", "count"),
    ("session.ingest_us", "us"),
    ("session.checkpoint.writes", "count"),
    ("session.checkpoint.bytes", "B"),
    ("session.reorder_held_share", "ratio"),
    ("session.duplicates_dropped", "count"),
    ("live.publish_ms", "ms"),
    ("live.publish_p99_ms", "ms"),
    ("live.build_snapshot_ms", "ms"),
    ("live.adopt_step_us", "us"),
    ("live.steady_step_us", "us"),
    ("live.deltas_per_publish", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("bench.self_pct", "%"),
    ("mobility.self_pct", "%"),
    ("radio.self_pct", "%"),
    ("eval.self_pct", "%"),
    ("motion.self_pct", "%"),
    ("fingerprint.self_pct", "%"),
    ("core.self_pct", "%"),
    ("session.self_pct", "%"),
    ("live.self_pct", "%"),
];

const WORKLOADS: &[&str] = &["paper-repro", "large-survey", "stream-serve", "live-update"];

/// Where the span files and checkpoint logs go, relative to the
/// checkout root the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_build").join("perfbench-out")
}

/// What a workload hands back. `metrics` holds the workload's own
/// end-to-end metrics (untraced run) or layer metrics (traced run);
/// `None` marks a program counter that no longer exists.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub metrics: BTreeMap<&'static str, Option<f64>>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Some(value));
    }

    /// The timing metrics, each summarized over repeated items (see
    /// [`util::Repeats`]).
    pub fn timing(&mut self, ops_per_s: f64, p50_us: f64, p99_us: f64) {
        self.set("ops_per_s", ops_per_s);
        self.set("op_us.p50", p50_us);
        self.set("op_us.p99", p99_us);
    }
}

/// Localization fidelity against the truth, over a fixed,
/// seed-determined set of steps (so it does not depend on speed).
#[derive(Debug, Default)]
pub struct Fidelity {
    passes: u64,
    moloc_hits: u64,
    wifi_hits: u64,
    moloc_error_m: f64,
}

impl Fidelity {
    pub fn add(&mut self, moloc_hit: bool, wifi_hit: bool, moloc_error_m: f64) {
        self.passes += 1;
        self.moloc_hits += u64::from(moloc_hit);
        self.wifi_hits += u64::from(wifi_hit);
        self.moloc_error_m += moloc_error_m;
    }

    pub fn report(&self, report: &mut Report) {
        let n = self.passes as f64;
        report.set(
            "moloc_accuracy_pct",
            100.0 * util::ratio(self.moloc_hits as f64, n),
        );
        report.set(
            "wifi_accuracy_pct",
            100.0 * util::ratio(self.wifi_hits as f64, n),
        );
        report.set("mean_error_m", util::ratio(self.moloc_error_m, n));
    }
}

/// Run-wide state shared by the workloads: arguments, the tracer, and
/// the traced-versus-untraced bookkeeping of `--trace 1`.
pub struct Bench {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tracer: Tracer,
    traced_ns: u64,
    untraced_ns: u64,
    ops: u64,
    traced_ops: u64,
    setup_count: usize,
    setup_s: Vec<f64>,
}

/// One executed operation: its output, the untraced wall time, and
/// whether the traced copy (if any) produced the same digest.
pub struct Op<R> {
    pub out: R,
    pub ns: u64,
    pub consistent: bool,
}

impl Bench {
    /// Runs one operation. Untraced, it runs once. Traced, it runs
    /// twice on identical inputs — recording off, then on (the order
    /// alternates per operation) — and the two digests must agree: the
    /// recorders are pure observers.
    pub fn op<R>(
        &mut self,
        mut f: impl FnMut(&mut Tracer) -> R,
        digest: impl Fn(&R) -> u64,
    ) -> Op<R> {
        self.ops += 1;
        if !self.trace {
            let start = Instant::now();
            let out = f(&mut self.tracer);
            return Op {
                out,
                ns: start.elapsed().as_nanos() as u64,
                consistent: true,
            };
        }
        self.traced_ops += 1;
        let traced_first = self.ops.is_multiple_of(2);
        let mut run = |bench: &mut Bench, traced: bool| {
            bench.tracer.set_on(traced);
            moloc_obs::set_enabled(traced);
            let start = Instant::now();
            let out = f(&mut bench.tracer);
            let ns = start.elapsed().as_nanos() as u64;
            moloc_obs::set_enabled(false);
            bench.tracer.set_on(false);
            if traced {
                bench.traced_ns += ns;
            } else {
                bench.untraced_ns += ns;
            }
            (out, ns)
        };
        let (first, first_ns) = run(self, traced_first);
        let (second, second_ns) = run(self, !traced_first);
        let consistent = digest(&first) == digest(&second);
        let (out, ns) = if traced_first {
            (second, second_ns)
        } else {
            (first, first_ns)
        };
        Op {
            out,
            ns,
            consistent,
        }
    }

    /// Runs a workload's set-up and returns its output. Measuring, this
    /// is the first of `count` timed set-ups whose median is `setup_s`;
    /// the others run spread over the timed loop ([`Bench::resetup`]),
    /// so that the median sees the shared host at several moments of
    /// the run rather than one. Tracing, it runs once with the
    /// recorders on, so its layer calls count towards the layer
    /// metrics. The program's recorder starts from zero afterwards.
    pub fn setup<W>(&mut self, count: usize, f: impl FnOnce(&mut Tracer) -> W) -> W {
        let out = if self.trace {
            self.tracer.set_on(true);
            moloc_obs::set_enabled(true);
            let out = f(&mut self.tracer);
            moloc_obs::set_enabled(false);
            self.tracer.set_on(false);
            out
        } else {
            self.setup_count = count;
            self.timed_setup(f)
        };
        ObsView::reset();
        out
    }

    fn timed_setup<W>(&mut self, f: impl FnOnce(&mut Tracer) -> W) -> W {
        let start = Instant::now();
        let out = f(&mut self.tracer);
        self.setup_s.push(start.elapsed().as_secs_f64());
        out
    }

    /// Called between operations of the timed loop (measuring only):
    /// when the next set-up is due — they fall at even fractions of the
    /// run — drops `current` and sets up again, timed. The set-up is a
    /// function of the seed, so the new output equals the old one; it
    /// replaces it, and two never coexist.
    pub fn resetup<W>(
        &mut self,
        started: Instant,
        current: W,
        f: impl FnOnce(&mut Tracer) -> W,
    ) -> W {
        let taken = self.setup_s.len();
        let due = self.seconds * taken as f64 / self.setup_count.max(1) as f64;
        if self.trace || taken >= self.setup_count || started.elapsed().as_secs_f64() < due {
            return current;
        }
        drop(current);
        self.timed_setup(f)
    }

    /// After the timed loop: takes the set-ups a short run left out and
    /// reports `setup_s`, the median of all of them.
    pub fn finish_setup<W>(
        &mut self,
        report: &mut Report,
        mut current: W,
        mut f: impl FnMut(&mut Tracer) -> W,
    ) -> W {
        if self.trace {
            return current;
        }
        while self.setup_s.len() < self.setup_count {
            drop(current);
            current = self.timed_setup(&mut f);
        }
        report.set("setup_s", util::median(&self.setup_s));
        current
    }

    /// Operations that ran with the recorders on.
    pub fn traced_ops(&self) -> u64 {
        self.traced_ops
    }

    /// Whether the measuring window is still open.
    pub fn running(&self, started: Instant) -> bool {
        started.elapsed().as_secs_f64() < self.seconds
    }
}

/// Counters and histograms of the program's own recorder, folded into
/// the layer metrics of the traced run.
pub struct ObsView(moloc_obs::MetricsSnapshot);

impl ObsView {
    /// Clears the recorder and declares the full metric taxonomy, so a
    /// name missing from a later snapshot was removed from the program.
    pub fn reset() {
        moloc_obs::reset();
        moloc_eval::observe::preregister();
    }

    pub fn take() -> ObsView {
        ObsView(moloc_obs::snapshot())
    }

    pub fn counter(&self, name: &str) -> Option<f64> {
        self.0.counter(name).map(|v| v as f64)
    }

    /// `(count, sum)` of a histogram.
    pub fn hist(&self, name: &str) -> Option<(f64, f64)> {
        self.0.histogram(name).map(|h| (h.count as f64, h.sum))
    }

    /// `num / den` over two counters, `None` if either was removed.
    pub fn share(&self, num: &str, den: &[&str]) -> Option<f64> {
        let n = self.counter(num)?;
        let mut d = 0.0;
        for name in den {
            d += self.counter(name)?;
        }
        Some(util::ratio(n, d))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json_value(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".into(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = match host::Host::probe() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench: refusing to run: {e}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host.to_json());

    let mut bench = Bench {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tracer: Tracer::new(),
        traced_ns: 0,
        untraced_ns: 0,
        ops: 0,
        traced_ops: 0,
        setup_count: 0,
        setup_s: Vec::new(),
    };
    let mut report = match args.workload.as_str() {
        "paper-repro" => paper_repro::run(&mut bench),
        "large-survey" => large_survey::run(&mut bench),
        "stream-serve" => stream_serve::run(&mut bench),
        "live-update" => live_update::run(&mut bench),
        _ => unreachable!("workload validated by parse_args"),
    };

    let table: &[(&str, &str)] = if args.trace {
        let root = bench.tracer.root_ns() as f64;
        let layers = bench.tracer.layer_self_ns();
        let covered: u64 = layers
            .iter()
            .filter(|(layer, _)| **layer != "bench")
            .map(|(_, ns)| ns)
            .sum();
        report.set(
            "trace.coverage_pct",
            100.0 * util::ratio(covered as f64, root),
        );
        report.set(
            "trace.overhead_pct",
            100.0 * (util::ratio(bench.traced_ns as f64, bench.untraced_ns as f64) - 1.0),
        );
        for &(layer, metric) in LAYERS {
            let ns = layers.get(layer).copied().unwrap_or(0) as f64;
            report.set(metric, 100.0 * util::ratio(ns, root));
        }
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"host\":{}}}",
            args.workload,
            args.seed,
            host.to_json()
        );
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match bench.tracer.write(&path, &header) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        PER_LAYER
    } else {
        report.set("peak_rss_mb", util::peak_rss_mb());
        report.set(
            "success_pct",
            100.0
                * util::ratio(
                    (report.attempted - report.failed) as f64,
                    report.attempted as f64,
                ),
        );
        END_TO_END
    };

    let mut correct = report.failed == 0 && report.attempted > 0;
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None => {
                eprintln!("perfbench: workload did not report {name}");
                correct = false;
                None
            }
        };
        if !args.trace && !value.is_some_and(f64::is_finite) {
            correct = false;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_value(value)
        ));
    }
    println!("digest {:016x}", report.digest);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
