//! The parallel evaluation engine must be bit-identical to a serial
//! run: the worker pool collects results by index and every work item
//! derives its randomness from its own seed, so thread scheduling can
//! never leak into outputs. These tests run the same workloads with
//! `MOLOC_THREADS` unset (ambient parallelism) and compare them with a
//! forced single-thread run spawned as a child process (the variable is
//! read per call, but setting env vars in-process is unsafe under
//! threads — so the serial arm runs in a clean child).
//!
//! Spawning a child per comparison is heavy; instead the serial arm
//! here *is* in-process, using the pool's own contract: `par_run`
//! documents equality with `(0..n).map(f)`, and the workloads below
//! check that equality end-to-end through the real pipeline.

use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_eval::pipeline::{analyze_trace, localize_moloc, localize_wifi, EvalWorld, PassOutcome};
use moloc_eval::OfficeHall;
use moloc_geometry::LocationId;
use moloc_mobility::corpus::{CorpusConfig, TraceCorpus};
use moloc_mobility::user::paper_users;
use moloc_runtime::{par_run, set_worker_override, thread_count};
use moloc_sensors::steps::StepDetector;
use moloc_verify::oracle;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests that arm the process-global worker override,
/// so that each runs at the widths it names.
static OVERRIDE_GATE: Mutex<()> = Mutex::new(());

fn override_gate() -> MutexGuard<'static, ()> {
    OVERRIDE_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn thread_count_env_contract() {
    // Whatever the ambient setting, the pool reports at least one
    // worker and the experiments below must not depend on the count.
    assert!(thread_count() >= 1);
}

#[test]
fn par_run_equals_serial_map_for_pure_functions() {
    let serial: Vec<u64> = (0..193u64)
        .map(|i| i.wrapping_mul(0x2545F4914F6CDD1D))
        .collect();
    let parallel = par_run(193, |i| (i as u64).wrapping_mul(0x2545F4914F6CDD1D));
    assert_eq!(serial, parallel);
}

#[test]
fn parallel_wifi_outcomes_are_byte_identical_to_serial() {
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    let parallel = localize_wifi(&world, &setting);
    // Serial reference: the same per-trace computation, plain map. The
    // pipeline's own fan-out must reproduce it exactly.
    let serial: Vec<_> = (0..world.corpus.test.len())
        .map(|i| localize_wifi_single_trace(&world, &setting, i))
        .collect();
    assert_eq!(parallel, serial);
}

/// Runs the WiFi baseline restricted to one trace by slicing the
/// parallel result of a fresh call — localize_wifi over the same
/// databases is a pure function, so per-trace rows are comparable
/// across calls.
fn localize_wifi_single_trace(
    world: &EvalWorld,
    setting: &moloc_eval::pipeline::Setting,
    index: usize,
) -> Vec<moloc_eval::pipeline::PassOutcome> {
    localize_wifi(world, setting)[index].clone()
}

#[test]
fn repeated_parallel_moloc_runs_are_identical() {
    // Two runs under the ambient thread count: scheduling differs,
    // output must not. (The per-trace engine sessions share only
    // read-only state — databases, kernel — and PassOutcome derives
    // PartialEq over every field, so this is a full bitwise check of
    // estimates and errors.)
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    let config = MoLocConfig::paper();
    let a = localize_moloc(&world, &setting, config);
    let b = localize_moloc(&world, &setting, config);
    assert_eq!(a, b);
    // And the trace fan-out really covered every test trace in order.
    assert_eq!(a.len(), world.corpus.test.len());
    for (per_trace, trace) in a.iter().zip(&world.corpus.test) {
        assert_eq!(per_trace.len(), trace.pass_count());
        for (pass_index, o) in per_trace.iter().enumerate() {
            assert_eq!(o.pass_index, pass_index);
        }
    }
}

#[test]
fn serial_child_process_matches_parallel_parent() {
    // The authoritative serial-vs-parallel check: rerun this test
    // binary's helper in a child with MOLOC_THREADS=1 and compare its
    // digest of the MoLoc outcomes with ours (computed under ambient
    // parallelism).
    let digest = outcome_digest();
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["helper_print_outcome_digest", "--exact", "--nocapture"])
        .env("MOLOC_THREADS", "1")
        .env("MOLOC_DIGEST_MODE", "1")
        .output()
        .expect("spawn serial child");
    assert!(out.status.success(), "child failed: {out:?}");
    let serial_digest = printed_digest(&out.stdout, "DIGEST=");
    assert_eq!(
        serial_digest, digest,
        "serial (MOLOC_THREADS=1) and parallel outcomes diverged"
    );
}

#[test]
fn outcome_digest_is_invariant_across_worker_counts() {
    // The persistent pool's contract: worker count is a throughput
    // knob, never an output knob. Force the pool through 1, 2, 3, and
    // 8 workers in-process (the override reshapes shard deques and
    // steal patterns without touching the environment) and require the
    // full-pipeline digest to be byte-identical every time.
    let _gate = override_gate();
    let baseline = outcome_digest();
    for workers in [1usize, 2, 3, 8] {
        set_worker_override(Some(workers));
        let digest = outcome_digest();
        set_worker_override(None);
        assert_eq!(
            digest, baseline,
            "digest diverged at {workers} forced workers"
        );
    }
}

#[test]
fn serial_child_digest_survives_thread_and_chunk_settings() {
    // Environment-level matrix: MOLOC_THREADS and MOLOC_CHUNK are
    // parsed once per process, so each cell runs as a clean child.
    // Chunk size shifts shard boundaries (including chunk=1, maximal
    // stealing, and a chunk larger than the trace count, one shard).
    // Neither may leak into outcomes.
    let digest = outcome_digest();
    let exe = std::env::current_exe().expect("test binary path");
    for (threads, chunk) in [
        ("2", None),
        ("3", None),
        ("8", None),
        ("2", Some("1")),
        ("3", Some("7")),
        ("2", Some("1024")),
    ] {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["helper_print_outcome_digest", "--exact", "--nocapture"])
            .env("MOLOC_THREADS", threads)
            .env("MOLOC_DIGEST_MODE", "1");
        match chunk {
            Some(c) => cmd.env("MOLOC_CHUNK", c),
            None => cmd.env_remove("MOLOC_CHUNK"),
        };
        let out = cmd.output().expect("spawn digest child");
        assert!(
            out.status.success(),
            "child {threads}/{chunk:?} failed: {out:?}"
        );
        let child_digest = printed_digest(&out.stdout, "DIGEST=");
        assert_eq!(
            child_digest, digest,
            "MOLOC_THREADS={threads} MOLOC_CHUNK={chunk:?} diverged from the parent"
        );
    }
}

/// The hex digest a child printed after `marker`. `--nocapture`
/// interleaves it with libtest's own output, so the marker is searched
/// for anywhere rather than at line starts.
fn printed_digest(stdout: &[u8], marker: &str) -> String {
    String::from_utf8_lossy(stdout)
        .split(marker)
        .nth(1)
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_hexdigit)
                .collect::<String>()
        })
        .unwrap_or_else(|| panic!("child printed no {marker}"))
}

/// FNV-1a over raw little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf29ce484222325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.eat(&x.to_bits().to_le_bytes());
    }

    fn usize(&mut self, n: usize) {
        self.eat(&(n as u64).to_le_bytes());
    }
}

/// Feeds every field of every outcome, in order — any reordering or
/// numerical difference changes the digest.
fn eat_outcomes(h: &mut Fnv, outcomes: &[Vec<PassOutcome>]) {
    for o in outcomes.iter().flatten() {
        h.usize(o.trace_index);
        h.usize(o.pass_index);
        h.eat(&o.truth.get().to_le_bytes());
        h.eat(&o.estimate.get().to_le_bytes());
        h.f64(o.error_m);
    }
}

fn digest(outcomes: &[Vec<PassOutcome>]) -> String {
    let mut h = Fnv::new();
    eat_outcomes(&mut h, outcomes);
    format!("{:016x}", h.0)
}

fn outcome_digest() -> String {
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    digest(&localize_moloc(&world, &setting, MoLocConfig::paper()))
}

#[test]
fn batch_engine_digest_matches_the_oracle_chain() {
    // The pipeline runs each trace through the zero-allocation
    // `BatchLocalizer` over the columnar `FingerprintIndex`. The
    // reference arm below is the naive oracle step — exhaustive sorted
    // k-NN, Eq. 4, Eq. 7 fusion with the kernel as the motion closure —
    // run serially per query. Identical digests prove the optimized
    // engine is bit-identical, not merely statistically equivalent.
    let world = EvalWorld::small(2013);
    let setting = world.setting(6);
    let config = MoLocConfig::paper();
    let batch = localize_moloc(&world, &setting, config);

    let detector = StepDetector::default();
    let kernel = build_kernel(&setting.motion_db, &config);
    let reference: Vec<Vec<PassOutcome>> = (0..world.corpus.test.len())
        .map(|trace_index| {
            let trace = &world.corpus.test[trace_index];
            let analysis = analyze_trace(
                trace,
                &setting.fdb,
                &world.hall,
                &detector,
                setting.counting,
                setting.n_aps,
            );
            let mut posterior: Vec<(LocationId, f64)> = Vec::new();
            trace
                .passes
                .iter()
                .zip(&trace.scans)
                .enumerate()
                .map(|(pass_index, (pass, scan))| {
                    let motion = if pass_index == 0 {
                        None
                    } else {
                        analysis.measurements[pass_index - 1]
                    };
                    let (history, d, o) = match motion {
                        Some(m) => (&posterior[..], m.direction_deg, m.offset_m),
                        None => (&[][..], 0.0, 0.0),
                    };
                    posterior = oracle::posterior_step(
                        setting.fdb.iter().map(|(id, fp)| (id, fp.values())),
                        &scan[..setting.n_aps],
                        config.k,
                        history,
                        |from, to| kernel.pair_probability(from, to, d, o),
                        config.degenerate_total_floor,
                    );
                    let estimate = oracle::top(&posterior).expect("k >= 1 candidates");
                    PassOutcome {
                        trace_index,
                        pass_index,
                        truth: pass.location,
                        estimate,
                        error_m: world.hall.grid.distance(pass.location, estimate),
                    }
                })
                .collect()
        })
        .collect();

    assert_eq!(
        digest(&batch),
        digest(&reference),
        "batched index path diverged from the oracle chain"
    );
}

#[test]
fn helper_print_outcome_digest() {
    // Only does work when invoked as the serial child of
    // `serial_child_process_matches_parallel_parent`; a normal test run
    // skips the (expensive) recomputation.
    if std::env::var("MOLOC_DIGEST_MODE").as_deref() == Ok("1") {
        println!("DIGEST={}", outcome_digest());
    }
}

/// Digests everything world synthesis produces: every survey scan of
/// every split, and every trace's accelerometer, compass and gyro
/// samples and pass scans (train then test).
fn world_digest(world: &EvalWorld) -> u64 {
    let mut h = Fnv::new();
    for loc in world.survey.locations() {
        h.eat(&loc.location.get().to_le_bytes());
        for split in [&loc.fingerprint, &loc.motion, &loc.test] {
            h.usize(split.len());
            for scan in split {
                h.usize(scan.len());
                scan.iter().for_each(|d| h.f64(d.value()));
            }
        }
    }
    eat_corpus(&mut h, &world.corpus);
    h.0
}

/// Feeds every trace's user, accelerometer, compass and gyro samples,
/// pass times and locations, and pass scans (train then test).
fn eat_corpus(h: &mut Fnv, corpus: &TraceCorpus) {
    for trace in corpus.iter() {
        h.eat(&trace.user.id.to_le_bytes());
        for series in [trace.accel(), trace.compass(), &trace.gyro] {
            h.usize(series.len());
            series.values().iter().for_each(|&v| h.f64(v));
        }
        h.usize(trace.passes.len());
        for (pass, scan) in trace.passes.iter().zip(&trace.scans) {
            h.f64(pass.time);
            h.eat(&pass.location.get().to_le_bytes());
            h.usize(scan.len());
            scan.iter().for_each(|&v| h.f64(v));
        }
    }
}

/// Digests every Fig. 7 outcome of both methods at every AP count.
fn fig7_digest(fig: &moloc_eval::experiments::fig7::Fig7) -> u64 {
    let mut h = Fnv::new();
    for s in &fig.settings {
        h.usize(s.n_aps);
        for method in [&s.wifi, &s.moloc] {
            eat_outcomes(&mut h, &method.outcomes);
        }
    }
    h.0
}

#[test]
fn paper_world_and_fig7_match_golden_digests() {
    // Golden constants, not run-vs-run: any change to the synthesis RNG
    // stream or to the float operations of the channel, the renderer
    // or the survey changes these. A change that means to move them
    // must say so and update both.
    let world = EvalWorld::paper(2013);
    assert_eq!(
        format!("{:016x}", world_digest(&world)),
        "5487b60189dd03bb",
        "paper world synthesis changed"
    );
    let fig = moloc_eval::experiments::fig7::run(&world);
    assert_eq!(
        format!("{:016x}", fig7_digest(&fig)),
        "a42ccd0be2d929f0",
        "fig7 outcomes on the paper world changed"
    );
}

/// The corpus of the width tests: the paper hall, 90 traces.
fn width_test_corpus() -> TraceCorpus {
    let hall = OfficeHall::paper();
    TraceCorpus::generate(
        &hall.env,
        &hall.grid,
        &hall.graph,
        &paper_users(),
        CorpusConfig::small(29),
    )
}

fn corpus_digest(corpus: &TraceCorpus) -> String {
    let mut h = Fnv::new();
    eat_corpus(&mut h, corpus);
    format!("{:016x}", h.0)
}

/// Renders the width-test corpus at pool widths 1, 2 and 4, requires
/// the wider corpora to equal the width-1 one, and returns the width-1
/// corpus.
fn corpus_at_widths_1_2_4() -> TraceCorpus {
    let _gate = override_gate();
    set_worker_override(Some(1));
    let serial = width_test_corpus();
    for width in [2usize, 4] {
        set_worker_override(Some(width));
        let pooled = width_test_corpus();
        set_worker_override(None);
        assert!(
            pooled == serial,
            "corpus rendered at width {width} differs from width 1"
        );
    }
    set_worker_override(None);
    serial
}

#[test]
fn corpus_is_identical_at_every_width_and_chunk_size() {
    // Each trace continues its own stream into its own buffers, so
    // neither the pool width nor the shard boundaries may reach the
    // corpus. MOLOC_CHUNK is parsed once per process, so the chunk-1
    // arm (one trace per shard, maximal stealing) runs as a child that
    // repeats the width sweep and prints its width-1 digest.
    let digest = corpus_digest(&corpus_at_widths_1_2_4());
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(exe)
        .args(["helper_print_corpus_digest", "--exact", "--nocapture"])
        .env("MOLOC_CHUNK", "1")
        .env("MOLOC_DIGEST_MODE", "1")
        .output()
        .expect("spawn chunk-1 child");
    assert!(out.status.success(), "chunk-1 child failed: {out:?}");
    assert_eq!(
        printed_digest(&out.stdout, "CORPUS_DIGEST="),
        digest,
        "MOLOC_CHUNK=1 corpus diverged from the parent's"
    );
}

#[test]
fn helper_print_corpus_digest() {
    // Only does work as the child of
    // `corpus_is_identical_at_every_width_and_chunk_size`.
    if std::env::var("MOLOC_DIGEST_MODE").as_deref() == Ok("1") {
        println!("CORPUS_DIGEST={}", corpus_digest(&corpus_at_widths_1_2_4()));
    }
}
