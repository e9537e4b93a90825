//! The work-stealing worker pool of the MoLoc reproduction and the
//! parallel fan-out primitives built on it.
//!
//! Trace-corpus rendering (`moloc-mobility`) and every experiment of
//! the evaluation crate are embarrassingly parallel at some
//! granularity — per trace, per seed, per parameter setting — and every
//! unit of work is a pure function of its index and of shared read-only
//! state. This crate provides the primitives they all share:
//! [`par_run`] / [`par_map`], order-preserving parallel maps, plus the
//! chunked and raw-shard variants that arena plumbing builds on, all
//! over one persistent process-wide [`pool`]. It sits below every crate
//! that fans out and depends only on `moloc-obs`; its metrics keep the
//! `eval.runtime.*` and `eval.parallel.*` names of the taxonomy.
//!
//! # Determinism
//!
//! Work is distributed as chunked shards over per-worker deques and may
//! be stolen by any worker — but results are collected into pre-sized
//! disjoint slots keyed by input index and read back in input order,
//! and each work item derives its randomness (if any) from its own
//! index/seed, never from a shared RNG. The output of a parallel run is
//! therefore byte-identical to the serial run at every worker count and
//! chunk size; `crates/eval/tests/determinism.rs` locks this in.
//!
//! # Thread count
//!
//! [`thread_count`] honors the `MOLOC_THREADS` environment variable
//! (any value ≥ 1; `1` forces serial execution in the calling thread),
//! clamped to [`MAX_OVERSUBSCRIPTION`]× the available parallelism, and
//! falls back to [`std::thread::available_parallelism`]. The variable
//! is parsed **once per process**, at first use — the resolved width is
//! cached, so per-call scheduling never touches the environment. Bench
//! harnesses that need to vary the width inside one process use
//! [`set_worker_override`] instead of mutating the environment.
//!
//! # Chunking
//!
//! Items are batched into contiguous shards before hitting the deques;
//! the default shard size targets four shards per worker (good load
//! balance for uneven traces without per-item scheduling cost) and can
//! be pinned process-wide with the `MOLOC_CHUNK` environment variable
//! (parsed once, like `MOLOC_THREADS`) or per call via
//! [`par_run_chunked`].

pub mod pool;

use pool::{shard_ranges, Runtime, SlotVec};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

pub use pool::{
    clear_quarantine, quarantine_log, JobReport, QuarantineRecord, SlotWriter, MAX_POOL_WORKERS,
};

/// Upper bound on requested threads, as a multiple of the machine's
/// available parallelism. Mild oversubscription can help when traces
/// have very uneven cost, but an unbounded `MOLOC_THREADS` (a stray
/// `MOLOC_THREADS=1000000`) would try to spawn that many OS threads
/// and abort the process on stack exhaustion long before doing work.
pub const MAX_OVERSUBSCRIPTION: usize = 4;

/// A `MOLOC_*` variable of this crate that is set but malformed:
/// which variable, and the raw value it held.
///
/// It displays as `invalid configuration: VAR="raw"`, the message of
/// the evaluation crate's `MolocError::InvalidConfig`, into which its
/// `validate_env` converts it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// The variable, e.g. `MOLOC_THREADS`.
    pub var: &'static str,
    /// Its raw, rejected value.
    pub raw: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}={:?}", self.var, self.raw)
    }
}

impl std::error::Error for EnvError {}

/// Parses an optional variable value as a positive integer (surrounding
/// whitespace tolerated): `Ok(None)` when unset, an [`EnvError`] for
/// anything set that is not an integer ≥ 1 — empty, zero, negative or
/// garbage — never a silent fallback.
fn parse_positive(var: &'static str, raw: Option<&str>) -> Result<Option<usize>, EnvError> {
    match raw {
        None => Ok(None),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(EnvError {
                var,
                raw: raw.to_owned(),
            }),
        },
    }
}

/// Number of worker threads the pool uses.
///
/// Resolution order:
/// 1. [`set_worker_override`], when armed (bench harnesses only);
/// 2. `MOLOC_THREADS` environment variable — must parse to an integer
///    ≥ 1, clamped to [`MAX_OVERSUBSCRIPTION`]× the available
///    parallelism;
/// 3. [`std::thread::available_parallelism`];
/// 4. 1 (serial) if the platform cannot report parallelism.
///
/// Steps 2–4 run **once per process**; later calls return the cached
/// width. The resolved count is published as the
/// `eval.parallel.threads` gauge while metrics collection is enabled
/// (the gauge write is skipped entirely while the recorder is off).
///
/// # Panics
///
/// Panics (fail-fast) when `MOLOC_THREADS` is set but malformed —
/// garbage never degrades silently to the machine default. Entry
/// points call [`validate_env`] first, which surfaces the same defect
/// as a typed error before any pool spins up.
pub fn thread_count() -> usize {
    let resolved = match worker_override() {
        Some(n) => n,
        None => cached_thread_count(),
    };
    if moloc_obs::is_enabled() {
        moloc_obs::gauge_set("eval.parallel.threads", resolved as u64);
    }
    resolved
}

/// The machine parallelism, 1 when the platform cannot report it.
fn available_parallelism() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The `MOLOC_THREADS` resolution, performed once and cached.
/// Malformed values fail fast (see [`thread_count`]).
fn cached_thread_count() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        match resolve_thread_count(
            std::env::var("MOLOC_THREADS").ok().as_deref(),
            available_parallelism(),
        ) {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        }
    })
}

/// The pure resolution rule behind [`thread_count`]: `raw` is the
/// `MOLOC_THREADS` value (if set), `available` the machine parallelism.
/// Unset keeps the machine default; a set-but-malformed value (garbage,
/// empty, zero) is an error naming the knob and echoing the raw string.
fn resolve_thread_count(raw: Option<&str>, available: usize) -> Result<usize, EnvError> {
    let available = available.max(1);
    let ceiling = available.saturating_mul(MAX_OVERSUBSCRIPTION);
    match parse_positive("MOLOC_THREADS", raw)? {
        Some(n) => Ok(n.min(ceiling)),
        None => Ok(available),
    }
}

/// The process-wide shard-size pin from `MOLOC_CHUNK`, parsed once.
/// `None` (unset) lets each call compute its own default; malformed
/// values fail fast like `MOLOC_THREADS`.
fn chunk_override() -> Option<usize> {
    static CACHED: OnceLock<Option<usize>> = OnceLock::new();
    *CACHED.get_or_init(
        || match resolve_chunk(std::env::var("MOLOC_CHUNK").ok().as_deref()) {
            Ok(pin) => pin,
            Err(e) => panic!("{e}"),
        },
    )
}

/// The pure resolution rule behind the `MOLOC_CHUNK` pin: a shard size
/// must be a positive integer; anything else set is an error.
fn resolve_chunk(raw: Option<&str>) -> Result<Option<usize>, EnvError> {
    parse_positive("MOLOC_CHUNK", raw)
}

/// Strictly validates every `MOLOC_*` knob this crate reads
/// (`MOLOC_THREADS`, `MOLOC_CHUNK`) with the rules [`thread_count`] and
/// [`default_chunk`] apply. Entry points call this before touching the
/// pool so a typo'd variable is an actionable error — not a setting
/// silently replaced by a default, and not a mid-run panic from the
/// cached resolver.
///
/// # Errors
///
/// Returns an [`EnvError`] naming the first malformed variable and
/// echoing its raw value.
pub fn validate_env() -> Result<(), EnvError> {
    resolve_thread_count(
        std::env::var("MOLOC_THREADS").ok().as_deref(),
        available_parallelism(),
    )?;
    resolve_chunk(std::env::var("MOLOC_CHUNK").ok().as_deref())?;
    Ok(())
}

/// Bench-harness worker-count override: `0` means "not armed".
///
/// The scaling benchmarks measure the same workload at 1/2/4/8 workers
/// inside one process, where mutating `MOLOC_THREADS` would be both
/// unsafe (env mutation under live threads) and ineffective (the
/// variable is parsed once). The override is process-global and
/// **advisory**: outputs are worker-count invariant by design, so a
/// concurrent reader at worst runs with the other's width.
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Arms (`Some(n)`) or disarms (`None`) the process-global worker-count
/// override consulted by [`thread_count`]. Intended for bench harnesses
/// and determinism tests; production code sizes the pool from
/// `MOLOC_THREADS` once.
pub fn set_worker_override(workers: Option<usize>) {
    WORKER_OVERRIDE.store(
        workers.unwrap_or(0).min(MAX_POOL_WORKERS),
        Ordering::Relaxed,
    );
}

/// The armed override, if any.
fn worker_override() -> Option<usize> {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// The default shard size for `n` items on `workers` workers: four
/// shards per worker, so natural cost imbalance (trace lengths vary)
/// load-balances through stealing without per-item scheduling.
pub fn default_chunk(n: usize, workers: usize) -> usize {
    if let Some(pinned) = chunk_override() {
        return pinned;
    }
    n.div_ceil(workers.max(1) * 4).max(1)
}

/// Applies `f` to `0..n` on the persistent worker pool and returns the
/// results in index order.
///
/// `f` runs concurrently on up to [`thread_count`] workers (capped at
/// the shard count); with one worker — or `n <= 1` — it runs inline in
/// the caller with no synchronization at all. Results are identical to
/// `(0..n).map(f).collect()` whenever `f` is a pure function of its
/// index, at every worker count and chunk size.
///
/// # Panics
///
/// Propagates the first panic raised by `f` after the job drains
/// (remaining shards are abandoned; already-computed results are
/// leaked, not dropped).
pub fn par_run<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = thread_count().min(n);
    par_run_chunked(n, default_chunk(n, workers), f)
}

/// [`par_run`] with an explicit shard size (`chunk` items per shard).
/// The chunk size affects scheduling only, never results.
pub fn par_run_chunked<U, F>(n: usize, chunk: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = thread_count().min(n);
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots = SlotVec::new(n);
    let writer = slots.writer();
    par_shards(n, chunk, |range| {
        for i in range {
            writer.write(i, f(i));
        }
    });
    // SAFETY: `par_shards` partitions 0..n into disjoint shards and
    // returns only after every shard ran, so every slot is written
    // exactly once.
    unsafe { slots.into_vec() }
}

/// Raw shard fan-out: runs `shard_fn` over a chunked partition of
/// `0..n` on the pool. This is the arena-friendly primitive — a caller
/// checks per-worker scratch out of a pool once per *shard* and writes
/// results through a [`SlotWriter`] — and the building block of
/// [`par_run_chunked`].
///
/// Every index in `0..n` is covered by exactly one `shard_fn`
/// invocation. With one worker (or when nested inside another job) the
/// shards run inline in input order.
pub fn par_shards<F>(n: usize, chunk: usize, shard_fn: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let workers = thread_count().min(n);
    Runtime::global().run_shards(workers, shard_ranges(n, chunk), &shard_fn);
}

/// [`par_shards`] under a watchdog: shards not started by `deadline`
/// are abandoned (a shard in flight always completes — items are never
/// interrupted midway), a pool worker still busy past the grace period
/// is flagged as stalled, and a panicking job is recorded in the
/// [`quarantine_log`] before its panic is rethrown. Returns the
/// [`JobReport`] accounting for completed versus abandoned items.
///
/// Unlike [`par_shards`], coverage of `0..n` is **not** guaranteed when
/// the deadline fires: callers own the partial-work policy (retry,
/// degrade, or fail). The deterministic primitives above never pass a
/// deadline, so their bit-identical-output contract is unaffected.
pub fn par_shards_deadline<F>(
    n: usize,
    chunk: usize,
    deadline: Option<std::time::Instant>,
    shard_fn: F,
) -> JobReport
where
    F: Fn(Range<usize>) + Sync,
{
    let workers = thread_count().min(n.max(1));
    par_shards_deadline_with_workers(workers, n, chunk, deadline, shard_fn)
}

/// [`par_shards_deadline`] with an explicit worker count, ignoring
/// [`thread_count`] — chaos harnesses use this to exercise the pooled
/// watchdog path even on single-core hosts.
pub fn par_shards_deadline_with_workers<F>(
    workers: usize,
    n: usize,
    chunk: usize,
    deadline: Option<std::time::Instant>,
    shard_fn: F,
) -> JobReport
where
    F: Fn(Range<usize>) + Sync,
{
    Runtime::global().run_shards_deadline(
        workers.min(n.max(1)),
        shard_ranges(n, chunk),
        deadline,
        &shard_fn,
    )
}

/// [`par_shards`] with an explicit worker count, ignoring
/// [`thread_count`]. The scaling benchmarks use this to sweep widths;
/// results are width-invariant.
pub fn par_shards_with_workers<F>(workers: usize, n: usize, chunk: usize, shard_fn: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    Runtime::global().run_shards(workers.min(n), shard_ranges(n, chunk), &shard_fn);
}

/// Order-preserving parallel map over a slice: `par_map(items, f)` is
/// `items.iter().map(f).collect()` spread over the worker pool.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_run(items.len(), |i| f(&items[i]))
}

/// [`par_map`] with an explicit shard size.
pub fn par_map_chunked<T, U, F>(items: &[T], chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_run_chunked(items.len(), chunk, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that arm the process-global worker override.
    static OVERRIDE_GATE: Mutex<()> = Mutex::new(());

    fn env_error(var: &'static str, raw: &str) -> EnvError {
        EnvError {
            var,
            raw: raw.to_owned(),
        }
    }

    #[test]
    fn par_run_preserves_index_order() {
        let out = par_run(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..100).map(|i| i * 3 + 1).collect();
        let serial: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37)).collect();
        let parallel = par_map(&items, |x| x.wrapping_mul(0x9E37));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_run(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_run(1, |i| i + 7), vec![7]);
        assert_eq!(par_map::<u8, u8, _>(&[], |&x| x), Vec::<u8>::new());
    }

    #[test]
    fn chunk_size_never_changes_results() {
        let reference: Vec<u64> = (0..199u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        for chunk in [1usize, 2, 3, 7, 50, 199, 1000] {
            let chunked =
                par_run_chunked(199, chunk, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
            assert_eq!(chunked, reference, "chunk {chunk} diverged");
        }
    }

    #[test]
    fn worker_override_never_changes_results() {
        let _gate = OVERRIDE_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let reference: Vec<u64> = (0..173u64).map(|i| i.wrapping_mul(0x2545F491)).collect();
        for workers in [1usize, 2, 3, 8] {
            set_worker_override(Some(workers));
            let out = par_run(173, |i| (i as u64).wrapping_mul(0x2545F491));
            assert_eq!(out, reference, "override {workers} diverged");
        }
        set_worker_override(None);
    }

    #[test]
    fn uneven_work_is_still_ordered() {
        // Simulate varying item cost: heavier work for low indices so
        // late items finish first on other threads.
        let out = par_run(64, |i| {
            let spins = if i < 8 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn par_shards_with_workers_covers_everything_at_any_width() {
        use std::sync::atomic::AtomicU64;
        for workers in [1usize, 2, 5, 8] {
            let flags: Vec<AtomicU64> = (0..97).map(|_| AtomicU64::new(0)).collect();
            par_shards_with_workers(workers, 97, 4, |range| {
                for i in range {
                    flags[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                flags.iter().all(|f| f.load(Ordering::Relaxed) == 1),
                "width {workers} missed or repeated an item"
            );
        }
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn resolve_honors_sane_env_values() {
        assert_eq!(resolve_thread_count(Some("1"), 8), Ok(1));
        assert_eq!(resolve_thread_count(Some(" 6 "), 8), Ok(6));
        assert_eq!(resolve_thread_count(Some("32"), 8), Ok(32));
        assert_eq!(resolve_thread_count(None, 8), Ok(8));
        // A platform that cannot report parallelism still yields 1.
        assert_eq!(resolve_thread_count(None, 0), Ok(1));
        assert_eq!(resolve_thread_count(Some("3"), 0), Ok(3));
    }

    #[test]
    fn resolve_clamps_absurd_requests() {
        // MOLOC_THREADS=1000000 used to be taken literally and spawn a
        // million scoped threads; now it caps at 4x the parallelism.
        assert_eq!(resolve_thread_count(Some("1000000"), 8), Ok(32));
        assert_eq!(
            resolve_thread_count(Some(&usize::MAX.to_string()), 2),
            Ok(8)
        );
    }

    #[test]
    fn malformed_thread_counts_are_errors_not_silent_fallbacks() {
        // Regression: `MOLOC_THREADS=fuor` used to run the whole
        // evaluation serial without a word. Now the error names the
        // knob and echoes the rejected string.
        for bad in ["zero", "0", "", "fuor", "1e3", "-2"] {
            let err = resolve_thread_count(Some(bad), 8).unwrap_err();
            assert_eq!(
                err,
                env_error("MOLOC_THREADS", bad),
                "{bad:?} must be rejected"
            );
            assert_eq!(
                err.to_string(),
                format!("invalid configuration: MOLOC_THREADS={bad:?}")
            );
        }
    }

    #[test]
    fn resolve_chunk_accepts_positive_integers_and_rejects_the_rest() {
        assert_eq!(resolve_chunk(Some("4")), Ok(Some(4)));
        assert_eq!(resolve_chunk(Some(" 12 ")), Ok(Some(12)));
        assert_eq!(resolve_chunk(None), Ok(None));
        for bad in ["0", "nope", ""] {
            assert_eq!(
                resolve_chunk(Some(bad)),
                Err(env_error("MOLOC_CHUNK", bad)),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn validate_env_passes_in_a_clean_environment() {
        // CI may legitimately pin these variables; validation must
        // accept whatever the ambient (working) environment holds.
        assert_eq!(validate_env(), Ok(()));
    }

    #[test]
    fn default_chunk_targets_four_shards_per_worker() {
        // With MOLOC_CHUNK unset the rule is pure arithmetic; when the
        // ambient process pins it, this test exercises the pin instead.
        match chunk_override() {
            None => {
                assert_eq!(default_chunk(32, 4), 2);
                assert_eq!(default_chunk(3, 4), 1);
                assert_eq!(default_chunk(1000, 1), 250);
                assert_eq!(default_chunk(0, 8), 1);
            }
            Some(pinned) => {
                assert_eq!(default_chunk(32, 4), pinned);
            }
        }
    }
}
