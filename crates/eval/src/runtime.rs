//! The persistent work-stealing evaluation runtime.
//!
//! The PR 1 pool spawned fresh OS threads for every [`crate::parallel`]
//! call, pulled one item at a time off a shared atomic counter, and
//! merged results through a `Mutex<Vec>`. Thread spawn/join dominated
//! small fan-outs, the single-item pulls put the counter's cache line
//! on every worker's hot path, and the merge serialized the tail of
//! every job. This module replaces all of it with one process-wide
//! pool:
//!
//! * **Persistent workers** — spawned lazily on first use (up to the
//!   job's worker count, capped at [`MAX_POOL_WORKERS`]) and parked on
//!   a condvar between jobs. No per-call spawn, no per-call join; the
//!   submitting thread participates as worker 0 and blocks until the
//!   job drains, so task closures may freely borrow its stack.
//! * **Per-worker deques, chunked shards** — a job's items are split
//!   into contiguous index ranges ("shards") dealt round-robin onto
//!   per-worker deques. A worker pops its own deque from the front
//!   (preserving locality of the round-robin deal) and steals from the
//!   *back* of a victim's deque when its own runs dry, so owner and
//!   thief touch opposite ends. Shards amortize all scheduling cost:
//!   the deque mutex is taken once per shard, not once per item.
//! * **Lock-free result collection** — callers hand each item's result
//!   to a pre-sized slot keyed by item index ([`SlotVec`]); shards
//!   cover disjoint index ranges, so no two workers ever write the
//!   same slot and the job needs no result lock at all.
//! * **Watchdogs** — a job may carry a deadline
//!   ([`Runtime::run_shards_deadline`]): shards not started by the
//!   deadline are abandoned (never interrupted mid-item), workers still
//!   inside the job past a grace period are flagged as stalled, and a
//!   poisoned job lands in the process-wide [`quarantine_log`] with its
//!   panic payload and work accounting before the panic is rethrown.
//!   Every outcome is a [`JobReport`].
//!
//! # Determinism
//!
//! Which worker runs a shard — and whether it was stolen — is
//! scheduling-dependent; *what* is computed is not. Every item's result
//! is a pure function of its index, lands in slot `i`, and the output
//! vector is read in index order after the job completes, so output is
//! byte-identical to `(0..n).map(f).collect()` for every worker count,
//! chunk size, and steal schedule (`tests/determinism.rs` and the
//! in-module tests lock this in).
//!
//! # Nesting
//!
//! The pool runs one job at a time. A `par_*` call issued from inside a
//! running job (a nested fan-out, e.g. an experiment parallelizing over
//! settings whose builder parallelizes over traces), or while another
//! top-level job holds the pool, runs inline in the caller — same
//! results, sequential execution — rather than deadlocking on its own
//! workers. The outermost fan-out therefore owns the hardware, which is
//! the right allocation for every workload in this crate.

use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Hard ceiling on pool threads, whatever `MOLOC_THREADS` or a bench
/// override asks for. Thread-scaling tables legitimately oversubscribe
/// (8 workers on a 1-core host), but an unbounded request would abort
/// the process on stack exhaustion before doing any work.
pub const MAX_POOL_WORKERS: usize = 64;

/// How long past a job's deadline a still-pending worker counts as
/// stalled (rather than merely finishing its last shard), and how often
/// the submitter polls for that condition while waiting on a
/// deadline-bearing job.
const STALL_GRACE: Duration = Duration::from_millis(100);
const STALL_POLL: Duration = Duration::from_millis(25);

/// Quarantine-registry capacity: oldest records are evicted first. A
/// chaos run that poisons thousands of jobs must not turn the registry
/// into an unbounded leak.
const MAX_QUARANTINE: usize = 64;

/// Process-wide job sequence, so quarantine records and reports can be
/// correlated across the run.
static JOB_SEQ: AtomicU64 = AtomicU64::new(1);

/// Poisoned jobs, newest last (bounded at [`MAX_QUARANTINE`]).
static QUARANTINE: Mutex<Vec<QuarantineRecord>> = Mutex::new(Vec::new());

/// What the watchdog knows about one poisoned job: which job, what the
/// panic said, and how much work was finished versus abandoned when the
/// poison flag drained the deques.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Process-wide job sequence number (see [`JobReport::job_id`]).
    pub job_id: u64,
    /// Downcast panic payload (`&str`/`String`), or a placeholder for
    /// exotic payload types.
    pub message: String,
    /// Items completed before the poison flag stopped shard handout.
    pub completed_items: usize,
    /// Items abandoned in the deques when the job drained.
    pub abandoned_items: usize,
}

/// Snapshot of the quarantine registry, oldest first.
pub fn quarantine_log() -> Vec<QuarantineRecord> {
    lock(&QUARANTINE).clone()
}

/// Empties the quarantine registry (test/experiment isolation).
pub fn clear_quarantine() {
    lock(&QUARANTINE).clear();
}

fn push_quarantine(record: QuarantineRecord) {
    if moloc_obs::is_enabled() {
        moloc_obs::counter_add("eval.runtime.quarantined", 1);
    }
    let mut log = lock(&QUARANTINE);
    if log.len() >= MAX_QUARANTINE {
        log.remove(0);
    }
    log.push(record);
}

/// Best-effort human-readable form of a panic payload.
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// What happened to one job: identity, work accounting, and the
/// watchdog verdicts. Returned by the deadline-aware submission path so
/// chaos harnesses can assert on expiry/stall behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobReport {
    /// Process-wide job sequence number.
    pub job_id: u64,
    /// Items whose shard ran to completion.
    pub completed_items: usize,
    /// Items abandoned because the job expired or was poisoned.
    pub abandoned_items: usize,
    /// The per-job deadline passed while shards were still queued.
    pub expired: bool,
    /// A worker was still inside the job [`STALL_GRACE`] past the
    /// deadline — detected and reported, though the submitter must
    /// still wait it out (task closures borrow its stack, so the job
    /// can never be detached).
    pub stall_detected: bool,
}

/// A job's task: lifetime-erased reference to the per-shard closure.
///
/// # Safety
///
/// The submitter constructs this from a stack closure and must not
/// return until every participating worker has finished the job (the
/// completion protocol below guarantees it), so the erased lifetime is
/// never actually outlived.
type TaskRef = &'static (dyn Fn(Range<usize>) + Sync);

/// One in-flight job: the erased task, the shard deques, and the
/// completion/panic state.
struct JobState {
    task: TaskRef,
    /// Process-wide job sequence number.
    job_id: u64,
    /// One deque per participating worker (slot 0 is the submitter).
    deques: Vec<Mutex<VecDeque<Range<usize>>>>,
    /// Participating workers, submitter included.
    workers: usize,
    /// Pool workers (not the submitter) still inside the job.
    pending: AtomicUsize,
    /// Set when any shard panicked: remaining shards are abandoned.
    poisoned: AtomicBool,
    /// First panic payload, rethrown on the submitting thread.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Shards executed by a worker other than the one they were dealt
    /// to (advisory, feeds the `eval.runtime.steals` counter).
    steals: AtomicUsize,
    /// Abandon-remaining-shards instant, if the job carries one.
    deadline: Option<Instant>,
    /// Set by the first worker that observes the deadline passed.
    expired: AtomicBool,
    /// Set by the submitter when a pool worker is still inside the job
    /// [`STALL_GRACE`] past the deadline.
    stalled: AtomicBool,
    /// Items whose shard ran to completion (all workers).
    completed: AtomicUsize,
}

// SAFETY: `task` is only dereferenced while the submitter is blocked in
// `run_job`, which keeps the borrowed closure alive; everything else is
// ordinary `Sync` state.
unsafe impl Send for JobState {}
unsafe impl Sync for JobState {}

impl JobState {
    /// Pops the next shard for `slot`: own deque front first, then the
    /// back of the first non-empty victim. Returns `None` when every
    /// deque is empty, the job is poisoned, or its deadline has passed
    /// (remaining shards are abandoned, never half-run).
    fn next_shard(&self, slot: usize) -> Option<Range<usize>> {
        if self.poisoned.load(Ordering::Relaxed) {
            return None;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.expired.store(true, Ordering::Relaxed);
                return None;
            }
        }
        if let Some(shard) = lock(&self.deques[slot]).pop_front() {
            return Some(shard);
        }
        // Steal scan: start just past our own slot so victims are
        // spread instead of everyone mobbing deque 0.
        for offset in 1..self.deques.len() {
            let victim = (slot + offset) % self.deques.len();
            if let Some(shard) = lock(&self.deques[victim]).pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(shard);
            }
        }
        None
    }

    /// Runs shards until the job drains, catching panics into the
    /// shared payload slot. Returns the number of items processed.
    fn work(&self, slot: usize) -> usize {
        let mut items = 0usize;
        while let Some(shard) = self.next_shard(slot) {
            let len = shard.len();
            let task = self.task;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(shard))) {
                self.poisoned.store(true, Ordering::Relaxed);
                let mut first = lock(&self.panic);
                if first.is_none() {
                    *first = Some(payload);
                }
            } else {
                items += len;
            }
        }
        self.completed.fetch_add(items, Ordering::Relaxed);
        items
    }

    /// Items still sitting in the deques (meaningful once the job has
    /// drained: they were abandoned by poison or deadline expiry).
    fn abandoned_items(&self) -> usize {
        self.deques
            .iter()
            .map(|d| lock(d).iter().map(Range::len).sum::<usize>())
            .sum()
    }
}

/// Mutex lock that shrugs off poisoning: a panicked shard already
/// records its payload in the job, so a poisoned deque or payload lock
/// carries no extra information.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// What pool workers watch: the current job (if any) and an epoch so a
/// worker never re-enters a job it already finished.
struct PoolSlot {
    job: Option<Arc<JobState>>,
    epoch: u64,
    /// Pool threads spawned so far (worker slots `1..=spawned`).
    spawned: usize,
}

/// The process-wide runtime.
pub(crate) struct Runtime {
    slot: Mutex<PoolSlot>,
    /// Wakes parked workers when a job is published.
    job_cv: Condvar,
    /// Wakes the submitter when the last pool worker leaves a job.
    done_cv: Condvar,
}

thread_local! {
    /// Whether this thread is a pool worker (or currently executing a
    /// job as the submitter): nested submissions run inline.
    static IN_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static RUNTIME: OnceLock<Runtime> = OnceLock::new();

impl Runtime {
    /// The global runtime (no threads are spawned until a job needs
    /// them).
    pub(crate) fn global() -> &'static Runtime {
        RUNTIME.get_or_init(|| Runtime {
            slot: Mutex::new(PoolSlot {
                job: None,
                epoch: 0,
                spawned: 0,
            }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
        })
    }

    /// Whether the current thread may not block on the pool (it is a
    /// pool worker, or a submitter already inside a job).
    pub(crate) fn in_job() -> bool {
        IN_JOB.with(|f| f.get())
    }

    /// Runs `shard_fn` over `shards` with up to `workers` threads
    /// (submitter included). Falls back to inline execution when the
    /// pool is busy, the caller is nested inside a job, or one worker
    /// suffices. Shards are executed exactly once each; panics from
    /// `shard_fn` are rethrown on the calling thread after the job
    /// fully drains.
    pub(crate) fn run_shards(
        &'static self,
        workers: usize,
        shards: Vec<Range<usize>>,
        shard_fn: &(dyn Fn(Range<usize>) + Sync),
    ) {
        self.run_shards_deadline(workers, shards, None, shard_fn);
    }

    /// [`Runtime::run_shards`] with watchdog semantics: when `deadline`
    /// is set, shards not yet *started* by that instant are abandoned
    /// (a shard in flight always runs to completion — work is never
    /// interrupted mid-item), and a pool worker still inside the job
    /// [`STALL_GRACE`] past the deadline is flagged as stalled. The
    /// report accounts for completed versus abandoned items either way;
    /// a poisoned job is recorded in the quarantine registry before its
    /// panic is rethrown.
    pub(crate) fn run_shards_deadline(
        &'static self,
        workers: usize,
        shards: Vec<Range<usize>>,
        deadline: Option<Instant>,
        shard_fn: &(dyn Fn(Range<usize>) + Sync),
    ) -> JobReport {
        let workers = workers.clamp(1, MAX_POOL_WORKERS).min(shards.len().max(1));
        let job_id = JOB_SEQ.fetch_add(1, Ordering::Relaxed);
        if workers <= 1 || Self::in_job() {
            return run_shards_serial(job_id, shards, deadline, shard_fn);
        }

        // Deal shards round-robin onto per-worker deques so the initial
        // distribution is balanced and contiguous-ish per worker.
        let mut deques: Vec<VecDeque<Range<usize>>> =
            (0..workers).map(|_| VecDeque::new()).collect();
        for (i, shard) in shards.into_iter().enumerate() {
            deques[i % workers].push_back(shard);
        }
        // SAFETY: the erased borrow is released before this function
        // returns — `run_job` blocks until every participant has left
        // the job (see `JobState` safety note).
        let task: TaskRef =
            unsafe { std::mem::transmute::<&(dyn Fn(Range<usize>) + Sync), TaskRef>(shard_fn) };
        let job = Arc::new(JobState {
            task,
            job_id,
            deques: deques.into_iter().map(Mutex::new).collect(),
            workers,
            pending: AtomicUsize::new(workers - 1),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            steals: AtomicUsize::new(0),
            deadline,
            expired: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            completed: AtomicUsize::new(0),
        });

        if !self.try_publish(&job) {
            // The pool is running someone else's job: execute inline.
            // Shards were already dealt into the job's deques; drain
            // them through the same path so accounting matches.
            job.pending.store(0, Ordering::Release);
            return self.finish_inline(&job);
        }

        // Participate as worker 0, then wait for the pool workers. A
        // deadline-bearing job polls so a worker wedged inside a shard
        // is detected (and reported) even though it cannot be detached:
        // the task borrows this very stack frame.
        IN_JOB.with(|f| f.set(true));
        let items = job.work(0);
        IN_JOB.with(|f| f.set(false));
        record_items(items);
        {
            let mut slot = lock(&self.slot);
            while job.pending.load(Ordering::Acquire) > 0 {
                match deadline {
                    None => {
                        slot = self.done_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                    }
                    Some(deadline) => {
                        slot = self
                            .done_cv
                            .wait_timeout(slot, STALL_POLL)
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                        if !job.stalled.load(Ordering::Relaxed)
                            && Instant::now() >= deadline + STALL_GRACE
                            && job.pending.load(Ordering::Acquire) > 0
                        {
                            job.stalled.store(true, Ordering::Release);
                            if moloc_obs::is_enabled() {
                                moloc_obs::counter_add("eval.runtime.stalls_detected", 1);
                            }
                        }
                    }
                }
            }
            slot.job = None;
        }
        if moloc_obs::is_enabled() {
            moloc_obs::counter_add(
                "eval.runtime.steals",
                job.steals.load(Ordering::Relaxed) as u64,
            );
            moloc_obs::counter_add("eval.runtime.jobs", 1);
        }
        self.settle(&job)
    }

    /// Drains a job entirely on the calling thread (pool contended).
    fn finish_inline(&self, job: &Arc<JobState>) -> JobReport {
        IN_JOB.with(|f| f.set(true));
        let items = job.work(0);
        IN_JOB.with(|f| f.set(false));
        record_items(items);
        self.settle(job)
    }

    /// Post-drain accounting shared by the pooled and inline paths:
    /// build the report, quarantine a poisoned job, rethrow its panic.
    fn settle(&self, job: &Arc<JobState>) -> JobReport {
        let report = JobReport {
            job_id: job.job_id,
            completed_items: job.completed.load(Ordering::Relaxed),
            abandoned_items: job.abandoned_items(),
            expired: job.expired.load(Ordering::Relaxed),
            stall_detected: job.stalled.load(Ordering::Relaxed),
        };
        if report.expired && moloc_obs::is_enabled() {
            moloc_obs::counter_add("eval.runtime.deadline_expired", 1);
        }
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            push_quarantine(QuarantineRecord {
                job_id: report.job_id,
                message: payload_message(payload.as_ref()),
                completed_items: report.completed_items,
                abandoned_items: report.abandoned_items,
            });
            resume_unwind(payload);
        }
        report
    }

    /// Publishes `job` to the pool if it is idle, spawning any missing
    /// workers. Returns false when another job holds the pool.
    fn try_publish(&'static self, job: &Arc<JobState>) -> bool {
        let mut slot = lock(&self.slot);
        if slot.job.is_some() {
            return false;
        }
        while slot.spawned < job.workers - 1 {
            let worker_slot = slot.spawned + 1;
            let spawned = thread::Builder::new()
                .name(format!("moloc-worker-{worker_slot}"))
                .spawn(move || Self::global().worker_loop(worker_slot))
                .is_ok();
            if !spawned {
                // Thread exhaustion: run with the workers that exist
                // (possibly just the submitter). Correctness is
                // unaffected — deques are drained by whoever shows up.
                break;
            }
            slot.spawned += 1;
        }
        // Workers that failed to spawn must not be waited for.
        let present = slot.spawned.min(job.workers - 1);
        job.pending.store(present, Ordering::Release);
        slot.job = Some(Arc::clone(job));
        slot.epoch += 1;
        drop(slot);
        self.job_cv.notify_all();
        true
    }

    /// The pool worker body: park until a job names this slot, work it,
    /// check out, repeat forever.
    fn worker_loop(&'static self, worker_slot: usize) {
        IN_JOB.with(|f| f.set(true));
        let mut seen_epoch = 0u64;
        loop {
            let job = {
                let mut slot = lock(&self.slot);
                loop {
                    if slot.epoch != seen_epoch {
                        seen_epoch = slot.epoch;
                        if let Some(job) = slot.job.as_ref() {
                            if worker_slot < job.workers {
                                break Arc::clone(job);
                            }
                        }
                    }
                    slot = self.job_cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            };
            let items = job.work(worker_slot);
            record_items(items);
            if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last pool worker out: wake the submitter. Take the
                // slot lock so the notification cannot race ahead of
                // the submitter's condition check.
                drop(lock(&self.slot));
                self.done_cv.notify_all();
            }
        }
    }
}

/// Per-worker load-balance histogram (advisory; results are keyed by
/// index regardless of who computed them).
fn record_items(items: usize) {
    if moloc_obs::is_enabled() {
        moloc_obs::record("eval.parallel.items_per_worker", items as f64);
    }
}

/// The serial path of [`Runtime::run_shards_deadline`]: one worker, or
/// a submission nested inside a running job. Deadline, poison,
/// quarantine, and accounting semantics match the pooled path exactly;
/// only the scheduling differs (shards run inline, in input order).
fn run_shards_serial(
    job_id: u64,
    shards: Vec<Range<usize>>,
    deadline: Option<Instant>,
    shard_fn: &(dyn Fn(Range<usize>) + Sync),
) -> JobReport {
    let mut completed = 0usize;
    let mut abandoned = 0usize;
    let mut expired = false;
    let mut payload: Option<Box<dyn std::any::Any + Send>> = None;
    for shard in shards {
        if payload.is_some() || expired {
            abandoned += shard.len();
            continue;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            expired = true;
            abandoned += shard.len();
            continue;
        }
        let len = shard.len();
        match catch_unwind(AssertUnwindSafe(|| shard_fn(shard))) {
            Ok(()) => completed += len,
            Err(p) => payload = Some(p),
        }
    }
    record_items(completed);
    let report = JobReport {
        job_id,
        completed_items: completed,
        abandoned_items: abandoned,
        expired,
        stall_detected: false,
    };
    if report.expired && moloc_obs::is_enabled() {
        moloc_obs::counter_add("eval.runtime.deadline_expired", 1);
    }
    if let Some(payload) = payload {
        push_quarantine(QuarantineRecord {
            job_id,
            message: payload_message(payload.as_ref()),
            completed_items: report.completed_items,
            abandoned_items: report.abandoned_items,
        });
        resume_unwind(payload);
    }
    report
}

/// A pre-sized, lock-free output table: slot `i` receives item `i`'s
/// result exactly once, from whichever worker ran its shard.
///
/// Writes to distinct indices are data-race-free by construction (the
/// runtime deals disjoint shards); the happens-before edge between the
/// workers' writes and the submitter's [`SlotVec::into_vec`] read is
/// the job-completion protocol (acquire on `pending` plus the slot
/// mutex). If a job panics, written values are leaked rather than
/// dropped — `Vec<MaybeUninit<T>>` never drops its elements — which is
/// sound, merely wasteful, on the already-unwinding path.
pub struct SlotVec<T> {
    slots: Vec<MaybeUninit<T>>,
}

/// A shared writer handle over a [`SlotVec`]'s buffer.
pub struct SlotWriter<'a, T> {
    ptr: *mut MaybeUninit<T>,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [MaybeUninit<T>]>,
}

// SAFETY: concurrent `write`s are only issued for disjoint indices (the
// runtime's shard contract); `T: Send` moves values across threads.
unsafe impl<T: Send> Send for SlotWriter<'_, T> {}
unsafe impl<T: Send> Sync for SlotWriter<'_, T> {}

impl<T> SlotVec<T> {
    /// An uninitialized table of `n` slots.
    pub fn new(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        // SAFETY: MaybeUninit needs no initialization; len == capacity.
        unsafe { slots.set_len(n) };
        Self { slots }
    }

    /// A writer handle to pass into the parallel region.
    pub fn writer(&mut self) -> SlotWriter<'_, T> {
        SlotWriter {
            ptr: self.slots.as_mut_ptr(),
            len: self.slots.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Converts the table into the result vector.
    ///
    /// # Safety
    ///
    /// Every slot must have been written exactly once (the runtime's
    /// shard partition guarantees this for a job that completed without
    /// panicking).
    pub unsafe fn into_vec(self) -> Vec<T> {
        let mut slots = std::mem::ManuallyDrop::new(self.slots);
        let (ptr, len, cap) = (slots.as_mut_ptr(), slots.len(), slots.capacity());
        // SAFETY: every MaybeUninit<T> is initialized per the caller
        // contract, and MaybeUninit<T> has T's layout.
        unsafe { Vec::from_raw_parts(ptr.cast::<T>(), len, cap) }
    }
}

impl<T> SlotWriter<'_, T> {
    /// Stores item `i`'s result. Each index must be written at most
    /// once per job (shards are disjoint, so this holds by
    /// construction).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn write(&self, i: usize, value: T) {
        assert!(i < self.len, "slot index {i} out of bounds ({})", self.len);
        // SAFETY: in-bounds (checked above) and each index is written
        // by exactly one worker; overwriting a MaybeUninit leaks at
        // worst (no double-drop is possible).
        unsafe { self.ptr.add(i).write(MaybeUninit::new(value)) };
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Splits `0..n` into contiguous shards of at most `chunk` items.
pub(crate) fn shard_ranges(n: usize, chunk: usize) -> Vec<Range<usize>> {
    let chunk = chunk.max(1);
    let mut shards = Vec::with_capacity(n.div_ceil(chunk));
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        shards.push(start..end);
        start = end;
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn shard_ranges_partition_the_input() {
        for n in [0usize, 1, 7, 64, 65] {
            for chunk in [1usize, 2, 7, 100] {
                let shards = shard_ranges(n, chunk);
                let mut covered = 0usize;
                for (i, s) in shards.iter().enumerate() {
                    assert_eq!(s.start, covered, "gap before shard {i}");
                    assert!(s.len() <= chunk);
                    assert!(!s.is_empty());
                    covered = s.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn run_shards_covers_every_shard_exactly_once() {
        let n = 257usize;
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        Runtime::global().run_shards(4, shard_ranges(n, 3), &|range| {
            for i in range {
                counts[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "item {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn panics_propagate_after_the_job_drains() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Runtime::global().run_shards(3, shard_ranges(64, 4), &|range| {
                if range.contains(&17) {
                    panic!("shard exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("(non-str payload)");
        assert!(message.contains("shard exploded"), "got: {message}");
        // The pool must remain usable after a panicked job.
        let sum = AtomicU64::new(0);
        Runtime::global().run_shards(3, shard_ranges(100, 8), &|range| {
            for i in range {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn nested_submission_runs_inline_without_deadlock() {
        let total = AtomicU64::new(0);
        Runtime::global().run_shards(4, shard_ranges(8, 1), &|outer| {
            for _ in outer {
                // A nested fan-out from inside a job must not block on
                // the (already busy) pool.
                Runtime::global().run_shards(4, shard_ranges(16, 2), &|inner| {
                    for i in inner {
                        total.fetch_add(i as u64, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 120);
    }

    #[test]
    fn expired_deadline_abandons_all_shards_without_running_any() {
        let ran = AtomicU64::new(0);
        let report = Runtime::global().run_shards_deadline(
            4,
            shard_ranges(100, 5),
            Some(Instant::now()),
            &|range| {
                ran.fetch_add(range.len() as u64, Ordering::Relaxed);
            },
        );
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert!(report.expired);
        assert_eq!(report.completed_items, 0);
        assert_eq!(report.abandoned_items, 100);
    }

    #[test]
    fn distant_deadline_changes_nothing() {
        let ran = AtomicU64::new(0);
        let report = Runtime::global().run_shards_deadline(
            4,
            shard_ranges(64, 4),
            Some(Instant::now() + Duration::from_secs(3600)),
            &|range| {
                ran.fetch_add(range.len() as u64, Ordering::Relaxed);
            },
        );
        assert_eq!(ran.load(Ordering::Relaxed), 64);
        assert!(!report.expired);
        assert!(!report.stall_detected);
        assert_eq!(report.completed_items, 64);
        assert_eq!(report.abandoned_items, 0);
    }

    #[test]
    fn serial_path_honors_deadlines_too() {
        let ran = AtomicU64::new(0);
        let report = Runtime::global().run_shards_deadline(
            1,
            shard_ranges(40, 4),
            Some(Instant::now()),
            &|range| {
                ran.fetch_add(range.len() as u64, Ordering::Relaxed);
            },
        );
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert!(report.expired);
        assert_eq!(report.abandoned_items, 40);
    }

    #[test]
    fn poisoned_job_is_quarantined_with_its_payload() {
        let marker = "quarantine-probe-7f3a";
        let result = catch_unwind(AssertUnwindSafe(|| {
            Runtime::global().run_shards(3, shard_ranges(32, 4), &|range| {
                if range.contains(&9) {
                    panic!("{marker}");
                }
            });
        }));
        assert!(result.is_err(), "panic must still propagate");
        let log = quarantine_log();
        let record = log
            .iter()
            .rev()
            .find(|r| r.message.contains(marker))
            .expect("poisoned job must be quarantined");
        assert!(record.job_id > 0);
    }

    #[test]
    fn stalled_worker_past_deadline_is_detected_and_waited_out() {
        // Exactly one *pool* worker wedges past the deadline; the
        // submitter must flag the stall but still wait the worker out —
        // the closure borrows this frame. The wedge holds until the job
        // itself records the stall, so a submitter that polls late
        // cannot miss it. The submitter's shard spins until the wedge
        // is claimed or the deadline passes, so the job cannot drain
        // before a pool worker arrives. A run that no pool worker joined
        // before the deadline (the pool was running another test's job,
        // or woke late) has no wedge to detect and is run again.
        for attempt in 1.. {
            let wedged = AtomicBool::new(false);
            let deadline = Instant::now() + Duration::from_millis(50);
            let report = Runtime::global().run_shards_deadline(
                4,
                shard_ranges(8, 1),
                Some(deadline),
                &|_range| {
                    let on_pool = thread::current()
                        .name()
                        .is_some_and(|n| n.starts_with("moloc-worker"));
                    if on_pool {
                        if !wedged.swap(true, Ordering::SeqCst) {
                            let job = lock(&Runtime::global().slot)
                                .job
                                .clone()
                                .expect("a pool worker runs inside a published job");
                            let start = Instant::now();
                            while !job.stalled.load(Ordering::Acquire)
                                && start.elapsed() < Duration::from_secs(10)
                            {
                                thread::sleep(Duration::from_millis(1));
                            }
                        }
                    } else {
                        while !wedged.load(Ordering::SeqCst) && Instant::now() < deadline {
                            thread::sleep(Duration::from_millis(1));
                        }
                    }
                },
            );
            if !wedged.load(Ordering::SeqCst) {
                assert!(
                    attempt < 100,
                    "no pool worker joined the job in {attempt} runs"
                );
                continue;
            }
            assert!(report.stall_detected, "wedged worker must be flagged");
            // Whatever was abandoned, nothing may be double-counted.
            assert!(report.completed_items + report.abandoned_items <= 8);
            break;
        }
    }

    #[test]
    fn slotvec_roundtrip_preserves_values_and_drops() {
        let mut slots: SlotVec<String> = SlotVec::new(5);
        let writer = slots.writer();
        for i in 0..5 {
            writer.write(i, format!("v{i}"));
        }
        assert_eq!(writer.len(), 5);
        assert!(!writer.is_empty());
        // SAFETY: all 5 slots written above.
        let v = unsafe { slots.into_vec() };
        assert_eq!(v, vec!["v0", "v1", "v2", "v3", "v4"]);
    }
}
