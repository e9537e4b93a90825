//! The serving-stage step driver.
//!
//! [`BatchLocalizer`] runs the paper's Sec. V recursion, one query at a
//! time: the `k` nearest fingerprints (Eq. 3), their inverse-
//! dissimilarity probabilities (Eq. 4), the Eq. 6 motion evidence from
//! the retained posterior and the Eq. 7 reweighting; the top candidate
//! is the estimate and the posterior is kept for the next step. It is
//! the only implementation of that recursion outside the naive
//! reference, `moloc_verify::oracle::posterior_step`, which the
//! `eq4.candidates`/`eq7.*` suites of `moloc-audit` and the digest test
//! in `crates/eval/tests/determinism.rs` compare it against.
//!
//! The engine owns every per-step buffer — the k-NN selection heap,
//! the neighbor list, the candidate and posterior tables — and reuses
//! them across observations: after the first observation warms the
//! buffers up, a full trace of localization steps performs **zero heap
//! allocations** (asserted by `tests/zero_alloc.rs` with a counting
//! allocator).

use crate::config::MoLocConfig;
use crate::error::DegradationFlags;
use crate::matching::build_kernel;
use crate::tracker::{MotionMeasurement, TrackError};
use moloc_fingerprint::db::FingerprintDb;
use moloc_fingerprint::fingerprint::Fingerprint;
use moloc_fingerprint::index::{FingerprintIndex, KnnScratch};
use moloc_fingerprint::knn::Neighbor;
use moloc_geometry::LocationId;
use moloc_motion::kernel::MotionKernel;
use moloc_motion::matrix::MotionDb;
use std::cmp::Ordering;
use std::sync::Arc;

/// A resource the engine either owns, borrows from a caller who shares
/// it across engines (one build per setting, not per trace), or holds
/// reference-counted so a live-update publisher can retire the backing
/// snapshot while readers finish their current step on it.
#[derive(Debug)]
enum Resource<'a, T> {
    Owned(Box<T>),
    Shared(&'a T),
    Counted(Arc<T>),
}

impl<T> Resource<'_, T> {
    fn get(&self) -> &T {
        match self {
            Resource::Owned(v) => v,
            Resource::Shared(v) => v,
            Resource::Counted(v) => v,
        }
    }
}

/// The complete working set of a [`BatchLocalizer`]: k-NN heap slots,
/// the neighbor list, and the Eq. 4/Eq. 7 candidate tables.
///
/// Detached from the engine so worker arenas can recycle one warmed
/// scratch across many short-lived engines (one per trace): check the
/// scratch out of an arena, build an engine with
/// [`BatchLocalizer::with_scratch`], run the trace, and reclaim the
/// buffers with [`BatchLocalizer::into_scratch`]. After the first trace
/// warms the buffers, every later engine built over them performs zero
/// hot-path allocation.
#[derive(Debug)]
pub struct BatchScratch {
    scratch: KnnScratch,
    neighbors: Vec<Neighbor>,
    current: Vec<(LocationId, f64)>,
    weights: Vec<(LocationId, f64)>,
    previous: Vec<(LocationId, f64)>,
}

impl BatchScratch {
    /// A fresh working set sized for `k` neighbors.
    pub fn for_k(k: usize) -> Self {
        BatchScratch {
            scratch: KnnScratch::with_k(k),
            neighbors: Vec::with_capacity(k),
            current: Vec::with_capacity(k),
            weights: Vec::with_capacity(k),
            previous: Vec::with_capacity(k),
        }
    }

    /// Clears every buffer's contents, keeping capacity. Engines call
    /// this on checkout so recycled scratch can never leak one trace's
    /// posterior into the next.
    fn clear(&mut self) {
        self.neighbors.clear();
        self.current.clear();
        self.weights.clear();
        self.previous.clear();
    }
}

/// Locally accumulated histogram batches for the engine's two hot
/// metrics: Eq. 7 pair products and per-observation latency. Plain
/// fields — no atomics, no thread-local — published once per trace
/// (or per call on the single-shot path) via `moloc_obs::record_fold`.
#[derive(Debug, Default)]
struct ObsFolds {
    eq7_pair_products: moloc_obs::Fold,
    observe_seconds: moloc_obs::Fold,
}

impl ObsFolds {
    fn publish(&mut self) {
        moloc_obs::record_fold("core.eq7.pair_products", &self.eq7_pair_products);
        self.eq7_pair_products.clear();
        moloc_obs::record_fold("core.batch.observe", &self.observe_seconds);
        self.observe_seconds.clear();
    }
}

/// The reusable-buffer localization engine (Euclidean metric, motion
/// kernel — the production configuration).
#[derive(Debug)]
pub struct BatchLocalizer<'a> {
    index: Resource<'a, FingerprintIndex>,
    kernel: Resource<'a, MotionKernel>,
    config: MoLocConfig,
    buf: BatchScratch,
    has_previous: bool,
    last_flags: DegradationFlags,
    folds: ObsFolds,
}

impl BatchLocalizer<'static> {
    /// Builds a self-contained engine: flattens `fingerprint_db` into a
    /// [`FingerprintIndex`] and precomputes a [`MotionKernel`] over
    /// `motion_db`. When running many traces over one setting, build
    /// those once and use [`BatchLocalizer::new_with_index`] instead.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(
        fingerprint_db: &FingerprintDb,
        motion_db: &MotionDb,
        config: MoLocConfig,
    ) -> BatchLocalizer<'static> {
        config.validate();
        let index = FingerprintIndex::build(fingerprint_db);
        let kernel = build_kernel(motion_db, &config);
        BatchLocalizer {
            index: Resource::Owned(Box::new(index)),
            kernel: Resource::Owned(Box::new(kernel)),
            config,
            buf: BatchScratch::for_k(config.k),
            has_previous: false,
            last_flags: DegradationFlags::empty(),
            folds: ObsFolds::default(),
        }
    }

    /// An engine over reference-counted artifacts — the live-update
    /// path. Unlike [`BatchLocalizer::new_with_index`], the engine is
    /// `'static`: it co-owns the index and kernel, so a snapshot
    /// publisher can retire the epoch that produced them while this
    /// engine finishes its trace on the old data.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new_counted(
        index: Arc<FingerprintIndex>,
        kernel: Arc<MotionKernel>,
        config: MoLocConfig,
    ) -> BatchLocalizer<'static> {
        config.validate();
        BatchLocalizer {
            index: Resource::Counted(index),
            kernel: Resource::Counted(kernel),
            config,
            buf: BatchScratch::for_k(config.k),
            has_previous: false,
            last_flags: DegradationFlags::empty(),
            folds: ObsFolds::default(),
        }
    }
}

impl<'a> BatchLocalizer<'a> {
    /// An engine over caller-shared artifacts: the index and kernel are
    /// built once per `(fingerprint db, motion db, config)` and shared
    /// across the per-trace engines. The kernel must have been built
    /// from the same motion database and config (see [`build_kernel`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new_with_index(
        index: &'a FingerprintIndex,
        kernel: &'a MotionKernel,
        config: MoLocConfig,
    ) -> BatchLocalizer<'a> {
        Self::with_scratch(index, kernel, config, BatchScratch::for_k(config.k))
    }

    /// [`BatchLocalizer::new_with_index`] over a recycled working set —
    /// the arena path. The scratch is cleared on entry (capacity kept),
    /// so a recycled checkout behaves exactly like a fresh one, and an
    /// already-warm scratch makes engine construction allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_scratch(
        index: &'a FingerprintIndex,
        kernel: &'a MotionKernel,
        config: MoLocConfig,
        mut buf: BatchScratch,
    ) -> BatchLocalizer<'a> {
        config.validate();
        buf.clear();
        BatchLocalizer {
            index: Resource::Shared(index),
            kernel: Resource::Shared(kernel),
            config,
            buf,
            has_previous: false,
            last_flags: DegradationFlags::empty(),
            folds: ObsFolds::default(),
        }
    }

    /// Dismantles the engine, handing its warmed working set back for
    /// recycling (the counterpart of [`BatchLocalizer::with_scratch`]).
    pub fn into_scratch(self) -> BatchScratch {
        self.buf
    }

    /// Swaps the engine onto a newer epoch's index and kernel, keeping
    /// the retained posterior, degradation flags, and warmed buffers —
    /// the live-update reader's epoch transition. The posterior is a
    /// list of `(LocationId, probability)` pairs, so it stays
    /// meaningful across the swap as long as the new snapshot keeps the
    /// same location-id space (the live-update contract: crowdsourced
    /// deltas refine locations, they never renumber them). Call only at
    /// a step boundary — one localization step must never mix epochs.
    pub fn adopt_counted(&mut self, index: Arc<FingerprintIndex>, kernel: Arc<MotionKernel>) {
        self.index = Resource::Counted(index);
        self.kernel = Resource::Counted(kernel);
    }

    /// The engine's fingerprint index.
    pub fn index(&self) -> &FingerprintIndex {
        self.index.get()
    }

    /// The retained posterior from the last observation:
    /// `(location, probability)` in candidate order, empty before the
    /// first observation.
    pub fn posterior(&self) -> &[(LocationId, f64)] {
        if self.has_previous {
            &self.buf.previous
        } else {
            &[]
        }
    }

    /// Forgets all history, keeping the warmed buffers.
    pub fn reset(&mut self) {
        self.buf.previous.clear();
        self.has_previous = false;
        self.last_flags = DegradationFlags::empty();
    }

    /// Restores the engine's complete recursion state from a
    /// checkpoint: the retained posterior (as returned by
    /// [`BatchLocalizer::posterior`]) and the degradation flags of the
    /// observation that produced it.
    ///
    /// Eq. 7 consumes nothing but the previous posterior, so an engine
    /// restored this way continues **bit-identically** to the engine
    /// that produced the checkpoint — the crash-recovery contract of
    /// `moloc-session` (proven by its kill-and-replay digest tests). An
    /// empty `posterior` restores the pre-first-observation state.
    pub fn restore_posterior(&mut self, posterior: &[(LocationId, f64)], flags: DegradationFlags) {
        self.buf.previous.clear();
        self.buf.previous.extend_from_slice(posterior);
        self.has_previous = !posterior.is_empty();
        self.last_flags = flags;
    }

    /// Which graceful fallbacks fired during the most recent
    /// observation (empty when the estimate came from the clean
    /// full-fusion path). See [`DegradationFlags`] for the ladder.
    pub fn last_flags(&self) -> DegradationFlags {
        self.last_flags
    }

    /// Processes one localization query.
    ///
    /// `motion` is the RLM measured since the previous observation;
    /// pass `None` for the first query of a session (or whenever the
    /// motion pipeline could not produce a measurement — the step then
    /// behaves like plain fingerprinting, as the paper's initial
    /// localization does).
    ///
    /// # Errors
    ///
    /// Returns [`TrackError`] for mismatched query lengths or
    /// non-finite measurements.
    pub fn observe(
        &mut self,
        query: &Fingerprint,
        motion: Option<MotionMeasurement>,
    ) -> Result<LocationId, TrackError> {
        self.observe_slice(query.values(), motion)
    }

    /// [`BatchLocalizer::observe`] over a raw RSS slice — lets trace
    /// pipelines feed scan buffers directly, with no per-observation
    /// [`Fingerprint`] allocation.
    ///
    /// # Errors
    ///
    /// Returns [`TrackError`] for mismatched query lengths or
    /// non-finite measurements.
    pub fn observe_slice(
        &mut self,
        query: &[f64],
        motion: Option<MotionMeasurement>,
    ) -> Result<LocationId, TrackError> {
        let _span = moloc_obs::span("core.batch.observe");
        let estimate = self.observe_slice_uncounted(query, motion)?;
        if moloc_obs::is_enabled() {
            record_rung_occupancy(self.last_flags);
            self.folds.publish();
        }
        Ok(estimate)
    }

    /// [`BatchLocalizer::observe_slice`] minus the metric emission: no
    /// timing span, rung occupancy left in `last_flags`, and the Eq. 7
    /// sample parked in `folds`. The trace loop accumulates all three
    /// locally and publishes per-trace batches instead of
    /// per-observation recorder calls (same totals, same
    /// distributions, a fraction of the recorder traffic).
    fn observe_slice_uncounted(
        &mut self,
        query: &[f64],
        motion: Option<MotionMeasurement>,
    ) -> Result<LocationId, TrackError> {
        self.last_flags = DegradationFlags::empty();
        let index = self.index.get();
        if query.len() != index.ap_count() {
            return Err(TrackError::QueryLength {
                expected: index.ap_count(),
                found: query.len(),
            });
        }
        if let Some(m) = motion {
            if !m.direction_deg.is_finite() || !m.offset_m.is_finite() || m.offset_m < 0.0 {
                return Err(TrackError::BadMeasurement);
            }
        }

        // Degradation rung 0 (masked k-NN): queries with missing
        // (non-finite) APs rank on the observed dimensions only. Clean
        // queries keep the bit-exact monomorphized hot path — the
        // branch condition, not the arithmetic, is the only addition.
        if query.iter().all(|v| v.is_finite()) {
            index.k_nearest_into(
                query,
                self.config.k,
                &mut self.buf.scratch,
                &mut self.buf.neighbors,
            );
        } else {
            self.last_flags.insert(DegradationFlags::MASKED_QUERY);
            let observed = index.k_nearest_masked_into(
                query,
                self.config.k,
                &mut self.buf.scratch,
                &mut self.buf.neighbors,
            );
            if observed == 0 {
                // Every AP missing: all ranks are 0, so Eq. 4's
                // exact-match branch below yields a uniform prior over
                // the k lowest-id locations.
                self.last_flags.insert(DegradationFlags::NO_OBSERVED_APS);
            }
        }
        Ok(self.posterior_step(motion))
    }

    /// The posterior stage of one observation: Eq. 4 over
    /// `buf.neighbors`, Eq. 7 against the retained history, top pick,
    /// and the posterior buffer swap. Inputs are the neighbor buffer
    /// and the k-NN degradation flags, both set by the caller.
    fn posterior_step(&mut self, motion: Option<MotionMeasurement>) -> LocationId {
        // Eq. 4 into the reusable candidate table — the arithmetic of
        // `oracle::candidate_probabilities`, including the exact-match
        // branch and the iterator summation order.
        self.buf.current.clear();
        let exact = self
            .buf
            .neighbors
            .iter()
            .filter(|n| n.dissimilarity <= f64::EPSILON)
            .count();
        if exact > 0 {
            let p = 1.0 / exact as f64;
            for n in &self.buf.neighbors {
                let probability = if n.dissimilarity <= f64::EPSILON {
                    p
                } else {
                    0.0
                };
                self.buf.current.push((n.location, probability));
            }
        } else {
            let total: f64 = self
                .buf
                .neighbors
                .iter()
                .map(|n| 1.0 / n.dissimilarity)
                .sum();
            if total.is_finite() && total > 0.0 {
                for n in &self.buf.neighbors {
                    self.buf
                        .current
                        .push((n.location, (1.0 / n.dissimilarity) / total));
                }
            } else {
                // Degradation rung 2 (candidate reset): the fingerprint
                // evidence itself collapsed — reset to a uniform prior
                // over the retrieved neighbors and drop history, which
                // refers to a posterior that no longer means anything.
                self.last_flags.insert(DegradationFlags::CANDIDATE_RESET);
                let p = 1.0 / self.buf.neighbors.len() as f64;
                for n in &self.buf.neighbors {
                    self.buf.current.push((n.location, p));
                }
                self.buf.previous.clear();
                self.has_previous = false;
            }
        }

        // Eq. 7 when both history and motion exist — the arithmetic of
        // `oracle::fuse_posterior` over the retained buffers.
        let reweighted = match motion {
            Some(m) if self.has_previous => {
                // Eq. 7 propagation cost: the k x k transition products
                // this step evaluates. Advisory only — recording never
                // feeds back into the weights. Folded locally; the
                // caller publishes the batch.
                if moloc_obs::is_enabled() {
                    self.folds
                        .eq7_pair_products
                        .record((self.buf.current.len() * self.buf.previous.len()) as f64);
                }
                let kernel = self.kernel.get();
                // The stay-in-place mass ignores the pair, so hoist it
                // out of the k x k product (consecutive candidate sets
                // overlap heavily, hitting the diagonal up to k times).
                let stay = kernel.stay_probability(m.offset_m);
                self.buf.weights.clear();
                for &(loc, p_fingerprint) in &self.buf.current {
                    let p_motion: f64 = self
                        .buf
                        .previous
                        .iter()
                        .map(|&(from, p)| {
                            p * if from == loc {
                                stay
                            } else {
                                kernel.pair_probability(from, loc, m.direction_deg, m.offset_m)
                            }
                        })
                        .sum();
                    self.buf.weights.push((loc, p_fingerprint * p_motion));
                }
                let total: f64 = self.buf.weights.iter().map(|(_, w)| w).sum();
                // Degradation rung 1 (fingerprint-only): degenerate or
                // non-finite totals fall back to the fingerprint-only
                // distribution, as `oracle::fuse_posterior` does. A
                // NaN total would slip past a plain `<=` floor check
                // and normalize into a NaN posterior.
                if total.is_finite() && total > self.config.degenerate_total_floor {
                    for entry in &mut self.buf.weights {
                        entry.1 /= total;
                    }
                    true
                } else {
                    self.last_flags.insert(DegradationFlags::MOTION_FALLBACK);
                    false
                }
            }
            _ => false,
        };
        let posterior: &[(LocationId, f64)] = if reweighted {
            &self.buf.weights
        } else {
            &self.buf.current
        };
        moloc_verify::check_posterior("core.batch.posterior", posterior.iter().copied());

        // `oracle::top`: highest probability, ties to lower id.
        // `total_cmp` orders identically to `partial_cmp` here (the
        // guards above keep every retained probability finite and
        // non-negative, and no path produces -0.0) without a panicking
        // `expect` on the comparison.
        let mut best = 0usize;
        for i in 1..posterior.len() {
            let ord = posterior[i]
                .1
                .total_cmp(&posterior[best].1)
                .then_with(|| posterior[best].0.cmp(&posterior[i].0));
            if ord == Ordering::Greater {
                best = i;
            }
        }
        let estimate = posterior[best].0;

        // Retain the posterior by swapping buffers (no copy, no alloc).
        if reweighted {
            std::mem::swap(&mut self.buf.previous, &mut self.buf.weights);
        } else {
            std::mem::swap(&mut self.buf.previous, &mut self.buf.current);
        }
        self.has_previous = true;
        estimate
    }

    /// Localizes a whole trace into `out` (cleared first), resetting
    /// history beforehand. With warmed buffers and a pre-sized `out`,
    /// the entire call performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// Returns the first [`TrackError`] encountered; `out` then holds
    /// the estimates produced before the failure.
    pub fn localize_trace_into(
        &mut self,
        queries: &[(Fingerprint, Option<MotionMeasurement>)],
        out: &mut Vec<LocationId>,
    ) -> Result<(), TrackError> {
        self.localize_steps_into(
            queries.len(),
            |i| queries[i].0.values(),
            |i| queries[i].1,
            out,
        )
    }

    /// [`BatchLocalizer::localize_trace_into`] over raw RSS slices —
    /// the trace-level counterpart of [`BatchLocalizer::observe_slice`],
    /// letting pipelines feed scan buffers directly (no per-pass
    /// [`Fingerprint`] allocation). `motions[i]` is the interval
    /// measured *before* `scans[i]` (`None` for the first pass).
    ///
    /// # Errors
    ///
    /// Returns the first [`TrackError`] encountered; `out` then holds
    /// the estimates produced before the failure.
    ///
    /// # Panics
    ///
    /// Panics when `scans` and `motions` have different lengths.
    pub fn localize_scans_into(
        &mut self,
        scans: &[&[f64]],
        motions: &[Option<MotionMeasurement>],
        out: &mut Vec<LocationId>,
    ) -> Result<(), TrackError> {
        assert_eq!(scans.len(), motions.len(), "one motion interval per scan");
        self.localize_steps_into(scans.len(), |i| scans[i], |i| motions[i], out)
    }

    /// The shared trace driver behind [`BatchLocalizer::localize_trace_into`]
    /// and [`BatchLocalizer::localize_scans_into`]: steps are addressed
    /// by index through the two accessors so both entry points share
    /// one monomorphized loop per closure pair.
    fn localize_steps_into<'q>(
        &mut self,
        len: usize,
        query_at: impl Fn(usize) -> &'q [f64],
        motion_at: impl Fn(usize) -> Option<MotionMeasurement>,
        out: &mut Vec<LocationId>,
    ) -> Result<(), TrackError> {
        // Trace-level span: besides timing the whole trace, it pins the
        // thread-local obs buffer open across every observation, so the
        // few remaining per-trace recorder calls merge locally and hit
        // the registry once when it closes.
        let _span = moloc_obs::span("core.batch.localize_trace");
        self.reset();
        out.clear();
        // All per-observation metrics accumulate in plain locals across
        // the trace and publish once at the end — identical totals and
        // distributions to per-observation emission, without recorder
        // round trips on the hottest loop in the workspace. Timing uses
        // chained timestamps: the end of one observation starts the
        // next, one clock read per pass where a span would pay two.
        let mut occupancy = RungOccupancy::default();
        let counting = moloc_obs::is_enabled();
        let mut prev = counting.then(std::time::Instant::now);
        let mut result = Ok(());
        for step in 0..len {
            match self.observe_slice_uncounted(query_at(step), motion_at(step)) {
                Ok(estimate) => {
                    out.push(estimate);
                    if let Some(p) = prev {
                        let now = std::time::Instant::now();
                        self.folds
                            .observe_seconds
                            .record(now.duration_since(p).as_secs_f64());
                        prev = Some(now);
                    }
                    if counting {
                        occupancy.add(self.last_flags);
                    }
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        occupancy.emit();
        self.folds.publish();
        result
    }

    /// Convenience wrapper over
    /// [`BatchLocalizer::localize_trace_into`] allocating the output.
    ///
    /// # Errors
    ///
    /// Returns the first [`TrackError`] encountered.
    pub fn localize_trace(
        &mut self,
        queries: &[(Fingerprint, Option<MotionMeasurement>)],
    ) -> Result<Vec<LocationId>, TrackError> {
        let mut out = Vec::with_capacity(queries.len());
        self.localize_trace_into(queries, &mut out)?;
        Ok(out)
    }
}

/// Locally summed degradation-ladder occupancy for one trace: the same
/// taxonomy [`record_rung_occupancy`] emits per observation, folded
/// into plain integers and published as one `counter_add` per touched
/// name when the trace ends.
#[derive(Debug, Default)]
struct RungOccupancy {
    observations: u64,
    clean: u64,
    masked_query: u64,
    no_observed_aps: u64,
    motion_fallback: u64,
    candidate_reset: u64,
}

impl RungOccupancy {
    fn add(&mut self, flags: DegradationFlags) {
        self.observations += 1;
        if flags.is_empty() {
            self.clean += 1;
            return;
        }
        self.masked_query += u64::from(flags.contains(DegradationFlags::MASKED_QUERY));
        self.no_observed_aps += u64::from(flags.contains(DegradationFlags::NO_OBSERVED_APS));
        self.motion_fallback += u64::from(flags.contains(DegradationFlags::MOTION_FALLBACK));
        self.candidate_reset += u64::from(flags.contains(DegradationFlags::CANDIDATE_RESET));
    }

    fn emit(&self) {
        for (name, count) in [
            ("core.degradation.observations", self.observations),
            ("core.degradation.clean", self.clean),
            ("core.degradation.masked_query", self.masked_query),
            ("core.degradation.no_observed_aps", self.no_observed_aps),
            ("core.degradation.motion_fallback", self.motion_fallback),
            ("core.degradation.candidate_reset", self.candidate_reset),
        ] {
            if count > 0 {
                moloc_obs::counter_add(name, count);
            }
        }
    }
}

/// Counts one observation against the degradation-ladder occupancy
/// counters (DESIGN.md §13): the total, the clean path, and one counter
/// per rung that fired. Rungs are not exclusive — a blind query counts
/// under both `masked_query` and `no_observed_aps`, mirroring
/// [`DegradationFlags`] semantics.
fn record_rung_occupancy(flags: DegradationFlags) {
    moloc_obs::counter_add("core.degradation.observations", 1);
    if flags.is_empty() {
        moloc_obs::counter_add("core.degradation.clean", 1);
        return;
    }
    for (flag, name) in [
        (
            DegradationFlags::MASKED_QUERY,
            "core.degradation.masked_query",
        ),
        (
            DegradationFlags::NO_OBSERVED_APS,
            "core.degradation.no_observed_aps",
        ),
        (
            DegradationFlags::MOTION_FALLBACK,
            "core.degradation.motion_fallback",
        ),
        (
            DegradationFlags::CANDIDATE_RESET,
            "core.degradation.candidate_reset",
        ),
    ] {
        if flags.contains(flag) {
            moloc_obs::counter_add(name, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_motion::matrix::PairStats;
    use moloc_stats::gaussian::Gaussian;

    fn l(i: u32) -> LocationId {
        LocationId::new(i)
    }

    fn fp(v: &[f64]) -> Fingerprint {
        Fingerprint::new(v.to_vec())
    }

    /// Three locations in a row, 4 m apart going east; L1 and L3 are
    /// fingerprint twins, L2 is distinctive.
    fn world() -> (FingerprintDb, MotionDb) {
        let fdb = FingerprintDb::from_fingerprints(vec![
            (l(1), fp(&[-50.0, -50.0])),
            (l(2), fp(&[-40.0, -70.0])),
            (l(3), fp(&[-50.0, -50.1])),
        ])
        .unwrap();
        let mut mdb = MotionDb::new(3);
        let east = |mu_o: f64| PairStats {
            direction: Gaussian::new(90.0, 5.0).unwrap(),
            offset: Gaussian::new(mu_o, 0.3).unwrap(),
            sample_count: 10,
        };
        mdb.insert(l(1), l(2), east(4.0));
        mdb.insert(l(2), l(3), east(4.0));
        mdb.insert(l(1), l(3), east(8.0));
        (fdb, mdb)
    }

    fn queries() -> Vec<(Fingerprint, Option<MotionMeasurement>)> {
        vec![
            (fp(&[-40.0, -70.0]), None),
            (
                fp(&[-50.0, -50.05]),
                Some(MotionMeasurement {
                    direction_deg: 91.0,
                    offset_m: 4.1,
                }),
            ),
            (
                fp(&[-41.0, -69.5]),
                Some(MotionMeasurement {
                    direction_deg: 270.0,
                    offset_m: 4.0,
                }),
            ),
            (fp(&[-50.0, -50.0]), None),
        ]
    }

    #[test]
    fn posteriors_and_estimates_match_the_oracle() {
        let (fdb, mdb) = world();
        let config = MoLocConfig::default();
        let kernel = build_kernel(&mdb, &config);
        let mut engine = BatchLocalizer::new(&fdb, &mdb, config);
        let mut previous: Vec<(LocationId, f64)> = Vec::new();
        for (q, m) in &queries() {
            let estimate = engine.observe(q, *m).unwrap();
            let history = if m.is_some() { &previous[..] } else { &[] };
            let (d, o) = m.map_or((0.0, 0.0), |m| (m.direction_deg, m.offset_m));
            previous = moloc_verify::oracle::posterior_step(
                fdb.iter().map(|(id, f)| (id, f.values())),
                q.values(),
                config.k,
                history,
                |from, to| kernel.pair_probability(from, to, d, o),
                config.degenerate_total_floor,
            );
            assert_eq!(engine.posterior(), previous.as_slice());
            assert_eq!(Some(estimate), moloc_verify::oracle::top(&previous));
        }
    }

    #[test]
    fn first_observation_is_fingerprint_only() {
        let (fdb, mdb) = world();
        let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
        assert_eq!(engine.observe(&fp(&[-41.0, -69.0]), None).unwrap(), l(2));
        assert!(!engine.posterior().is_empty());
    }

    #[test]
    fn motion_resolves_twins_either_way() {
        let (fdb, mdb) = world();
        let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
        // Start confidently at L2, then walk east 4 m: the twin query
        // must resolve to L3 even though L1 matches it equally well.
        engine.observe(&fp(&[-40.0, -70.0]), None).unwrap();
        let east = Some(MotionMeasurement {
            direction_deg: 91.0,
            offset_m: 4.1,
        });
        assert_eq!(engine.observe(&fp(&[-50.0, -50.05]), east).unwrap(), l(3));
        let p3 = engine.posterior().iter().find(|(id, _)| *id == l(3));
        assert!(
            p3.is_some_and(|&(_, p)| p > 0.9),
            "{:?}",
            engine.posterior()
        );
        // Walking west from L2 instead picks the other twin.
        engine.reset();
        engine.observe(&fp(&[-40.0, -70.0]), None).unwrap();
        let west = Some(MotionMeasurement {
            direction_deg: 270.0,
            offset_m: 4.0,
        });
        assert_eq!(engine.observe(&fp(&[-50.0, -50.05]), west).unwrap(), l(1));
    }

    #[test]
    fn missing_motion_degrades_to_fingerprinting() {
        let (fdb, mdb) = world();
        let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
        engine.observe(&fp(&[-40.0, -70.0]), None).unwrap();
        // No motion info: the exact match to L1 wins on fingerprints.
        assert_eq!(engine.observe(&fp(&[-50.0, -50.0]), None).unwrap(), l(1));
    }

    #[test]
    fn localize_trace_matches_stepwise_observe() {
        let (fdb, mdb) = world();
        let config = MoLocConfig::default();
        let mut stepwise = BatchLocalizer::new(&fdb, &mdb, config);
        let expected: Vec<LocationId> = queries()
            .iter()
            .map(|(q, m)| stepwise.observe(q, *m).unwrap())
            .collect();
        let mut batched = BatchLocalizer::new(&fdb, &mdb, config);
        assert_eq!(batched.localize_trace(&queries()).unwrap(), expected);
        assert_eq!(batched.posterior(), stepwise.posterior());
    }

    #[test]
    fn localize_trace_surfaces_mid_trace_errors_in_order() {
        let (fdb, mdb) = world();
        let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
        let mut out = Vec::new();
        let err = engine
            .localize_trace_into(
                &[
                    (fp(&[-40.0, -70.0]), None),
                    (fp(&[-40.0]), None),
                    (fp(&[-50.0, -50.0]), None),
                ],
                &mut out,
            )
            .unwrap_err();
        assert_eq!(
            err,
            TrackError::QueryLength {
                expected: 2,
                found: 1
            }
        );
        // Step 0 was processed before the error hit.
        assert_eq!(out, vec![l(2)]);
        assert!(!engine.posterior().is_empty());
    }

    #[test]
    fn shared_index_matches_owned() {
        let (fdb, mdb) = world();
        let config = MoLocConfig::default();
        let index = FingerprintIndex::build(&fdb);
        let kernel = build_kernel(&mdb, &config);
        let mut owned = BatchLocalizer::new(&fdb, &mdb, config);
        let mut shared = BatchLocalizer::new_with_index(&index, &kernel, config);
        assert_eq!(
            owned.localize_trace(&queries()).unwrap(),
            shared.localize_trace(&queries()).unwrap()
        );
    }

    #[test]
    fn reset_clears_history_and_reuse_is_stable() {
        let (fdb, mdb) = world();
        let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
        let first = engine.localize_trace(&queries()).unwrap();
        // localize_trace resets internally: a second run must agree.
        let second = engine.localize_trace(&queries()).unwrap();
        assert_eq!(first, second);
        engine.reset();
        assert!(engine.posterior().is_empty());
    }

    #[test]
    fn restore_posterior_resumes_bit_identically() {
        let (fdb, mdb) = world();
        let config = MoLocConfig::default();
        let queries = queries();
        // Uninterrupted reference run.
        let mut reference = BatchLocalizer::new(&fdb, &mdb, config);
        let mut expected = Vec::new();
        for (q, m) in &queries {
            expected.push(reference.observe(q, *m).unwrap());
        }
        // Cut the run at every boundary, checkpoint the posterior, and
        // resume on a fresh engine: estimates and retained posteriors
        // must match the uninterrupted run bit-for-bit.
        for cut in 0..=queries.len() {
            let mut first = BatchLocalizer::new(&fdb, &mdb, config);
            let mut estimates = Vec::new();
            for (q, m) in &queries[..cut] {
                estimates.push(first.observe(q, *m).unwrap());
            }
            let saved: Vec<(LocationId, f64)> = first.posterior().to_vec();
            let flags = first.last_flags();
            let mut resumed = BatchLocalizer::new(&fdb, &mdb, config);
            resumed.restore_posterior(&saved, flags);
            assert_eq!(resumed.posterior(), saved.as_slice());
            assert_eq!(resumed.last_flags(), flags);
            for (q, m) in &queries[cut..] {
                estimates.push(resumed.observe(q, *m).unwrap());
            }
            assert_eq!(estimates, expected, "cut at {cut} diverged");
            if cut == queries.len() {
                let bits = |p: &[(LocationId, f64)]| {
                    p.iter().map(|(l, v)| (*l, v.to_bits())).collect::<Vec<_>>()
                };
                assert_eq!(bits(resumed.posterior()), bits(reference.posterior()));
            }
        }
    }

    #[test]
    fn counted_engine_matches_owned_and_adopt_preserves_posterior() {
        let (fdb, mdb) = world();
        let config = MoLocConfig::default();
        let index = Arc::new(FingerprintIndex::build(&fdb));
        let kernel = Arc::new(build_kernel(&mdb, &config));
        let mut owned = BatchLocalizer::new(&fdb, &mdb, config);
        let mut counted =
            BatchLocalizer::new_counted(Arc::clone(&index), Arc::clone(&kernel), config);
        assert_eq!(
            owned.localize_trace(&queries()).unwrap(),
            counted.localize_trace(&queries()).unwrap()
        );

        // Mid-trace adoption of the *same* artifacts behind fresh Arcs
        // must be invisible: identical posterior before and after, and
        // the continuation matches an unswapped engine bit-for-bit.
        let queries = queries();
        let mut reference =
            BatchLocalizer::new_counted(Arc::clone(&index), Arc::clone(&kernel), config);
        let mut swapped =
            BatchLocalizer::new_counted(Arc::clone(&index), Arc::clone(&kernel), config);
        for (q, m) in &queries[..2] {
            reference.observe(q, *m).unwrap();
            swapped.observe(q, *m).unwrap();
        }
        let before: Vec<(LocationId, u64)> = swapped
            .posterior()
            .iter()
            .map(|&(l, p)| (l, p.to_bits()))
            .collect();
        swapped.adopt_counted(Arc::new(FingerprintIndex::build(&fdb)), Arc::clone(&kernel));
        let after: Vec<(LocationId, u64)> = swapped
            .posterior()
            .iter()
            .map(|&(l, p)| (l, p.to_bits()))
            .collect();
        assert_eq!(before, after, "adopt must not touch the posterior");
        for (q, m) in &queries[2..] {
            assert_eq!(
                reference.observe(q, *m).unwrap(),
                swapped.observe(q, *m).unwrap()
            );
        }
    }

    #[test]
    fn malformed_queries_and_measurements_are_typed_errors() {
        let (fdb, mdb) = world();
        let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
        assert_eq!(
            engine.observe(&fp(&[-40.0]), None).unwrap_err(),
            TrackError::QueryLength {
                expected: 2,
                found: 1
            }
        );
        assert_eq!(
            engine
                .observe(
                    &fp(&[-40.0, -70.0]),
                    Some(MotionMeasurement {
                        direction_deg: f64::NAN,
                        offset_m: 1.0,
                    })
                )
                .unwrap_err(),
            TrackError::BadMeasurement
        );
    }

    fn assert_normalized(engine: &BatchLocalizer<'_>) {
        let posterior = engine.posterior();
        let total: f64 = posterior.iter().map(|(_, p)| p).sum();
        assert!(
            posterior.iter().all(|(_, p)| p.is_finite() && *p >= 0.0),
            "non-finite posterior {posterior:?}"
        );
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn nan_query_degrades_to_masked_ranking() {
        let (fdb, mdb) = world();
        let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
        // AP 0 missing: ranking happens on AP 1 alone, where L2's
        // -70 dBm is the unambiguous nearest to the query's -69.
        let estimate = engine
            .observe_slice(&[f64::NAN, -69.0], None)
            .expect("masked query localizes");
        assert_eq!(estimate, l(2));
        assert!(engine.last_flags().contains(DegradationFlags::MASKED_QUERY));
        assert!(!engine
            .last_flags()
            .contains(DegradationFlags::NO_OBSERVED_APS));
        assert_normalized(&engine);
    }

    #[test]
    fn all_nan_query_yields_uniform_prior() {
        let (fdb, mdb) = world();
        let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
        let estimate = engine
            .observe_slice(&[f64::NAN, f64::NAN], None)
            .expect("blind query still localizes");
        let flags = engine.last_flags();
        assert!(flags.contains(DegradationFlags::MASKED_QUERY));
        assert!(flags.contains(DegradationFlags::NO_OBSERVED_APS));
        // Uniform over the k lowest-id locations; ties go to L1.
        assert_eq!(estimate, l(1));
        assert_normalized(&engine);
    }

    #[test]
    fn clean_queries_report_clean_flags() {
        let (fdb, mdb) = world();
        let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
        for (query, motion) in queries() {
            engine.observe(&query, motion).unwrap();
            assert!(engine.last_flags().is_empty(), "{}", engine.last_flags());
            assert_normalized(&engine);
        }
    }

    #[test]
    fn motion_fallback_flag_fires_on_empty_motion_db() {
        let (fdb, _) = world();
        // An empty motion database with a zero missing-pair probability
        // collapses every Eq. 7 total to zero: the engine must fall
        // back to the fingerprint-only prior and say so.
        let mdb = MotionDb::new(3);
        let config = MoLocConfig {
            missing_pair_prob: 0.0,
            ..MoLocConfig::default()
        };
        let mut engine = BatchLocalizer::new(&fdb, &mdb, config);
        engine.observe_slice(&[-40.0, -70.0], None).unwrap();
        let estimate = engine
            .observe_slice(
                &[-50.0, -50.05],
                Some(MotionMeasurement {
                    direction_deg: 91.0,
                    offset_m: 4.1,
                }),
            )
            .unwrap();
        assert!(engine
            .last_flags()
            .contains(DegradationFlags::MOTION_FALLBACK));
        // Fingerprint-only: the nearer twin wins.
        assert_eq!(estimate, l(1));
        assert_normalized(&engine);
    }

    #[test]
    fn masked_sequence_with_motion_stays_normalized() {
        let (fdb, mdb) = world();
        let mut engine = BatchLocalizer::new(&fdb, &mdb, MoLocConfig::default());
        let traces: [(&[f64], Option<MotionMeasurement>); 4] = [
            (&[-40.0, -70.0], None),
            (
                &[f64::NAN, -50.05],
                Some(MotionMeasurement {
                    direction_deg: 91.0,
                    offset_m: 4.1,
                }),
            ),
            (
                &[f64::NAN, f64::NAN],
                Some(MotionMeasurement {
                    direction_deg: 270.0,
                    offset_m: 4.0,
                }),
            ),
            (&[-50.0, -50.0], None),
        ];
        for (query, motion) in traces {
            engine.observe_slice(query, motion).expect("never errors");
            assert_normalized(&engine);
        }
    }
}
