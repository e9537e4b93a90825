//! Keyed cache of per-setting serving artifacts.
//!
//! Several experiments run over the same `(floorplan, AP layout, seed)`
//! scenario: Fig. 6, Fig. 7, Fig. 8, Table I and most ablations all
//! start by building a [`Setting`] (fingerprint + motion databases) and
//! then the serving artifacts derived from it — the columnar
//! [`FingerprintIndex`] and the [`MotionKernel`]. Those builds dominate
//! the non-localization time of a `repro --exp all` run, and before
//! this cache each experiment rebuilt them from scratch.
//!
//! [`ScenarioCache`] memoizes both layers:
//!
//! * settings are keyed by `(n_aps, sanitation, counting)` — the full
//!   input of [`EvalWorld::setting_with`];
//! * kernels are keyed by the setting key **plus** the kernel-relevant
//!   [`MoLocConfig`] fields (`α`, `β`, floors), so a `k` sweep reuses
//!   one kernel while a window sweep gets one per `(α, β)`.
//!
//! The cache is `Sync`: experiments that fan AP counts out on the
//! worker pool share it, and each artifact is built exactly once even
//! under concurrent first access (per-key `OnceLock`s are initialized
//! outside the map lock, so one slow build never serializes the rest).

use crate::pipeline::{CountingMethod, EvalWorld, Setting};
use moloc_core::config::MoLocConfig;
use moloc_core::matching::build_kernel;
use moloc_fingerprint::index::FingerprintIndex;
use moloc_motion::filter::SanitationConfig;
use moloc_motion::kernel::MotionKernel;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One setting plus the serving artifact derived from it.
#[derive(Debug)]
pub struct SettingArtifacts {
    /// The fingerprint + motion databases.
    pub setting: Setting,
    /// The columnar index flattened from `setting.fdb`.
    pub index: FingerprintIndex,
}

/// Identity of a built setting: every input of
/// [`EvalWorld::setting_with`] except the (fixed) world itself.
/// Float thresholds are keyed by their bit patterns — settings are
/// equal exactly when their configurations are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SettingKey {
    n_aps: usize,
    /// Published database epoch the artifacts serve (DESIGN.md §17).
    /// 0 is the static site-survey database — every pre-live path;
    /// live-update experiments key their per-epoch artifacts here so
    /// refreshed databases never alias the seed.
    epoch: u64,
    counting: u8,
    sanitation: [u64; 5],
    min_samples: usize,
    coarse_enabled: bool,
    fine_enabled: bool,
}

impl SettingKey {
    fn new(n_aps: usize, sanitation: SanitationConfig, counting: CountingMethod) -> Self {
        Self {
            n_aps,
            epoch: 0,
            counting: match counting {
                CountingMethod::Continuous => 0,
                CountingMethod::Discrete => 1,
            },
            sanitation: [
                sanitation.coarse_direction_deg.to_bits(),
                sanitation.coarse_offset_m.to_bits(),
                sanitation.fine_sigma.to_bits(),
                sanitation.min_direction_std_deg.to_bits(),
                sanitation.min_offset_std_m.to_bits(),
            ],
            min_samples: sanitation.min_samples,
            coarse_enabled: sanitation.coarse_enabled,
            fine_enabled: sanitation.fine_enabled,
        }
    }
}

/// The kernel-relevant configuration fields, by bit pattern (`k` and
/// the degenerate floor do not enter the kernel tables).
type KernelKey = [u64; 4];

fn kernel_key(config: &MoLocConfig) -> KernelKey {
    let kc = config.kernel_config();
    [
        kc.alpha_deg.to_bits(),
        kc.beta_m.to_bits(),
        kc.missing_pair_prob.to_bits(),
        kc.stationary_offset_std_m.to_bits(),
    ]
}

type Slot<T> = Arc<OnceLock<Arc<T>>>;

/// The memoizing artifact store for one evaluation world.
#[derive(Debug)]
pub struct ScenarioCache<'w> {
    world: &'w EvalWorld,
    settings: Mutex<HashMap<SettingKey, Slot<SettingArtifacts>>>,
    kernels: Mutex<HashMap<(SettingKey, KernelKey), Slot<MotionKernel>>>,
    setting_builds: AtomicUsize,
    kernel_builds: AtomicUsize,
}

impl<'w> ScenarioCache<'w> {
    /// An empty cache over `world`.
    pub fn new(world: &'w EvalWorld) -> Self {
        Self {
            world,
            settings: Mutex::new(HashMap::new()),
            kernels: Mutex::new(HashMap::new()),
            setting_builds: AtomicUsize::new(0),
            kernel_builds: AtomicUsize::new(0),
        }
    }

    /// The underlying world.
    pub fn world(&self) -> &'w EvalWorld {
        self.world
    }

    /// The paper-default setting (CSC counting, paper sanitation) at
    /// `n_aps` APs, plus its index — built on first request.
    pub fn artifacts(&self, n_aps: usize) -> Arc<SettingArtifacts> {
        self.artifacts_with(n_aps, SanitationConfig::paper(), CountingMethod::Continuous)
    }

    /// Arbitrary-configuration variant of [`ScenarioCache::artifacts`].
    pub fn artifacts_with(
        &self,
        n_aps: usize,
        sanitation: SanitationConfig,
        counting: CountingMethod,
    ) -> Arc<SettingArtifacts> {
        let key = SettingKey::new(n_aps, sanitation, counting);
        let slot = self.slot(&self.settings, key);
        count_access("eval.cache.setting", slot.get().is_some());
        slot.get_or_init(|| {
            self.setting_builds.fetch_add(1, Ordering::Relaxed);
            let setting = self.world.setting_with(n_aps, sanitation, counting);
            let index = FingerprintIndex::build(&setting.fdb);
            Arc::new(SettingArtifacts { setting, index })
        })
        .clone()
    }

    /// Epoch-keyed variant of [`ScenarioCache::artifacts`] for
    /// live-update experiments. The cache cannot rebuild crowdsourced
    /// state itself, so artifacts for a published epoch are produced by
    /// the caller's `build` closure (typically from a
    /// `moloc_live::DbSnapshot`) and memoized under
    /// `(n_aps, epoch, paper defaults)`; repeated arms over the same
    /// epoch reuse one build. `epoch` 0 shares the entry the static
    /// paths use, so `build` must reproduce the site-survey seed there.
    pub fn artifacts_epoch(
        &self,
        n_aps: usize,
        epoch: u64,
        build: impl FnOnce() -> SettingArtifacts,
    ) -> Arc<SettingArtifacts> {
        let key = SettingKey {
            epoch,
            ..SettingKey::new(n_aps, SanitationConfig::paper(), CountingMethod::Continuous)
        };
        let slot = self.slot(&self.settings, key);
        count_access("eval.cache.setting", slot.get().is_some());
        slot.get_or_init(|| {
            self.setting_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(build())
        })
        .clone()
    }

    /// The motion kernel for the paper-default setting at `n_aps` under
    /// `config` — built on first request per distinct kernel
    /// configuration. Also builds the setting if needed.
    pub fn kernel(&self, n_aps: usize, config: &MoLocConfig) -> Arc<MotionKernel> {
        self.kernel_with(
            n_aps,
            SanitationConfig::paper(),
            CountingMethod::Continuous,
            config,
        )
    }

    /// Arbitrary-configuration variant of [`ScenarioCache::kernel`].
    pub fn kernel_with(
        &self,
        n_aps: usize,
        sanitation: SanitationConfig,
        counting: CountingMethod,
        config: &MoLocConfig,
    ) -> Arc<MotionKernel> {
        let setting_key = SettingKey::new(n_aps, sanitation, counting);
        let slot = self.slot(&self.kernels, (setting_key, kernel_key(config)));
        count_access("eval.cache.kernel", slot.get().is_some());
        slot.get_or_init(|| {
            let artifacts = self.artifacts_with(n_aps, sanitation, counting);
            self.kernel_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(build_kernel(&artifacts.setting.motion_db, config))
        })
        .clone()
    }

    /// Builds the paper-default artifacts for every AP count in `n_aps`
    /// concurrently on the worker pool (each build itself fans its
    /// trace analysis out, and nested jobs run inline, so prewarming
    /// composes with the runtime instead of deadlocking it). Experiment
    /// drivers call this once up front so their per-AP-count loops run
    /// entirely against warm artifacts.
    pub fn prewarm(&self, n_aps: &[usize]) {
        moloc_runtime::par_map(n_aps, |&n| {
            self.artifacts(n);
        });
    }

    /// How many settings have been built (not served from cache).
    pub fn setting_builds(&self) -> usize {
        self.setting_builds.load(Ordering::Relaxed)
    }

    /// How many kernels have been built (not served from cache).
    pub fn kernel_builds(&self) -> usize {
        self.kernel_builds.load(Ordering::Relaxed)
    }

    /// Fetches (inserting if absent) the per-key init slot. The map
    /// lock is held only for the lookup; the expensive build runs under
    /// the slot's own `OnceLock`.
    fn slot<K: std::hash::Hash + Eq + Copy, T>(
        &self,
        map: &Mutex<HashMap<K, Slot<T>>>,
        key: K,
    ) -> Slot<T> {
        map.lock()
            .expect("cache lock poisoned")
            .entry(key)
            .or_default()
            .clone()
    }
}

/// Records one cache access as a hit (the slot was already initialized)
/// or a miss, under `<layer>_hits` / `<layer>_misses`. Under concurrent
/// first access several callers may each record a miss while only one
/// builds; the counters are advisory load indicators — the
/// authoritative build totals are [`ScenarioCache::setting_builds`] and
/// [`ScenarioCache::kernel_builds`].
fn count_access(layer: &'static str, hit: bool) {
    if !moloc_obs::is_enabled() {
        return;
    }
    let name = match (layer, hit) {
        ("eval.cache.setting", true) => "eval.cache.setting_hits",
        ("eval.cache.setting", false) => "eval.cache.setting_misses",
        ("eval.cache.kernel", true) => "eval.cache.kernel_hits",
        _ => "eval.cache.kernel_misses",
    };
    moloc_obs::counter_add(name, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use moloc_runtime::par_run;

    #[test]
    fn repeated_requests_build_once() {
        let world = EvalWorld::small(31);
        let cache = ScenarioCache::new(&world);
        let a = cache.artifacts(6);
        let b = cache.artifacts(6);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.setting_builds(), 1);
        // The cached artifacts match a direct build.
        let direct = world.setting(6);
        assert_eq!(a.setting.fdb, direct.fdb);
        assert_eq!(a.setting.motion_db, direct.motion_db);
        assert_eq!(a.index, FingerprintIndex::build(&direct.fdb));
    }

    #[test]
    fn distinct_keys_build_distinct_settings() {
        let world = EvalWorld::small(31);
        let cache = ScenarioCache::new(&world);
        cache.artifacts(5);
        cache.artifacts(6);
        cache.artifacts_with(6, SanitationConfig::disabled(), CountingMethod::Continuous);
        cache.artifacts_with(6, SanitationConfig::paper(), CountingMethod::Discrete);
        assert_eq!(cache.setting_builds(), 4);
        // Re-requesting any of them adds no builds.
        cache.artifacts(5);
        cache.artifacts_with(6, SanitationConfig::paper(), CountingMethod::Discrete);
        assert_eq!(cache.setting_builds(), 4);
    }

    #[test]
    fn kernel_cache_keys_on_kernel_config_only() {
        let world = EvalWorld::small(31);
        let cache = ScenarioCache::new(&world);
        let paper = MoLocConfig::paper();
        let k1 = cache.kernel(6, &paper);
        // k and the degenerate floor do not affect the kernel tables.
        let k2 = cache.kernel(6, &MoLocConfig { k: 2, ..paper });
        assert!(Arc::ptr_eq(&k1, &k2));
        assert_eq!(cache.kernel_builds(), 1);
        // A window change does.
        let k3 = cache.kernel(
            6,
            &MoLocConfig {
                alpha_deg: 45.0,
                ..paper
            },
        );
        assert!(!Arc::ptr_eq(&k1, &k3));
        assert_eq!(cache.kernel_builds(), 2);
        // The kernel request also warmed the setting cache.
        assert_eq!(cache.setting_builds(), 1);
    }

    #[test]
    fn epoch_keys_never_alias_and_memoize_per_epoch() {
        let world = EvalWorld::small(31);
        let cache = ScenarioCache::new(&world);
        let seed = cache.artifacts(6);
        // Epoch 1 artifacts are caller-built and distinct from the seed.
        let e1 = cache.artifacts_epoch(6, 1, || {
            let setting = world.setting(6);
            let index = FingerprintIndex::build(&setting.fdb);
            SettingArtifacts { setting, index }
        });
        assert!(!Arc::ptr_eq(&seed, &e1));
        assert_eq!(cache.setting_builds(), 2);
        // Same epoch again: served from cache, closure not invoked.
        let e1_again = cache.artifacts_epoch(6, 1, || unreachable!("memoized"));
        assert!(Arc::ptr_eq(&e1, &e1_again));
        // Epoch 0 shares the static entry.
        let e0 = cache.artifacts_epoch(6, 0, || unreachable!("seed already built"));
        assert!(Arc::ptr_eq(&seed, &e0));
        assert_eq!(cache.setting_builds(), 2);
    }

    #[test]
    fn concurrent_first_access_builds_once() {
        let world = EvalWorld::small(32);
        let cache = ScenarioCache::new(&world);
        let artifacts = par_run(8, |_| cache.artifacts(6));
        assert_eq!(cache.setting_builds(), 1);
        for a in &artifacts[1..] {
            assert!(Arc::ptr_eq(&artifacts[0], a));
        }
    }
}
