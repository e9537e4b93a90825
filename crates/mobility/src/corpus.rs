//! Bulk trace generation — the paper's 184-trace corpus.
//!
//! Sec. VI-A: four users, 184 traces covering every reference location
//! 30+ times; 150 traces train the motion database, 34 are held out for
//! localization. [`TraceCorpus::generate`] reproduces the protocol with
//! a single master seed, rendering the traces on the worker pool of
//! `moloc-runtime`.

use crate::render::{SensorTrace, TraceRenderer};
use crate::trajectory::Trajectory;
use crate::user::UserProfile;
use crate::walk::random_walk;
use moloc_geometry::{ReferenceGrid, WalkGraph};
use moloc_radio::RadioEnvironment;
use moloc_stats::sampling::derive_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Corpus generation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusConfig {
    /// Total traces (paper: 184).
    pub total_traces: usize,
    /// Traces assigned to motion-database training (paper: 150).
    pub train_traces: usize,
    /// Aisle segments walked per trace.
    pub segments_per_trace: usize,
    /// Master seed; every trace derives its own stream.
    pub seed: u64,
}

impl CorpusConfig {
    /// The paper's corpus shape with a practical per-trace length.
    pub fn paper(seed: u64) -> Self {
        Self {
            total_traces: 184,
            train_traces: 150,
            segments_per_trace: 20,
            seed,
        }
    }

    /// A small corpus for fast tests: large enough that the motion
    /// database covers most aisles, small enough to build in
    /// milliseconds.
    pub fn small(seed: u64) -> Self {
        Self {
            total_traces: 90,
            train_traces: 75,
            segments_per_trace: 14,
            seed,
        }
    }
}

/// The generated trace corpus, split into train and test sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceCorpus {
    /// Motion-database training traces.
    pub train: Vec<SensorTrace>,
    /// Held-out localization traces.
    pub test: Vec<SensorTrace>,
}

impl TraceCorpus {
    /// Generates the corpus: traces round-robin across `users`, each an
    /// independent seeded random walk rendered against `env`.
    ///
    /// Trace `i` draws everything from its own stream,
    /// `derive_seed(config.seed, i)`, in two phases. On the calling
    /// thread, in trace order, each stream draws its walk, and the trace
    /// gets a [`TraceRenderer::shell`] holding every buffer it keeps.
    /// Then the traces are rendered on the `moloc-runtime` pool, each
    /// continuing its own stream into its own shell. The corpus is
    /// therefore the same at every pool width and shard size, and pool
    /// workers allocate none of it. With one worker the traces render
    /// inline, in order.
    ///
    /// # Panics
    ///
    /// Panics if `users` is empty, `train_traces > total_traces`, or a
    /// generated walk is too short to form a trajectory (a disconnected
    /// graph). A panic while rendering is rethrown on the calling thread
    /// once the pool has drained the job.
    pub fn generate(
        env: &RadioEnvironment,
        grid: &ReferenceGrid,
        graph: &WalkGraph,
        users: &[UserProfile],
        config: CorpusConfig,
    ) -> Self {
        assert!(!users.is_empty(), "corpus needs at least one user");
        assert!(
            config.train_traces <= config.total_traces,
            "train split exceeds total traces"
        );
        let renderer = TraceRenderer::default();
        let mean_scans = env.mean_scans(grid);
        let ap_count = env.aps().len();
        let user = |i: usize| &users[i % users.len()];
        let jobs: Vec<Mutex<RenderJob>> = (0..config.total_traces)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, i as u64));
                let path = random_walk(graph, config.segments_per_trace, &mut rng);
                let trajectory = Trajectory::from_path(&path, grid, user(i))
                    .expect("random walks on a connected graph have >= 2 nodes");
                let trace = renderer.shell(&trajectory, user(i), ap_count);
                Mutex::new(RenderJob {
                    trajectory,
                    rng,
                    trace,
                })
            })
            .collect();
        moloc_runtime::par_run(jobs.len(), |i| {
            let mut job = jobs[i].lock().expect("each trace is rendered by one item");
            let RenderJob {
                trajectory,
                rng,
                trace,
            } = &mut *job;
            renderer.render_into(trajectory, user(i), env, &mean_scans, rng, trace);
        });
        let mut traces: Vec<SensorTrace> = jobs
            .into_iter()
            .map(|job| {
                job.into_inner()
                    .expect("a render that panicked was rethrown by par_run")
                    .trace
            })
            .collect();
        let test = traces.split_off(config.train_traces);
        Self {
            train: traces,
            test,
        }
    }

    /// Total traces across both splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.train.is_empty() && self.test.is_empty()
    }

    /// Iterates all traces (train then test).
    pub fn iter(&self) -> impl Iterator<Item = &SensorTrace> {
        self.train.iter().chain(self.test.iter())
    }
}

/// One trace between the two phases of [`TraceCorpus::generate`]: its
/// walk, its stream after the walk, and the shell it renders into.
struct RenderJob {
    trajectory: Trajectory,
    rng: StdRng,
    trace: SensorTrace,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::paper_users;
    use moloc_geometry::polygon::Aabb;
    use moloc_geometry::{FloorPlan, Vec2};
    use moloc_radio::ap::AccessPoint;
    use std::collections::HashMap;

    fn world() -> (RadioEnvironment, ReferenceGrid, WalkGraph) {
        let plan = FloorPlan::new(Aabb::new(Vec2::ZERO, Vec2::new(20.0, 10.0)).unwrap());
        let env = RadioEnvironment::builder(plan.clone())
            .ap(AccessPoint::new(0, Vec2::new(10.0, 5.0), -20.0))
            .build()
            .unwrap();
        let grid = ReferenceGrid::new(Vec2::new(2.0, 8.0), 4, 2, 4.0, 4.0).unwrap();
        let graph = WalkGraph::from_grid(&grid, &plan);
        (env, grid, graph)
    }

    #[test]
    fn split_sizes_match_config() {
        let (env, grid, graph) = world();
        let corpus =
            TraceCorpus::generate(&env, &grid, &graph, &paper_users(), CorpusConfig::small(1));
        assert_eq!(corpus.train.len(), 75);
        assert_eq!(corpus.test.len(), 15);
        assert_eq!(corpus.len(), 90);
        assert!(!corpus.is_empty());
    }

    #[test]
    fn users_rotate_round_robin() {
        let (env, grid, graph) = world();
        let corpus =
            TraceCorpus::generate(&env, &grid, &graph, &paper_users(), CorpusConfig::small(1));
        let ids: Vec<u32> = corpus.iter().map(|t| t.user.id).collect();
        assert_eq!(&ids[..4], &[1, 2, 3, 4]);
        assert_eq!(ids[4], 1);
    }

    #[test]
    fn traces_have_expected_pass_counts() {
        let (env, grid, graph) = world();
        let corpus =
            TraceCorpus::generate(&env, &grid, &graph, &paper_users(), CorpusConfig::small(2));
        for t in corpus.iter() {
            assert_eq!(t.pass_count(), 15); // segments + 1
        }
    }

    #[test]
    fn corpus_covers_all_locations() {
        let (env, grid, graph) = world();
        let config = CorpusConfig {
            total_traces: 30,
            train_traces: 24,
            segments_per_trace: 20,
            seed: 3,
        };
        let corpus = TraceCorpus::generate(&env, &grid, &graph, &paper_users(), config);
        let mut visits: HashMap<u32, usize> = HashMap::new();
        for t in corpus.iter() {
            for p in &t.passes {
                *visits.entry(p.location.get()).or_default() += 1;
            }
        }
        for id in grid.ids() {
            assert!(
                visits.get(&id.get()).copied().unwrap_or(0) > 0,
                "{id} never visited"
            );
        }
    }

    #[test]
    fn generation_is_reproducible() {
        let (env, grid, graph) = world();
        let a = TraceCorpus::generate(&env, &grid, &graph, &paper_users(), CorpusConfig::small(5));
        let b = TraceCorpus::generate(&env, &grid, &graph, &paper_users(), CorpusConfig::small(5));
        assert_eq!(a, b);
    }

    /// The message `generate` panics with at pool width `width`.
    fn panic_message_at_width(width: usize, graph: &WalkGraph, users: &[UserProfile]) -> String {
        let (env, grid, _) = world();
        moloc_runtime::set_worker_override(Some(width));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            TraceCorpus::generate(&env, &grid, graph, users, CorpusConfig::small(4))
        }));
        moloc_runtime::set_worker_override(None);
        let payload = result.expect_err("generation must panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("string panic payload")
    }

    #[test]
    fn panics_surface_alike_at_every_width_and_the_pool_survives() {
        // A walk that starts on an isolated node is too short to time.
        let (_, grid, full) = world();
        let isolated = grid.ids().last().unwrap();
        let mut graph = WalkGraph::with_nodes(full.node_count());
        for (a, b, length) in full.edges() {
            if a != isolated && b != isolated {
                graph.add_edge(a, b, length);
            }
        }
        // A profile that fails validation panics while rendering, which
        // at width 2 happens on the pool.
        let mut invalid = paper_users();
        invalid.iter_mut().for_each(|u| u.weight_kg = 0.0);
        for (graph, users, expected) in [
            (
                &graph,
                paper_users(),
                "random walks on a connected graph have >= 2 nodes",
            ),
            (&full, invalid, "weight must be positive"),
        ] {
            let [serial, pooled] = [1, 2].map(|width| panic_message_at_width(width, graph, &users));
            assert!(serial.contains(expected), "{serial}");
            assert_eq!(pooled, serial);
            let doubled = moloc_runtime::par_run(64, |i| i * 2);
            assert_eq!(doubled, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "train split")]
    fn oversized_train_split_panics() {
        let (env, grid, graph) = world();
        let config = CorpusConfig {
            total_traces: 5,
            train_traces: 6,
            segments_per_trace: 4,
            seed: 0,
        };
        let _ = TraceCorpus::generate(&env, &grid, &graph, &paper_users(), config);
    }
}
