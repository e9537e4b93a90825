//! Bulk trace generation — the paper's 184-trace corpus.
//!
//! Sec. VI-A: four users, 184 traces covering every reference location
//! 30+ times; 150 traces train the motion database, 34 are held out for
//! localization. [`TraceCorpus::generate`] reproduces the protocol with
//! a single master seed.

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
    /// # Panics
    ///
    /// Panics if `users` is empty, `train_traces > total_traces`, or a
    /// generated walk is too short to form a trajectory (a disconnected
    /// graph).
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
        let mut traces = Vec::with_capacity(config.total_traces);
        for i in 0..config.total_traces {
            let user = &users[i % users.len()];
            let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, i as u64));
            let path = random_walk(graph, config.segments_per_trace, &mut rng);
            let trajectory = Trajectory::from_path(&path, grid, user)
                .expect("random walks on a connected graph have >= 2 nodes");
            traces.push(renderer.render(&trajectory, user, env, &mean_scans, &mut rng));
        }
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
