//! Offline tabular-RL training inside the deterministic fleet.
//!
//! The trainer runs a sequence of short fleet **episodes**. Every node's
//! BMC carries its own learning [`RlCapPolicy`] clone (reseeded from the
//! episode seed), so each node explores its own trace; at the episode
//! barrier the per-node Q-tables are harvested through
//! [`crate::Fleet::node_policy`] and merged by element-wise averaging — the
//! federated step. The merged table seeds the next episode, and the
//! best-scoring episode's table becomes the deployable artifact (frozen
//! greedy, no exploration).
//!
//! Everything downstream of [`RlTrainConfig::seed`] is deterministic: the
//! fleet engine is replayable by contract and the policy's exploration
//! stream derives from the per-node seeds, so the same config always
//! yields the same [`RlTrainReport::q_digest`] — asserted in tests and by
//! the policy bench.

use capsim_policy::{splitmix64, QTable, RlCapPolicy, RlConfig};

use crate::fleet::{FleetBuilder, FleetReport, LoadKind, WorkloadSpec};

/// Everything a training run depends on. Two equal configs train
/// byte-identical tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RlTrainConfig {
    /// Master seed; episode and per-node seeds all derive from it.
    pub seed: u64,
    /// Fleet episodes to run (each starts from the previous merge).
    pub episodes: u32,
    /// Nodes per training fleet.
    pub nodes: usize,
    /// Control epochs per episode.
    pub epochs: u32,
    /// Simulated seconds per epoch.
    pub epoch_s: f64,
    /// Group budget in watts — tight enough that capping engages.
    pub budget_w: f64,
    /// Uniform workload for every node; `None` keeps the fleet's default
    /// round-robin Compute/Stream/Mixed mix (more varied training data).
    pub load: Option<LoadKind>,
    /// Q-learning tunables for the per-node learners.
    pub rl: RlConfig,
}

impl RlTrainConfig {
    /// A small config that trains in seconds — enough episodes for the
    /// table to move, sized for tests and the bench's test scale.
    pub fn quick(seed: u64) -> Self {
        RlTrainConfig {
            seed,
            episodes: 4,
            nodes: 4,
            epochs: 6,
            epoch_s: 5e-4,
            budget_w: 220.0,
            load: None,
            rl: RlConfig::default(),
        }
    }
}

/// One episode's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct EpisodeScore {
    pub episode: u32,
    /// Mean per-node average frequency, discounted by SEL cap violations
    /// — the paper's performance-retention metric under a penalty for
    /// breaking the cap.
    pub score: f64,
    pub energy_j: f64,
    pub avg_freq_mhz: f64,
    pub sel_violations: usize,
    /// Q-updates applied across all nodes this episode.
    pub updates: u64,
    /// Exploration (non-greedy) actions taken across all nodes.
    pub explorations: u64,
}

/// The trained artifact plus the per-episode trace that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct RlTrainReport {
    /// The best-scoring episode's merged table.
    pub q: QTable,
    /// [`QTable::digest`] of `q` — equal digests mean bit-identical
    /// replays.
    pub q_digest: u64,
    /// Which episode won.
    pub best_episode: u32,
    pub episodes: Vec<EpisodeScore>,
    /// Totals across all episodes and nodes.
    pub updates: u64,
    pub explorations: u64,
}

impl RlTrainReport {
    /// The deployable policy: greedy over the trained table, no learning,
    /// no exploration.
    pub fn policy(&self) -> RlCapPolicy {
        RlCapPolicy::frozen(self.q.clone())
    }
}

fn score_episode(report: &FleetReport) -> (f64, f64, f64, usize) {
    let n = report.summaries.len().max(1) as f64;
    let freq = report.summaries.iter().map(|s| s.avg_freq_mhz).sum::<f64>() / n;
    let energy = report.summaries.iter().map(|s| s.energy_j).sum::<f64>();
    let violations: usize = report.summaries.iter().map(|s| s.sel_violations).sum();
    // Frequency retention is the objective; every SEL violation costs a
    // flat discount so a cap-breaking table can never out-score a
    // compliant one on throughput alone.
    let score = freq / (1.0 + violations as f64);
    (score, energy, freq, violations)
}

/// Train a Q-table offline inside the deterministic fleet and return the
/// best episode's merge. Same config, same report — byte for byte.
pub fn train_rl(cfg: &RlTrainConfig) -> RlTrainReport {
    assert!(cfg.episodes > 0, "training needs at least one episode");
    assert!(cfg.nodes > 0, "training needs at least one node");
    let mut q = QTable::zeroed();
    let mut episodes = Vec::with_capacity(cfg.episodes as usize);
    let mut best: Option<(f64, u32, QTable)> = None;
    let mut total_updates = 0u64;
    let mut total_explorations = 0u64;

    for e in 0..cfg.episodes {
        let mut b = FleetBuilder::new()
            .nodes(cfg.nodes)
            .epochs(cfg.epochs)
            .epoch_s(cfg.epoch_s)
            .budget_w(cfg.budget_w)
            .seed(splitmix64(cfg.seed, 0x5eed_0000 + u64::from(e)))
            .cap_policy(Box::new(RlCapPolicy::learner(q.clone(), cfg.rl)));
        if let Some(kind) = cfg.load {
            b = b.workload(WorkloadSpec::Uniform(kind));
        }
        let mut fleet = b.build();
        for _ in 0..cfg.epochs {
            fleet.step_epoch();
        }

        // Harvest the per-node learners in node order, then merge.
        let mut tables = Vec::with_capacity(cfg.nodes);
        let mut updates = 0u64;
        let mut explorations = 0u64;
        for i in 0..cfg.nodes {
            let learner = fleet
                .node_policy(i)
                .as_any()
                .downcast_ref::<RlCapPolicy>()
                .expect("training fleet installs RL learners on every node");
            tables.push(learner.q_table().clone());
            let (u, x) = learner.learn_stats();
            updates += u;
            explorations += x;
        }
        q = QTable::average(&tables.iter().collect::<Vec<_>>());
        total_updates += updates;
        total_explorations += explorations;

        let report = fleet.finish();
        let (score, energy_j, avg_freq_mhz, sel_violations) = score_episode(&report);
        if best.as_ref().is_none_or(|(b_score, _, _)| score > *b_score) {
            best = Some((score, e, q.clone()));
        }
        episodes.push(EpisodeScore {
            episode: e,
            score,
            energy_j,
            avg_freq_mhz,
            sel_violations,
            updates,
            explorations,
        });
    }

    let (_, best_episode, q) = best.expect("at least one episode ran");
    let q_digest = q.digest();
    RlTrainReport {
        q,
        q_digest,
        best_episode,
        episodes,
        updates: total_updates,
        explorations: total_explorations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_is_deterministic() {
        let cfg = RlTrainConfig::quick(7);
        let a = train_rl(&cfg);
        let b = train_rl(&cfg);
        assert_eq!(a.q_digest, b.q_digest);
        assert_eq!(a.q, b.q);
        assert_eq!(a.episodes, b.episodes);
    }

    #[test]
    fn training_moves_the_table() {
        let report = train_rl(&RlTrainConfig::quick(7));
        assert!(report.updates > 0, "learners never updated");
        assert!(report.q.touched() > 0, "table still all zeros");
        assert_eq!(report.episodes.len(), 4);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let a = train_rl(&RlTrainConfig::quick(7));
        let b = train_rl(&RlTrainConfig::quick(8));
        assert_ne!(a.q_digest, b.q_digest);
    }
}
