//! Tabular-RL capping backend (after Raj et al., "A Reinforcement
//! Learning Approach for Performance-aware Reduction in Power Consumption
//! of Data Center Compute Nodes").
//!
//! A Q-table over quantized counter state (power-vs-cap error, rung band,
//! busy fraction) maps each control period to one of five rung actions.
//! Safety is structural, not learned: while the node is over its cap the
//! action set is *masked* to non-decreasing rungs, so even a zeroed table
//! converges under the cap like the ladder does — training only shapes
//! how much performance is preserved on the way.
//!
//! Everything is deterministic. Exploration draws from a [`splitmix64`]
//! stream seeded through [`CapPolicy::reseed`], so the same seed replays
//! the same episode byte-for-byte; the trainer (in `capsim-dcm`) asserts
//! same seed → same Q-table → same frontier point.

use crate::{CapDecision, CapPolicy, NodeCapView};

/// Power-error buckets × rung bands × busy buckets.
pub const STATES: usize = 7 * 6 * 4;
/// Up2, Up1, Hold, Down1, Down2.
pub const ACTIONS: usize = 5;

const UP2: usize = 0;
const UP1: usize = 1;
const HOLD: usize = 2;
const DOWN1: usize = 3;
const DOWN2: usize = 4;

/// Over the cap only non-decreasing rungs are legal (the safety mask).
const OVER_CAP_ACTIONS: [usize; 3] = [UP1, UP2, HOLD];
/// Under the cap everything is legal; ties prefer stability (hold), then
/// release, then escalation.
const UNDER_CAP_ACTIONS: [usize; 5] = [HOLD, DOWN1, DOWN2, UP1, UP2];

/// SplitMix64 finalizer: the workspace-standard seed-derivation scheme
/// (bit-identical to `capsim_ipmi::splitmix64`, duplicated so this crate
/// stays dependency-free).
pub fn splitmix64(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The learned value table: `STATES × ACTIONS` action values.
#[derive(Clone, Debug, PartialEq)]
pub struct QTable {
    q: Vec<f64>,
}

impl QTable {
    pub fn zeroed() -> Self {
        QTable { q: vec![0.0; STATES * ACTIONS] }
    }

    pub fn get(&self, state: usize, action: usize) -> f64 {
        self.q[state * ACTIONS + action]
    }

    fn set(&mut self, state: usize, action: usize, v: f64) {
        self.q[state * ACTIONS + action] = v;
    }

    /// Best legal action value in `state` (the TD target's max term).
    fn best_value(&self, state: usize, allowed: &[usize]) -> f64 {
        allowed.iter().map(|&a| self.get(state, a)).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Greedy argmax over `allowed`, scanned in preference order so ties
    /// resolve deterministically (and sensibly: the first entry wins).
    fn best_action(&self, state: usize, allowed: &[usize]) -> usize {
        let mut best = allowed[0];
        let mut best_v = self.get(state, best);
        for &a in &allowed[1..] {
            let v = self.get(state, a);
            if v > best_v {
                best = a;
                best_v = v;
            }
        }
        best
    }

    /// Order-sensitive digest of the exact table bytes. Two tables share
    /// a digest iff training was replayed bit-identically.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in &self.q {
            h ^= v.to_bits();
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// How many entries training has moved off zero.
    pub fn touched(&self) -> usize {
        self.q.iter().filter(|v| **v != 0.0).count()
    }

    /// Element-wise mean of several tables — the federated-averaging
    /// step of offline training (each node learns on its own trace; the
    /// episode's tables merge into one). Panics on an empty slice.
    pub fn average(tables: &[&QTable]) -> QTable {
        assert!(!tables.is_empty(), "averaging needs at least one table");
        let mut q = vec![0.0; STATES * ACTIONS];
        for t in tables {
            for (acc, v) in q.iter_mut().zip(&t.q) {
                *acc += v;
            }
        }
        let n = tables.len() as f64;
        for acc in &mut q {
            *acc /= n;
        }
        QTable { q }
    }
}

/// Learning and exploration tunables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RlConfig {
    /// Learning rate α.
    pub alpha: f64,
    /// Discount γ.
    pub gamma: f64,
    /// Exploration rate in per-mille (0 = pure greedy).
    pub epsilon_milli: u32,
    /// Over-cap penalty weight λ in the shaped reward.
    pub over_cap_lambda: f64,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig { alpha: 0.2, gamma: 0.9, epsilon_milli: 100, over_cap_lambda: 25.0 }
    }
}

/// The tabular-RL backend.
///
/// In learning mode every decision also applies one Q-update for the
/// previous (state, action) pair using the shaped per-period reward; in
/// frozen mode ([`RlCapPolicy::frozen`]) the table is read-only and
/// actions are pure greedy — the deployable artifact.
#[derive(Clone, Debug)]
pub struct RlCapPolicy {
    q: QTable,
    cfg: RlConfig,
    learning: bool,
    rng: u64,
    last: Option<(usize, usize)>,
    updates: u64,
    explorations: u64,
}

impl RlCapPolicy {
    /// A frozen (greedy, non-learning) policy over a trained table.
    pub fn frozen(q: QTable) -> Self {
        RlCapPolicy {
            q,
            cfg: RlConfig { epsilon_milli: 0, ..RlConfig::default() },
            learning: false,
            rng: 0,
            last: None,
            updates: 0,
            explorations: 0,
        }
    }

    /// A learner continuing from `q` (zeroed for episode one).
    pub fn learner(q: QTable, cfg: RlConfig) -> Self {
        RlCapPolicy { q, cfg, learning: true, rng: 0, last: None, updates: 0, explorations: 0 }
    }

    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    /// (Q-updates applied, exploratory actions taken).
    pub fn learn_stats(&self) -> (u64, u64) {
        (self.updates, self.explorations)
    }

    /// Quantize a control-period view into a table state.
    pub fn quantize(v: &NodeCapView) -> usize {
        let e = (v.window_avg_w - v.cap_w) / v.cap_w.max(1.0);
        let err_b = if e > 0.15 {
            6
        } else if e > 0.05 {
            5
        } else if e > 0.0 {
            4
        } else if e > -0.01 {
            3
        } else if e > -0.05 {
            2
        } else if e > -0.15 {
            1
        } else {
            0
        };
        let band = (v.rung * 6) / (v.deepest + 1).max(1);
        let busy_b = ((v.busy_frac * 4.0) as usize).min(3);
        (err_b * 6 + band.min(5)) * 4 + busy_b
    }

    /// Legal actions for a view: over the cap, rungs may not decrease.
    fn allowed(v: &NodeCapView) -> &'static [usize] {
        if v.window_avg_w > v.cap_w {
            &OVER_CAP_ACTIONS
        } else {
            &UNDER_CAP_ACTIONS
        }
    }

    /// Shaped per-period reward for *arriving* in `v`: preserve speed
    /// while busy, be throttled while idle (energy proportionality), and
    /// pay λ-weighted for sitting over the cap. These are the same
    /// signals capsim-obs records per node (`machine.window_w`,
    /// `bmc.escalations`, rung-change events) — the trainer additionally
    /// scores whole episodes from the fleet's obs metrics.
    fn reward(&self, v: &NodeCapView) -> f64 {
        let depth = v.rung as f64 / v.deepest.max(1) as f64;
        let perf = (1.0 - depth) * v.busy_frac;
        let proportional = 0.2 * depth * (1.0 - v.busy_frac);
        let over = ((v.window_avg_w - v.cap_w) / v.cap_w.max(1.0)).max(0.0);
        perf + proportional - self.cfg.over_cap_lambda * over
    }

    fn next_rand(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.rng, 0x5eed)
    }

    fn decision(action: usize, v: &NodeCapView) -> CapDecision {
        match action {
            UP2 => CapDecision::SetRung((v.rung + 2).min(v.deepest)),
            UP1 => CapDecision::Escalate,
            HOLD => CapDecision::Hold,
            DOWN1 => CapDecision::Deescalate,
            _ => CapDecision::SetRung(v.rung.saturating_sub(2)),
        }
    }
}

impl CapPolicy for RlCapPolicy {
    fn name(&self) -> &'static str {
        "rl"
    }

    fn node_decide(&mut self, v: &NodeCapView) -> CapDecision {
        let state = Self::quantize(v);
        let allowed = Self::allowed(v);
        if self.learning {
            if let Some((ps, pa)) = self.last {
                let r = self.reward(v);
                let target = r + self.cfg.gamma * self.q.best_value(state, allowed);
                let old = self.q.get(ps, pa);
                self.q.set(ps, pa, old + self.cfg.alpha * (target - old));
                self.updates += 1;
            }
        }
        let explore = self.learning
            && self.cfg.epsilon_milli > 0
            && self.next_rand() % 1000 < self.cfg.epsilon_milli as u64;
        let action = if explore {
            self.explorations += 1;
            allowed[(self.next_rand() % allowed.len() as u64) as usize]
        } else {
            self.q.best_action(state, allowed)
        };
        self.last = Some((state, action));
        Self::decision(action, v)
    }

    // group_allocate: the trait's proportional default. The learned half
    // is node-local; the group split stays the partition-invariant
    // proportional closed form.

    // node_quiescent: default `false`. A learner mutates its table every
    // period and even a frozen greedy policy may jump at rung 0, so the
    // machine must not fast-forward idle spans.

    fn reseed(&mut self, seed: u64) {
        self.rng = seed;
    }

    fn clone_box(&self) -> Box<dyn CapPolicy> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(rung: usize, avg: f64, cap: f64, busy: f64) -> NodeCapView {
        NodeCapView {
            cap_w: cap,
            window_avg_w: avg,
            hysteresis_w: 1.0,
            rung,
            deepest: 29,
            busy_frac: busy,
            issue_frac: busy,
            now_ms: 0.0,
            tail_ms: 0.0,
        }
    }

    #[test]
    fn over_cap_masking_forbids_release() {
        // Even a zeroed table escalates while over the cap: the mask
        // leaves only {up, hold}, and ties prefer Up1 — ladder-like.
        let mut p = RlCapPolicy::frozen(QTable::zeroed());
        assert_eq!(p.node_decide(&view(3, 150.0, 130.0, 1.0)), CapDecision::Escalate);
    }

    #[test]
    fn under_cap_zeroed_table_holds() {
        let mut p = RlCapPolicy::frozen(QTable::zeroed());
        assert_eq!(p.node_decide(&view(3, 100.0, 130.0, 1.0)), CapDecision::Hold);
    }

    #[test]
    fn learning_moves_the_table_deterministically() {
        let run = |seed: u64| {
            let mut p = RlCapPolicy::learner(QTable::zeroed(), RlConfig::default());
            p.reseed(seed);
            for i in 0..200 {
                let avg = if i % 3 == 0 { 150.0 } else { 120.0 };
                p.node_decide(&view((i % 8) as usize, avg, 130.0, 0.7));
            }
            (p.q_table().clone(), p.learn_stats())
        };
        let (qa, sa) = run(7);
        let (qb, sb) = run(7);
        assert_eq!(qa.digest(), qb.digest());
        assert_eq!(qa, qb);
        assert_eq!(sa, sb);
        assert!(qa.touched() > 0, "200 periods must leave a learning trace");
        let (qc, _) = run(8);
        assert_ne!(qa.digest(), qc.digest(), "different exploration seed, different table");
    }

    #[test]
    fn quantize_stays_in_table_bounds() {
        for rung in [0usize, 1, 14, 29] {
            for avg in [0.0, 50.0, 129.9, 130.0, 140.0, 500.0] {
                for busy in [0.0, 0.3, 0.99, 1.0] {
                    let s = RlCapPolicy::quantize(&view(rung, avg, 130.0, busy));
                    assert!(s < STATES, "state {s} out of bounds");
                }
            }
        }
    }

    #[test]
    fn frozen_policies_never_update() {
        let mut p = RlCapPolicy::frozen(QTable::zeroed());
        for _ in 0..50 {
            p.node_decide(&view(5, 150.0, 130.0, 1.0));
        }
        assert_eq!(p.learn_stats(), (0, 0));
        assert_eq!(p.q_table().touched(), 0);
    }
}
