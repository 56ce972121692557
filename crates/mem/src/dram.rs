//! DRAM timing and *memory gating*.
//!
//! Memory gating is the deepest rung of the capping ladder: the memory
//! controller duty-cycles DRAM (fewer scheduling slots, slower exits from
//! power-down states), trading large latency multipliers for a few watts of
//! background power. The paper's Figure 4 shows its fingerprint — every
//! level of the memory mountain gets slower and noisier under the 120 W cap
//! — and SIRE/RSM's +2,583 % blow-up at 120 W is its end-to-end cost.
//!
//! Latency here is expressed in nanoseconds because DRAM timing does not
//! scale with core DVFS.

/// Discrete memory-gating levels, ordered from none to most aggressive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum MemGateLevel {
    #[default]
    Off,
    /// Light throttling: ~2× latency.
    Light,
    /// Medium: ~4× latency.
    Medium,
    /// Heavy: ~8× latency.
    Heavy,
    /// Severe: ~16× latency, the 120 W regime.
    Severe,
}

impl MemGateLevel {
    /// All levels, escalation order.
    pub const ALL: [MemGateLevel; 5] = [
        MemGateLevel::Off,
        MemGateLevel::Light,
        MemGateLevel::Medium,
        MemGateLevel::Heavy,
        MemGateLevel::Severe,
    ];

    /// Latency multiplier applied to every DRAM access.
    pub fn latency_mult(self) -> f64 {
        match self {
            MemGateLevel::Off => 1.0,
            MemGateLevel::Light => 2.0,
            MemGateLevel::Medium => 4.0,
            MemGateLevel::Heavy => 8.0,
            MemGateLevel::Severe => 16.0,
        }
    }

    /// Fraction of DRAM background power still consumed at this level.
    /// (Used by the power model; gating saves only a few watts — the
    /// paper's point that the deepest techniques buy little power for
    /// enormous slowdowns.)
    pub fn background_power_frac(self) -> f64 {
        match self {
            MemGateLevel::Off => 1.0,
            MemGateLevel::Light => 0.97,
            MemGateLevel::Medium => 0.93,
            MemGateLevel::Heavy => 0.88,
            MemGateLevel::Severe => 0.84,
        }
    }
}

/// The DRAM device model.
#[derive(Clone, Debug)]
pub struct DramModel {
    base_ns: f64,
    gate: MemGateLevel,
    reads: u64,
    writes: u64,
    /// Simple open-row tracking per bank for a mild locality bonus.
    open_rows: [u64; 16],
    row_hits: u64,
}

impl DramModel {
    pub fn new(base_ns: f64) -> Self {
        DramModel {
            base_ns,
            gate: MemGateLevel::Off,
            reads: 0,
            writes: 0,
            open_rows: [u64::MAX; 16],
            row_hits: 0,
        }
    }

    pub fn gate(&self) -> MemGateLevel {
        self.gate
    }

    pub fn set_gate(&mut self, g: MemGateLevel) {
        self.gate = g;
    }

    /// Access a physical line; returns the latency in nanoseconds.
    ///
    /// A 16-bank open-row model gives sequential streams a ~25 % discount
    /// (row-buffer hits), which is what lets streaming codes like SIRE/RSM
    /// sustain reasonable baseline bandwidth.
    #[inline]
    pub fn access(&mut self, line: u64, write: bool) -> f64 {
        if write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        // 2 KiB rows of 64 B lines: 32 lines per row; banks interleave rows.
        let row = line / 32;
        let bank = (row % 16) as usize;
        let row_hit = self.open_rows[bank] == row;
        self.open_rows[bank] = row;
        if row_hit {
            self.row_hits += 1;
        }
        let base = if row_hit { self.base_ns * 0.75 } else { self.base_ns };
        base * self.gate.latency_mult()
    }

    /// (reads, writes, row_hits) since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.reads, self.writes, self.row_hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_levels_monotonically_slower_and_lower_power() {
        let mut prev_lat = 0.0;
        let mut prev_pow = f64::MAX;
        for g in MemGateLevel::ALL {
            assert!(g.latency_mult() > prev_lat);
            assert!(g.background_power_frac() < prev_pow);
            prev_lat = g.latency_mult();
            prev_pow = g.background_power_frac();
        }
    }

    #[test]
    fn sequential_stream_gets_row_hits() {
        let mut d = DramModel::new(50.0);
        for line in 0..320u64 {
            d.access(line, false);
        }
        let (reads, _, hits) = d.stats();
        assert_eq!(reads, 320);
        // 10 rows touched, 31 hits each.
        assert!(hits >= 300);
    }

    #[test]
    fn random_stream_mostly_misses_rows() {
        let mut d = DramModel::new(50.0);
        let mut x = 12345u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            d.access(x >> 20, false);
        }
        let (_, _, hits) = d.stats();
        assert!(hits < 100);
    }

    #[test]
    fn severe_gating_multiplies_latency_16x() {
        let mut d = DramModel::new(50.0);
        let l0 = d.access(1_000_000, false);
        d.set_gate(MemGateLevel::Severe);
        let l1 = d.access(2_000_000, false);
        assert!((l1 / l0 - 16.0).abs() < 1e-9);
    }

    #[test]
    fn writes_are_counted_separately() {
        let mut d = DramModel::new(50.0);
        d.access(1, true);
        d.access(2, false);
        let (r, w, _) = d.stats();
        assert_eq!((r, w), (1, 1));
    }
}
