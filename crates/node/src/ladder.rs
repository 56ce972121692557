//! The throttle ladder: the totally ordered escalation sequence the BMC
//! walks to honour a power cap.
//!
//! Rung 0 is the unthrottled machine. Rungs 1–15 step down the P-state
//! table — plain DVFS, the primary mechanism (§II-B). Once DVFS is
//! exhausted at P-min, the deeper rungs engage the techniques the paper
//! infers from its counter data:
//!
//! * **T-state duty cycling** — wall-clock time stretches while the
//!   APERF-style frequency reading stays pinned at 1200 MHz (Table II rows
//!   A7–A9/B7–B9),
//! * **dynamic cache reconfiguration** (way gating) — Stereo Matching's
//!   L2/L3 misses explode at 125/120 W while streaming SIRE/RSM's stay
//!   flat,
//! * **ITLB shrink** — both applications' ITLB misses blow up by 60–85×,
//! * **memory gating** — every level of the Figure-4 memory mountain gets
//!   slower, and memory-bound SIRE/RSM collapses at 120 W.
//!
//! Each deeper rung buys a few hundred milliwatts to a few watts for a
//! disproportionate performance cost — the paper's conclusion (3) that the
//! low-cap techniques "provided small decreases in power consumption at
//! the cost of high losses in execution time performance".

use std::sync::Arc;

use capsim_cpu::{PStateTable, TState};
use capsim_mem::{MemGateLevel, MemReconfig};

/// One rung: a complete machine throttle setting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Index into the P-state table.
    pub pstate: u8,
    /// Clock-modulation duty.
    pub tstate: TState,
    /// Memory-side configuration.
    pub mem: MemReconfig,
}

impl Rung {
    /// The unthrottled rung.
    pub fn full(full_mem: MemReconfig) -> Self {
        Rung { pstate: 0, tstate: TState::FULL, mem: full_mem }
    }
}

/// The ordered ladder.
///
/// Immutable once built and held behind an `Arc`, so clones share one
/// allocation: the fleet builds the ladder once and hands every node a
/// clone.
#[derive(Clone, Debug)]
pub struct ThrottleLadder {
    rungs: Arc<[Rung]>,
}

impl ThrottleLadder {
    /// Build the ladder for the paper's platform.
    ///
    /// `full_mem` describes the un-gated hierarchy (taken from the machine
    /// config so geometry changes propagate).
    pub fn e5_2680(pstates: &PStateTable, full_mem: MemReconfig) -> Self {
        let mut rungs = Vec::with_capacity(32);
        // DVFS region: P0 … P15.
        for p in 0..pstates.len() as u8 {
            rungs.push(Rung { pstate: p, tstate: TState::FULL, mem: full_mem });
        }
        let pmin = (pstates.len() - 1) as u8;
        // Beyond DVFS: interleave duty steps with memory-side gating.
        // The specific floors encode the paper's counter signatures: L1
        // and DTLB are barely touched (their misses stay within a few
        // percent in Table II), L2/L3 way gating and ITLB shrink go deep
        // (the 125/120 W blow-ups), and memory gating tops out at Heavy.
        // (duty/16, l1d, l1i, l2, l3 ways, itlb, dtlb, memgate)
        type DeepRung = (u8, u32, u32, u32, u32, u32, u32, MemGateLevel);
        let deep: [DeepRung; 14] = [
            (14, 8, 8, 8, 20, 128, 64, MemGateLevel::Off),
            (13, 8, 8, 8, 18, 96, 64, MemGateLevel::Off),
            (12, 8, 8, 8, 16, 96, 64, MemGateLevel::Off),
            (11, 8, 8, 6, 14, 64, 64, MemGateLevel::Off),
            (10, 8, 8, 6, 12, 64, 64, MemGateLevel::Light),
            (9, 8, 8, 6, 10, 64, 64, MemGateLevel::Light),
            (8, 8, 8, 4, 8, 64, 64, MemGateLevel::Light),
            (7, 8, 8, 4, 8, 64, 64, MemGateLevel::Light),
            (6, 8, 8, 4, 6, 32, 64, MemGateLevel::Medium),
            (5, 8, 8, 2, 6, 32, 64, MemGateLevel::Medium),
            (4, 8, 8, 2, 4, 32, 64, MemGateLevel::Medium),
            (3, 8, 8, 2, 4, 32, 64, MemGateLevel::Medium),
            (2, 8, 8, 2, 4, 32, 64, MemGateLevel::Heavy),
            (1, 8, 8, 2, 4, 32, 64, MemGateLevel::Heavy),
        ];
        for (duty, l1d, l1i, l2, l3, itlb, dtlb, gate) in deep {
            rungs.push(Rung {
                pstate: pmin,
                tstate: TState::of_16(duty),
                mem: MemReconfig {
                    l1d_ways: l1d.min(full_mem.l1d_ways),
                    l1i_ways: l1i.min(full_mem.l1i_ways),
                    l2_ways: l2.min(full_mem.l2_ways),
                    l3_ways: l3.min(full_mem.l3_ways),
                    itlb_entries: itlb.min(full_mem.itlb_entries),
                    dtlb_entries: dtlb.min(full_mem.dtlb_entries),
                    mem_gate: gate,
                },
            });
        }
        ThrottleLadder { rungs: rungs.into() }
    }

    /// A DVFS-only ladder (used by the X1 ablation: what would the paper's
    /// Table II look like if the firmware stopped at P-min?).
    pub fn dvfs_only(pstates: &PStateTable, full_mem: MemReconfig) -> Self {
        let rungs = (0..pstates.len() as u8)
            .map(|p| Rung { pstate: p, tstate: TState::FULL, mem: full_mem })
            .collect();
        ThrottleLadder { rungs }
    }

    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Rung at `index`, clamped to the deepest.
    pub fn get(&self, index: usize) -> Rung {
        self.rungs[index.min(self.rungs.len() - 1)]
    }

    /// Index of the deepest rung.
    pub fn deepest(&self) -> usize {
        self.rungs.len() - 1
    }

    pub fn iter(&self) -> impl Iterator<Item = &Rung> {
        self.rungs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> ThrottleLadder {
        ThrottleLadder::e5_2680(&PStateTable::e5_2680(), MemReconfig::full())
    }

    #[test]
    fn dvfs_rungs_come_first_and_do_not_touch_memory() {
        let l = ladder();
        for (i, r) in l.iter().take(16).enumerate() {
            assert_eq!(r.pstate, i as u8);
            assert_eq!(r.tstate, TState::FULL);
            assert!(r.mem.is_full(), "rung {i} must be pure DVFS");
        }
    }

    #[test]
    fn deep_rungs_stay_at_pmin() {
        let l = ladder();
        for r in l.iter().skip(16) {
            assert_eq!(r.pstate, 15, "frequency pinned at P-min beyond DVFS");
        }
    }

    #[test]
    fn duty_and_gating_escalate_monotonically() {
        let l = ladder();
        let deep: Vec<_> = l.iter().skip(16).collect();
        for w in deep.windows(2) {
            assert!(w[1].tstate.duty() <= w[0].tstate.duty());
            assert!(w[1].mem.gating_fraction() >= w[0].mem.gating_fraction());
            assert!(w[1].mem.mem_gate >= w[0].mem.mem_gate);
        }
    }

    #[test]
    fn deepest_rung_gates_hard_but_leaves_l1_and_dtlb_mostly_alone() {
        let l = ladder();
        let r = l.get(l.deepest());
        assert!(r.tstate.duty() <= 0.25, "deep duty cycling");
        assert_eq!(r.mem.mem_gate, MemGateLevel::Heavy);
        assert!(r.mem.l3_ways <= 4);
        assert!(r.mem.itlb_entries <= 32);
        // Table II shows L1 and DTLB misses nearly flat even at 120 W:
        // the firmware never gates those structures.
        assert_eq!(r.mem.l1d_ways, 8);
        assert_eq!(r.mem.dtlb_entries, 64);
    }

    #[test]
    fn get_clamps_beyond_the_end() {
        let l = ladder();
        assert_eq!(l.get(10_000), l.get(l.deepest()));
    }

    #[test]
    fn dvfs_only_ladder_has_16_rungs_all_full_memory() {
        let l = ThrottleLadder::dvfs_only(&PStateTable::e5_2680(), MemReconfig::full());
        assert_eq!(l.len(), 16);
        assert!(l.iter().all(|r| r.mem.is_full() && r.tstate == TState::FULL));
    }

    #[test]
    fn ladder_respects_smaller_provisioned_geometry() {
        let mut small = MemReconfig::full();
        small.l3_ways = 8;
        small.itlb_entries = 16;
        let l = ThrottleLadder::e5_2680(&PStateTable::e5_2680(), small);
        for r in l.iter() {
            assert!(r.mem.l3_ways <= 8);
            assert!(r.mem.itlb_entries <= 16);
        }
    }
}
