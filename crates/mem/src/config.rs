//! Geometry and latency configuration for the memory hierarchy.
//!
//! The defaults reproduce the paper's experimental platform (§III): an
//! Intel Sandy Bridge E5-2680 core with 32 KiB 8-way L1I/L1D, 256 KiB 8-way
//! unified L2, a 20 MiB 20-way shared L3, 64-byte lines everywhere, and
//! 4 KiB-page TLBs. Latencies are calibrated against the paper's Figure 3
//! stride microbenchmark: L1 ≈1.5 ns, L2 ≈3.5 ns, L3 ≈8.6 ns and
//! main-memory ≈60 ns at the nominal 2.7 GHz.

use crate::addr::LINE_BYTES;
use crate::replacement::ReplacementPolicy;

/// Geometry and latency of a single cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes (at full associativity, i.e. before any
    /// way gating).
    pub size_bytes: u64,
    /// Line size in bytes; the platform uses 64 B at every level.
    pub line_bytes: u64,
    /// Number of ways provisioned in silicon. Way gating can reduce the
    /// number of *active* ways at run time but never exceed this.
    pub ways: u32,
    /// Hit latency in **core cycles** (caches are clocked with the core, so
    /// their latency in nanoseconds scales with DVFS).
    pub hit_cycles: u32,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
}

impl CacheGeometry {
    /// Number of sets = size / (line * ways). Way gating does not change
    /// the set count; it only disables ways within each set.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways as u64)
    }

    /// Panics with a descriptive message if the geometry is degenerate.
    pub fn validate(&self) {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.ways >= 1, "cache needs at least one way");
        assert!(self.ways <= 64, "cache has {} ways; the way masks hold at most 64", self.ways);
        assert!(
            self.ways <= 32 || self.policy != ReplacementPolicy::TreePlru,
            "cache has {} tree-PLRU ways; the set's u32 word holds the nodes of at most 32",
            self.ways
        );
        assert!(
            self.size_bytes.is_multiple_of(self.line_bytes * self.ways as u64),
            "size must be a multiple of line*ways"
        );
        assert!(self.sets().is_power_of_two(), "set count must be a power of two");
    }
}

/// Geometry of a TLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbGeometry {
    /// Number of entries provisioned; runtime shrink can reduce the active
    /// count (the mechanism the paper infers behind the iTLB-miss blowup).
    pub entries: u32,
    /// Associativity. `entries % ways == 0` is required.
    pub ways: u32,
    /// Replacement policy within a set.
    pub policy: ReplacementPolicy,
}

impl TlbGeometry {
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }

    pub fn validate(&self) {
        assert!(self.ways >= 1 && self.entries >= self.ways);
        assert!(self.ways <= 64, "TLB has {} ways; the valid mask holds at most 64", self.ways);
        assert!(
            self.ways <= 32 || self.policy != ReplacementPolicy::TreePlru,
            "TLB has {} tree-PLRU ways; the set's u32 word holds the nodes of at most 32",
            self.ways
        );
        assert_eq!(self.entries % self.ways, 0, "entries must divide into ways");
        assert!(self.sets().is_power_of_two(), "TLB set count must be a power of two");
    }
}

/// Full hierarchy configuration: per-core private levels, the shared L3,
/// DRAM timing and the page walker.
#[derive(Clone, Copy, Debug)]
pub struct HierarchyConfig {
    pub l1i: CacheGeometry,
    pub l1d: CacheGeometry,
    pub l2: CacheGeometry,
    pub l3: CacheGeometry,
    pub itlb: TlbGeometry,
    pub dtlb: TlbGeometry,
    /// Optional unified second-level TLB (Sandy Bridge ships a 512-entry
    /// 4-way STLB). `None` by default: the study's Table II calibration
    /// was performed without it, and the first-level TLBs alone already
    /// reproduce the paper's DTLB/ITLB signatures. Enable via
    /// [`HierarchyConfig::with_stlb`] for fidelity experiments.
    pub stlb: Option<TlbGeometry>,
    /// Extra core cycles for an STLB hit (beyond the L1 TLB lookup).
    pub stlb_hit_cycles: u32,
    /// DRAM access latency in **nanoseconds** (does not scale with DVFS).
    pub dram_ns: f64,
    /// Additional cycles charged per page-walk step that hits in the cache
    /// hierarchy (the walker itself issues physical reads that are charged
    /// through L2/L3).
    pub walk_levels: u32,
    /// Enable the L2 next-line prefetcher.
    pub l2_prefetch: bool,
    /// Seed for the replacement/eviction xorshift streams.
    pub seed: u64,
}

impl HierarchyConfig {
    /// The paper's platform: Sandy Bridge E5-2680 (§III), Figure-3
    /// calibrated latencies.
    pub fn e5_2680() -> Self {
        HierarchyConfig {
            l1i: CacheGeometry {
                size_bytes: 32 * 1024,
                line_bytes: LINE_BYTES,
                ways: 8,
                hit_cycles: 4,
                policy: ReplacementPolicy::TreePlru,
            },
            l1d: CacheGeometry {
                size_bytes: 32 * 1024,
                line_bytes: LINE_BYTES,
                ways: 8,
                hit_cycles: 4,
                policy: ReplacementPolicy::TreePlru,
            },
            // Latencies are additive along the miss path: an L2 hit costs
            // L1 + L2 cycles, an L3 hit L1 + L2 + L3. The sums reproduce
            // the paper's Figure 3: 4 cyc ≈ 1.5 ns (L1), 10 cyc ≈ 3.7 ns
            // (L2), 23 cyc ≈ 8.5 ns (L3), +51 ns DRAM ≈ 60 ns memory.
            l2: CacheGeometry {
                size_bytes: 256 * 1024,
                line_bytes: LINE_BYTES,
                ways: 8,
                hit_cycles: 6,
                policy: ReplacementPolicy::TreePlru,
            },
            l3: CacheGeometry {
                size_bytes: 20 * 1024 * 1024,
                line_bytes: LINE_BYTES,
                ways: 20,
                hit_cycles: 13,
                policy: ReplacementPolicy::Lru,
            },
            itlb: TlbGeometry { entries: 128, ways: 4, policy: ReplacementPolicy::Lru },
            dtlb: TlbGeometry { entries: 64, ways: 4, policy: ReplacementPolicy::Lru },
            stlb: None,
            stlb_hit_cycles: 7,
            dram_ns: 51.0,
            walk_levels: 4,
            l2_prefetch: true,
            seed: 0x5eed_cafe,
        }
    }

    /// A shrunken hierarchy for fast unit tests: same shape, tiny sizes.
    pub fn tiny() -> Self {
        let mut c = Self::e5_2680();
        c.l1i.size_bytes = 1024;
        c.l1d.size_bytes = 1024;
        c.l2.size_bytes = 4096;
        c.l3.size_bytes = 16 * 1024;
        c.l3.ways = 16;
        c.itlb.entries = 8;
        c.dtlb.entries = 8;
        c
    }

    /// Enable the Sandy Bridge 512-entry 4-way unified STLB.
    pub fn with_stlb(mut self) -> Self {
        self.stlb = Some(TlbGeometry { entries: 512, ways: 4, policy: ReplacementPolicy::Lru });
        self
    }

    pub fn validate(&self) {
        self.l1i.validate();
        self.l1d.validate();
        self.l2.validate();
        self.l3.validate();
        self.itlb.validate();
        self.dtlb.validate();
        if let Some(stlb) = &self.stlb {
            stlb.validate();
        }
        assert!(self.dram_ns > 0.0);
        assert!(
            self.walk_levels >= 1 && self.walk_levels <= crate::paging::MAX_WALK_LEVELS,
            "walk_levels must be within 1..={}",
            crate::paging::MAX_WALK_LEVELS
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_2680_matches_published_geometry() {
        let c = HierarchyConfig::e5_2680();
        c.validate();
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.l3.sets(), 16384);
        assert_eq!(c.l1d.ways, 8);
        assert_eq!(c.l3.ways, 20);
        assert_eq!(c.itlb.entries, 128);
    }

    #[test]
    fn tiny_config_is_valid() {
        HierarchyConfig::tiny().validate();
    }

    #[test]
    fn figure3_latency_anchors_hold_at_nominal_frequency() {
        // At 2.7 GHz one cycle is ~0.37 ns. The paper's Figure 3 reports
        // L1 ≈ 1.5 ns, L2 ≈ 3.5 ns, L3 ≈ 8.6 ns, memory ≈ 60 ns.
        // Latencies accumulate along the miss path.
        let c = HierarchyConfig::e5_2680();
        let ns = |cyc: u32| cyc as f64 / 2.7;
        let l1 = c.l1d.hit_cycles;
        let l2 = l1 + c.l2.hit_cycles;
        let l3 = l2 + c.l3.hit_cycles;
        assert!((ns(l1) - 1.5).abs() < 0.2);
        assert!((ns(l2) - 3.5).abs() < 0.5);
        assert!((ns(l3) - 8.6).abs() < 0.6);
        assert!((ns(l3) + c.dram_ns - 60.0).abs() < 3.0);
    }

    #[test]
    #[should_panic(expected = "cache has 128 ways; the way masks hold at most 64")]
    fn a_cache_wider_than_64_ways_is_rejected() {
        let g = CacheGeometry {
            size_bytes: 128 * 64,
            line_bytes: 64,
            ways: 128,
            hit_cycles: 4,
            policy: ReplacementPolicy::Lru,
        };
        g.validate();
    }

    #[test]
    #[should_panic(expected = "TLB has 128 ways; the valid mask holds at most 64")]
    fn a_tlb_wider_than_64_ways_is_rejected() {
        let g = TlbGeometry { entries: 128, ways: 128, policy: ReplacementPolicy::Lru };
        g.validate();
    }

    #[test]
    #[should_panic(
        expected = "cache has 33 tree-PLRU ways; the set's u32 word holds the nodes of at most 32"
    )]
    fn a_tree_plru_cache_wider_than_32_ways_is_rejected() {
        let g = CacheGeometry {
            size_bytes: 33 * 64,
            line_bytes: 64,
            ways: 33,
            hit_cycles: 4,
            policy: ReplacementPolicy::TreePlru,
        };
        g.validate();
    }

    #[test]
    #[should_panic(
        expected = "TLB has 33 tree-PLRU ways; the set's u32 word holds the nodes of at most 32"
    )]
    fn a_tree_plru_tlb_wider_than_32_ways_is_rejected() {
        let g = TlbGeometry { entries: 33, ways: 33, policy: ReplacementPolicy::TreePlru };
        g.validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn degenerate_geometry_is_rejected() {
        let mut g = HierarchyConfig::e5_2680().l1d;
        g.size_bytes = 3 * 1024; // 6 sets: not a power of two
        g.validate();
    }
}
