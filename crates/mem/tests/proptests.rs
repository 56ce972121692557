//! Property-based tests for the memory substrate's core invariants.

use proptest::prelude::*;

use capsim_mem::{
    AccessKind, CacheGeometry, HierarchyConfig, MemGateLevel, MemReconfig, MemoryHierarchy,
    PageTable, ReplacementPolicy, SetAssocCache, Tlb, TlbGeometry, VAddr,
};

fn small_geom(ways: u32, sets: u32, policy: ReplacementPolicy) -> CacheGeometry {
    CacheGeometry {
        size_bytes: 64 * ways as u64 * sets as u64,
        line_bytes: 64,
        ways,
        hit_cycles: 4,
        policy,
    }
}

proptest! {
    /// A line just accessed is always resident (until another access).
    #[test]
    fn cache_access_makes_line_resident(
        lines in proptest::collection::vec(0u64..10_000, 1..200),
        ways in 1u32..8,
        write_mask in any::<u64>(),
    ) {
        let mut c = SetAssocCache::new(small_geom(ways, 8, ReplacementPolicy::Lru), 1);
        for (i, &l) in lines.iter().enumerate() {
            let kind = if write_mask >> (i % 64) & 1 == 1 { AccessKind::Write } else { AccessKind::Read };
            c.access(l, kind);
            prop_assert!(c.probe(l), "line {l} must be resident right after access");
        }
    }

    /// Hits + misses == accesses, and a repeat pass over a small working
    /// set that fits never misses.
    #[test]
    fn cache_stats_are_consistent(lines in proptest::collection::vec(0u64..64, 1..64)) {
        let mut c = SetAssocCache::new(small_geom(8, 8, ReplacementPolicy::Lru), 2);
        for &l in &lines {
            c.access(l, AccessKind::Read);
        }
        let (acc, misses, _) = c.stats();
        prop_assert_eq!(acc, lines.len() as u64);
        prop_assert!(misses <= acc);
        // The 64-line working set fits the 64-line cache exactly.
        for &l in &lines {
            prop_assert!(c.probe(l));
        }
    }

    /// Way gating never loses correctness: after any gating sequence the
    /// cache still caches (access → probe).
    #[test]
    fn way_gating_sequences_preserve_functionality(
        gates in proptest::collection::vec(1u32..=8, 1..10),
        line in 0u64..1000,
    ) {
        let mut c = SetAssocCache::new(small_geom(8, 16, ReplacementPolicy::TreePlru), 3);
        for g in gates {
            c.set_active_ways(g);
            c.access(line, AccessKind::Read);
            prop_assert!(c.probe(line));
            prop_assert_eq!(c.active_ways(), g);
        }
    }

    /// Gated capacity is proportional to active ways.
    #[test]
    fn effective_capacity_scales_with_ways(ways in 1u32..=20) {
        let geom = HierarchyConfig::e5_2680().l3;
        let mut c = SetAssocCache::new(geom, 4);
        c.set_active_ways(ways);
        prop_assert_eq!(c.effective_bytes(), geom.sets() * 64 * ways.min(20) as u64);
    }

    /// TLB: an inserted translation is immediately visible and correct.
    #[test]
    fn tlb_insert_then_lookup(vpns in proptest::collection::vec(0u64..100_000, 1..100)) {
        let g = TlbGeometry { entries: 64, ways: 4, policy: ReplacementPolicy::Lru };
        let mut t = Tlb::new(g, 5);
        for &v in &vpns {
            if t.lookup(v).is_none() {
                t.insert(v, v * 7 + 1);
            }
            prop_assert_eq!(t.lookup(v), Some(v * 7 + 1));
        }
        let (lookups, misses) = t.stats();
        prop_assert!(misses <= lookups);
    }

    /// Page translation is a function (same VA → same PA) and preserves
    /// page offsets; distinct pages get distinct frames.
    #[test]
    fn page_table_functionality(addrs in proptest::collection::vec(0u64..(1u64 << 40), 1..200), salt in any::<u64>()) {
        let mut pt = PageTable::new(salt);
        let mut seen = std::collections::HashMap::new();
        for &a in &addrs {
            let va = VAddr(a);
            let pa = pt.translate(va);
            prop_assert_eq!(pa.0 & 0xfff, a & 0xfff, "offset preserved");
            prop_assert_eq!(pt.translate(va), pa, "stable");
            if let Some(&prev_ppn) = seen.get(&va.vpn()) {
                prop_assert_eq!(pa.ppn(), prev_ppn);
            } else {
                prop_assert!(
                    seen.values().all(|&p| p != pa.ppn()),
                    "no frame aliasing among sampled pages"
                );
                seen.insert(va.vpn(), pa.ppn());
            }
        }
    }

    /// Hierarchy-wide: latency is never negative, stats only grow, and a
    /// repeated access is never slower than a cold one at the same state.
    #[test]
    fn hierarchy_latency_and_stats_sane(
        addrs in proptest::collection::vec(0u64..(1u64 << 24), 1..100),
    ) {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny(), 1, 9);
        let mut prev_total = 0u64;
        for &a in &addrs {
            let va = VAddr(0x100_0000 + a);
            let cold = h.data_access(0, va, false);
            let warm = h.data_access(0, va, false);
            prop_assert!(cold.ns >= 0.0 && warm.ns >= 0.0);
            prop_assert!(warm.cycles <= cold.cycles, "warm {} > cold {}", warm.cycles, cold.cycles);
            let s = h.stats(0);
            let total = s.l1d_accesses + s.l2_accesses + s.l3_accesses;
            prop_assert!(total >= prev_total);
            prev_total = total;
            prop_assert!(s.l1d_misses <= s.l1d_accesses);
            prop_assert!(s.dtlb_misses <= s.dtlb_lookups);
        }
    }

    /// Reconfiguration round-trips: whatever we apply is what the
    /// hierarchy reports (clamped to provisioned geometry).
    #[test]
    fn reconfig_roundtrip(
        l2w in 1u32..=8,
        l3w in 1u32..=20,
        itlb in 1u32..=128,
        gate in 0usize..5,
    ) {
        let mut h = MemoryHierarchy::new(HierarchyConfig::e5_2680(), 1, 11);
        let r = MemReconfig {
            l1d_ways: 8,
            l1i_ways: 8,
            l2_ways: l2w,
            l3_ways: l3w,
            itlb_entries: itlb,
            dtlb_entries: 64,
            mem_gate: MemGateLevel::ALL[gate],
        };
        h.apply(r);
        let cur = h.current_reconfig();
        prop_assert_eq!(cur.l2_ways, l2w);
        prop_assert_eq!(cur.l3_ways, l3w);
        prop_assert_eq!(cur.mem_gate, MemGateLevel::ALL[gate]);
        // TLB entries quantize to whole ways (32-entry granularity here).
        prop_assert!(cur.itlb_entries >= 32 && cur.itlb_entries <= 128);
        prop_assert!(cur.itlb_entries <= itlb.max(32));
    }

    /// The allocation-free translation fast path (last-page memo plus
    /// TLB-cached PPNs) must agree with `PageTable::translate` on every
    /// access. `translate` is a pure function of (salt, VPN), so an
    /// independent shadow table with the same salt is an oracle for the
    /// whole sequence — including after reconfigs and flushes, which
    /// invalidate the memos and TLB entries but never change the mapping.
    #[test]
    fn tlb_fast_path_matches_page_table(
        ops in proptest::collection::vec((0u8..8, 0u64..48, any::<u16>()), 1..300),
        salt in any::<u64>(),
    ) {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny().with_stlb(), 2, salt);
        let mut shadow = PageTable::new(salt);
        for &(op, page, off) in &ops {
            let va = VAddr(0x40_0000 + page * 4096 + off as u64 % 4096);
            match op {
                0..=2 => {
                    let out = m.data_access(0, va, op == 2);
                    prop_assert_eq!(out.paddr, shadow.translate(va));
                }
                3 => {
                    let out = m.fetch_access(0, va);
                    prop_assert_eq!(out.paddr, shadow.translate(va));
                }
                4 => {
                    // A second core has its own memos and TLBs but shares
                    // the page table.
                    let out = m.data_access(1, va, false);
                    prop_assert_eq!(out.paddr, shadow.translate(va));
                }
                5 => {
                    let mut r = m.current_reconfig();
                    r.dtlb_entries = 1 + off as u32 % 64;
                    r.itlb_entries = 1 + off as u32 % 128;
                    m.apply(r);
                }
                6 => m.flush_all(),
                _ => {
                    // A short streaming run: one load per line over four
                    // lines, each through the per-line fast path.
                    for off in (0..256).step_by(64) {
                        let out = m.data_access(0, va.add(off), false);
                        prop_assert_eq!(out.paddr, shadow.translate(va.add(off)));
                    }
                }
            }
        }
    }
}
