//! The assembled memory hierarchy: per-core L1I/L1D/L2 + TLBs, a shared
//! L3, the page walker and DRAM.
//!
//! Latency is returned split into **core cycles** (cache levels, clocked
//! with the core and therefore scaled by DVFS) and **nanoseconds** (DRAM,
//! which does not scale). The CPU model combines the two with the current
//! frequency and a memory-level-parallelism overlap factor.
//!
//! Writebacks ripple: a dirty L1 victim is written into L2; a dirty L2
//! victim into L3; a dirty L3 victim to DRAM. Writeback traffic is counted
//! in [`MemStats::writebacks`]/[`MemStats::dram_writes`] but is not charged
//! to the demand access's latency (real write buffers hide it).

use crate::addr::{PAddr, VAddr, LINE_BYTES};
use crate::cache::{AccessKind, SetAssocCache};
use crate::config::HierarchyConfig;
use crate::dram::DramModel;
use crate::paging::PageTable;
use crate::prefetch::NextLinePrefetcher;
use crate::reconfig::MemReconfig;
use crate::stats::MemStats;
use crate::tlb::Tlb;

/// Index of a core within the machine.
pub type CoreId = usize;

/// Latency and event summary of one access.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AccessOutcome {
    /// Core-clock cycles spent in the cache levels (scale with DVFS).
    pub cycles: u64,
    /// Fixed nanoseconds spent in DRAM (do not scale with DVFS).
    pub ns: f64,
    /// Demand miss flags for quick classification by the caller.
    pub l1_miss: bool,
    pub l2_miss: bool,
    pub l3_miss: bool,
    pub tlb_miss: bool,
    /// The physical address the access resolved to — on TLB hits this is
    /// the TLB-cached PPN, so callers (and property tests) can check the
    /// fast path against an independent [`crate::PageTable`].
    pub paddr: PAddr,
}

/// Sentinel for the last-page memos: no VPN can equal `u64::MAX` (VPNs are
/// at most 52 bits), so this entry never matches.
const NO_PAGE: (u64, u64) = (u64::MAX, 0);

#[derive(Clone, Debug)]
struct CorePrivate {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    itlb: Tlb,
    dtlb: Tlb,
    /// Optional unified second-level TLB backing both L1 TLBs.
    stlb: Option<Tlb>,
    /// One-entry VPN→PPN memos in front of the D/I TLBs. Consecutive
    /// accesses to the same page skip the set-associative lookup; the
    /// skipped `touch` is a no-op because that entry is already MRU.
    /// Invalidated whenever TLB contents can change underneath them
    /// ([`MemoryHierarchy::apply`], [`MemoryHierarchy::flush_all`]).
    last_data_page: (u64, u64),
    last_fetch_page: (u64, u64),
    prefetcher: NextLinePrefetcher,
    stats: MemStats,
}

/// The full hierarchy shared by all cores of a machine.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    cores: Vec<CorePrivate>,
    l3: SetAssocCache,
    dram: DramModel,
    pt: PageTable,
    current: MemReconfig,
}

impl MemoryHierarchy {
    /// Build a hierarchy with `n_cores` private slices. `salt`
    /// disambiguates the address space of this machine.
    pub fn new(cfg: HierarchyConfig, n_cores: usize, salt: u64) -> Self {
        cfg.validate();
        assert!(n_cores >= 1);
        let cores = (0..n_cores)
            .map(|i| CorePrivate {
                l1i: SetAssocCache::new(cfg.l1i, cfg.seed ^ (i as u64) << 1),
                l1d: SetAssocCache::new(cfg.l1d, cfg.seed ^ (i as u64) << 2),
                l2: SetAssocCache::new(cfg.l2, cfg.seed ^ (i as u64) << 3),
                itlb: Tlb::new(cfg.itlb, cfg.seed ^ (i as u64) << 4),
                dtlb: Tlb::new(cfg.dtlb, cfg.seed ^ (i as u64) << 5),
                stlb: cfg.stlb.map(|g| Tlb::new(g, cfg.seed ^ (i as u64) << 6)),
                last_data_page: NO_PAGE,
                last_fetch_page: NO_PAGE,
                prefetcher: NextLinePrefetcher::new(cfg.l2_prefetch),
                stats: MemStats::default(),
            })
            .collect();
        let mut full = MemReconfig::full();
        full.l1d_ways = cfg.l1d.ways;
        full.l1i_ways = cfg.l1i.ways;
        full.l2_ways = cfg.l2.ways;
        full.l3_ways = cfg.l3.ways;
        full.itlb_entries = cfg.itlb.entries;
        full.dtlb_entries = cfg.dtlb.entries;
        MemoryHierarchy {
            cores,
            l3: SetAssocCache::new(cfg.l3, cfg.seed ^ 0xf00d),
            dram: DramModel::new(cfg.dram_ns),
            pt: PageTable::new(salt),
            current: full,
            cfg,
        }
    }

    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// The configuration currently applied.
    pub fn current_reconfig(&self) -> MemReconfig {
        self.current
    }

    /// Event counters of one core (shared L3/DRAM events are attributed to
    /// the core that triggered them).
    pub fn stats(&self, core: CoreId) -> MemStats {
        self.cores[core].stats
    }

    /// Sum of all cores' counters.
    pub fn total_stats(&self) -> MemStats {
        let mut t = MemStats::default();
        for c in &self.cores {
            let s = c.stats;
            t.l1d_accesses += s.l1d_accesses;
            t.l1d_misses += s.l1d_misses;
            t.l1i_accesses += s.l1i_accesses;
            t.l1i_misses += s.l1i_misses;
            t.l2_accesses += s.l2_accesses;
            t.l2_misses += s.l2_misses;
            t.l3_accesses += s.l3_accesses;
            t.l3_misses += s.l3_misses;
            t.dtlb_lookups += s.dtlb_lookups;
            t.dtlb_misses += s.dtlb_misses;
            t.itlb_lookups += s.itlb_lookups;
            t.itlb_misses += s.itlb_misses;
            t.stlb_lookups += s.stlb_lookups;
            t.stlb_misses += s.stlb_misses;
            t.walk_reads += s.walk_reads;
            t.dram_reads += s.dram_reads;
            t.dram_writes += s.dram_writes;
            t.writebacks += s.writebacks;
            t.prefetches += s.prefetches;
        }
        t
    }

    /// Apply a memory-side reconfiguration (from the BMC capping ladder).
    pub fn apply(&mut self, r: MemReconfig) {
        for c in &mut self.cores {
            c.l1d.set_active_ways(r.l1d_ways);
            c.l1i.set_active_ways(r.l1i_ways);
            c.l2.set_active_ways(r.l2_ways);
            c.itlb.set_active_entries(r.itlb_entries);
            c.dtlb.set_active_entries(r.dtlb_entries);
            // Entry gating may have evicted the memoized translations.
            c.last_data_page = NO_PAGE;
            c.last_fetch_page = NO_PAGE;
        }
        self.l3.set_active_ways(r.l3_ways);
        self.dram.set_gate(r.mem_gate);
        self.current = MemReconfig {
            l1d_ways: self.cores[0].l1d.active_ways(),
            l1i_ways: self.cores[0].l1i.active_ways(),
            l2_ways: self.cores[0].l2.active_ways(),
            l3_ways: self.l3.active_ways(),
            itlb_entries: self.cores[0].itlb.active_entries(),
            dtlb_entries: self.cores[0].dtlb.active_entries(),
            mem_gate: self.dram.gate(),
        };
    }

    /// A data load or store at `vaddr` from `core`.
    ///
    /// Translation is resolved from the TLBs on the hit path (the PPN a TLB
    /// caches is the one [`PageTable::translate`] produced when the entry
    /// was filled); the page table's map is consulted only on walks. A
    /// debug assertion cross-checks the cached PPN against the page table
    /// on every access.
    ///
    /// `#[inline]` (like [`Self::fetch_access`] and the leaf helpers it
    /// calls) so that `capsim-node`'s per-load charge paths can inline
    /// it across the crate boundary without LTO.
    #[inline]
    pub fn data_access(&mut self, core: CoreId, vaddr: VAddr, write: bool) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        let vpn = vaddr.vpn();
        // DTLB, fronted by the one-entry last-page memo.
        self.cores[core].stats.dtlb_lookups += 1;
        let ppn = if self.cores[core].last_data_page.0 == vpn {
            self.cores[core].last_data_page.1
        } else if let Some(ppn) = self.cores[core].dtlb.lookup(vpn) {
            self.cores[core].last_data_page = (vpn, ppn);
            ppn
        } else {
            self.cores[core].stats.dtlb_misses += 1;
            out.tlb_miss = true;
            let ppn = self.second_level_translate(core, vpn, &mut out);
            self.cores[core].dtlb.insert(vpn, ppn);
            self.cores[core].last_data_page = (vpn, ppn);
            ppn
        };
        debug_assert_eq!(
            crate::addr::compose(ppn, vaddr.page_offset()),
            self.pt.translate(vaddr),
            "TLB-cached translation diverged from the page table for {vaddr:?}"
        );
        out.paddr = crate::addr::compose(ppn, vaddr.page_offset());
        let line = out.paddr.line();
        let kind = if write { AccessKind::Write } else { AccessKind::Read };

        // One bounds-checked core lookup for the whole cache descent; the
        // helpers below work on split field borrows.
        let c = &mut self.cores[core];
        c.stats.l1d_accesses += 1;
        out.cycles += self.cfg.l1d.hit_cycles as u64;
        let r1 = c.l1d.access(line, kind);
        if r1.hit {
            return out;
        }
        c.stats.l1d_misses += 1;
        out.l1_miss = true;
        if let Some(victim) = r1.writeback {
            Self::writeback_to_l2(c, &mut self.l3, &mut self.dram, victim);
        }
        Self::l2_demand(&self.cfg, c, &mut self.l3, &mut self.dram, line, &mut out);
        out
    }

    /// An instruction-fetch access for the line containing `vaddr`.
    #[inline]
    pub fn fetch_access(&mut self, core: CoreId, vaddr: VAddr) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        let vpn = vaddr.vpn();
        self.cores[core].stats.itlb_lookups += 1;
        let ppn = if self.cores[core].last_fetch_page.0 == vpn {
            self.cores[core].last_fetch_page.1
        } else if let Some(ppn) = self.cores[core].itlb.lookup(vpn) {
            self.cores[core].last_fetch_page = (vpn, ppn);
            ppn
        } else {
            self.cores[core].stats.itlb_misses += 1;
            out.tlb_miss = true;
            let ppn = self.second_level_translate(core, vpn, &mut out);
            self.cores[core].itlb.insert(vpn, ppn);
            self.cores[core].last_fetch_page = (vpn, ppn);
            ppn
        };
        debug_assert_eq!(
            crate::addr::compose(ppn, vaddr.page_offset()),
            self.pt.translate(vaddr),
            "TLB-cached translation diverged from the page table for {vaddr:?}"
        );
        out.paddr = crate::addr::compose(ppn, vaddr.page_offset());
        let line = out.paddr.line();
        let c = &mut self.cores[core];
        c.stats.l1i_accesses += 1;
        out.cycles += self.cfg.l1i.hit_cycles as u64;
        let r1 = c.l1i.access(line, AccessKind::Read);
        if r1.hit {
            return out;
        }
        c.stats.l1i_misses += 1;
        out.l1_miss = true;
        // L1I is read-only: no writeback possible.
        Self::l2_demand(&self.cfg, c, &mut self.l3, &mut self.dram, line, &mut out);
        out
    }

    /// Resolve a first-level TLB miss: consult the STLB if configured,
    /// walking the page table only on an STLB miss. Returns the PPN.
    fn second_level_translate(&mut self, core: CoreId, vpn: u64, out: &mut AccessOutcome) -> u64 {
        let c = &mut self.cores[core];
        if let Some(stlb) = c.stlb.as_mut() {
            c.stats.stlb_lookups += 1;
            out.cycles += self.cfg.stlb_hit_cycles as u64;
            if let Some(ppn) = stlb.lookup(vpn) {
                return ppn;
            }
            c.stats.stlb_misses += 1;
        }
        self.page_walk(core, vpn, out);
        let ppn = self.pt.translate(VAddr(vpn << crate::addr::PAGE_BITS)).ppn();
        if let Some(stlb) = self.cores[core].stlb.as_mut() {
            stlb.insert(vpn, ppn);
        }
        ppn
    }

    /// L2 demand access shared by data, fetch and walker paths. Takes the
    /// active core's private slice plus the shared back-end as split
    /// borrows, so the descent does no repeated `cores[core]` indexing.
    fn l2_demand(
        cfg: &HierarchyConfig,
        c: &mut CorePrivate,
        l3: &mut SetAssocCache,
        dram: &mut DramModel,
        line: u64,
        out: &mut AccessOutcome,
    ) {
        c.stats.l2_accesses += 1;
        out.cycles += cfg.l2.hit_cycles as u64;
        let r2 = c.l2.access(line, AccessKind::Read);
        if r2.hit {
            return;
        }
        c.stats.l2_misses += 1;
        out.l2_miss = true;
        if let Some(victim) = r2.writeback {
            Self::writeback_to_l3(c, l3, dram, victim);
        }
        // Train the prefetcher; a prefetch fill pulls the next line into L2
        // through L3/DRAM without charging demand latency.
        if let Some(pf_line) = c.prefetcher.on_miss(line) {
            c.stats.prefetches += 1;
            Self::prefetch_fill(c, l3, dram, pf_line);
        }
        // L3.
        c.stats.l3_accesses += 1;
        out.cycles += cfg.l3.hit_cycles as u64;
        let r3 = l3.access(line, AccessKind::Read);
        if r3.hit {
            return;
        }
        c.stats.l3_misses += 1;
        out.l3_miss = true;
        if let Some(victim) = r3.writeback {
            c.stats.dram_writes += 1;
            dram.access(victim, true);
        }
        out.ns += dram.access(line, false);
        c.stats.dram_reads += 1;
    }

    /// Dirty line leaving an L1D: write into L2 (and ripple further).
    fn writeback_to_l2(
        c: &mut CorePrivate,
        l3: &mut SetAssocCache,
        dram: &mut DramModel,
        line: u64,
    ) {
        c.stats.writebacks += 1;
        let r = c.l2.access(line, AccessKind::Write);
        if let Some(victim) = r.writeback {
            Self::writeback_to_l3(c, l3, dram, victim);
        }
    }

    /// Dirty line leaving an L2: write into L3 (and ripple to DRAM).
    fn writeback_to_l3(
        c: &mut CorePrivate,
        l3: &mut SetAssocCache,
        dram: &mut DramModel,
        line: u64,
    ) {
        c.stats.writebacks += 1;
        let r = l3.access(line, AccessKind::Write);
        if let Some(victim) = r.writeback {
            c.stats.dram_writes += 1;
            dram.access(victim, true);
        }
    }

    /// Install a prefetched line into L2, fetching it from L3/DRAM. One
    /// L3 call both checks residency and fills on absence.
    fn prefetch_fill(c: &mut CorePrivate, l3: &mut SetAssocCache, dram: &mut DramModel, line: u64) {
        let r3 = l3.fill(line);
        if !r3.hit {
            // Pulled into L3 from DRAM first (prefetch counts as DRAM read).
            if let Some(victim) = r3.writeback {
                c.stats.dram_writes += 1;
                dram.access(victim, true);
            }
            c.stats.dram_reads += 1;
            dram.access(line, false);
        }
        if let Some(victim) = c.l2.fill(line).writeback {
            Self::writeback_to_l3(c, l3, dram, victim);
        }
    }

    /// Charge a hardware page walk: `walk_levels` physical reads through
    /// L2 → L3 → DRAM.
    ///
    /// Walker references are charged for latency and counted in
    /// [`MemStats::walk_reads`]/[`MemStats::dram_reads`], but NOT in the
    /// L2/L3 demand-miss counters: the paper's PAPI presets
    /// (`PAPI_L2_TCM`/`PAPI_L3_TCM`) count demand traffic, and folding
    /// walker refs in would fabricate the L2/L3 blow-up that Table II
    /// explicitly does *not* show for SIRE/RSM at low caps.
    fn page_walk(&mut self, core: CoreId, vpn: u64, out: &mut AccessOutcome) {
        let addrs = self.pt.walk_addrs(vpn, self.cfg.walk_levels);
        let c = &mut self.cores[core];
        for &pa in addrs.iter() {
            let line = pa.line();
            c.stats.walk_reads += 1;
            // Walker reads skip L1 and go straight to L2.
            out.cycles += self.cfg.l2.hit_cycles as u64;
            let r2 = c.l2.access(line, AccessKind::Read);
            if r2.hit {
                continue;
            }
            if let Some(victim) = r2.writeback {
                Self::writeback_to_l3(c, &mut self.l3, &mut self.dram, victim);
            }
            out.cycles += self.cfg.l3.hit_cycles as u64;
            let r3 = self.l3.access(line, AccessKind::Read);
            if r3.hit {
                continue;
            }
            if let Some(victim) = r3.writeback {
                c.stats.dram_writes += 1;
                self.dram.access(victim, true);
            }
            out.ns += self.dram.access(line, false);
            c.stats.dram_reads += 1;
        }
    }

    /// Batched sequential access: one [`Self::data_access`] per line over
    /// `[base, base + bytes)`, summing latencies and OR-ing the miss flags.
    /// Streaming callers (warm-up passes, SAR-style kernels) amortize the
    /// per-call dispatch over the whole range.
    pub fn access_range(
        &mut self,
        core: CoreId,
        base: VAddr,
        bytes: u64,
        write: bool,
    ) -> AccessOutcome {
        let mut total = AccessOutcome::default();
        let mut off = 0;
        while off < bytes {
            let out = self.data_access(core, base.add(off), write);
            total.cycles += out.cycles;
            total.ns += out.ns;
            total.l1_miss |= out.l1_miss;
            total.l2_miss |= out.l2_miss;
            total.l3_miss |= out.l3_miss;
            total.tlb_miss |= out.tlb_miss;
            off += LINE_BYTES;
        }
        total
    }

    /// Touch a whole virtual range for warm-up (one read per line).
    pub fn warm_range(&mut self, core: CoreId, base: VAddr, bytes: u64) {
        self.access_range(core, base, bytes, false);
    }

    /// Flush all caches and TLBs (machine reset between runs).
    pub fn flush_all(&mut self) {
        for c in &mut self.cores {
            c.l1i.flush_all();
            c.l1d.flush_all();
            c.l2.flush_all();
            c.itlb.flush();
            c.dtlb.flush();
            if let Some(stlb) = &mut c.stlb {
                stlb.flush();
            }
            c.last_data_page = NO_PAGE;
            c.last_fetch_page = NO_PAGE;
        }
        self.l3.flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiny(), 1, 0xabc)
    }

    #[test]
    fn cold_access_traverses_all_levels() {
        let mut m = h();
        let out = m.data_access(0, VAddr(0x10_0000), false);
        assert!(out.l1_miss && out.l2_miss && out.l3_miss && out.tlb_miss);
        assert!(out.ns > 0.0, "DRAM charged");
        let s = m.stats(0);
        assert_eq!(s.l1d_accesses, 1);
        assert_eq!(s.l1d_misses, 1);
        assert_eq!(s.dtlb_misses, 1);
        assert_eq!(s.walk_reads, 4);
        assert!(s.dram_reads >= 1);
    }

    #[test]
    fn warm_access_hits_l1_with_no_dram_time() {
        let mut m = h();
        m.data_access(0, VAddr(0x10_0000), false);
        let out = m.data_access(0, VAddr(0x10_0000), false);
        assert!(!out.l1_miss && !out.tlb_miss);
        assert_eq!(out.ns, 0.0);
        assert_eq!(out.cycles, m.config().l1d.hit_cycles as u64);
    }

    #[test]
    fn same_page_reuses_tlb_entry() {
        let mut m = h();
        m.data_access(0, VAddr(0x20_0000), false);
        let before = m.stats(0).dtlb_misses;
        m.data_access(0, VAddr(0x20_0040), false);
        assert_eq!(m.stats(0).dtlb_misses, before);
    }

    #[test]
    fn fetch_path_uses_itlb_and_l1i() {
        let mut m = h();
        let out = m.fetch_access(0, VAddr(0x40_0000));
        assert!(out.l1_miss);
        let s = m.stats(0);
        assert_eq!(s.itlb_misses, 1);
        assert_eq!(s.l1i_misses, 1);
        assert_eq!(s.l1d_accesses, 0, "fetch does not touch L1D");
    }

    #[test]
    fn dirty_data_eventually_reaches_dram_as_writes() {
        let mut m = h();
        // Write a region far larger than L3 so dirty lines ripple out.
        let span = m.config().l3.size_bytes * 4;
        let mut off = 0;
        while off < span {
            m.data_access(0, VAddr(0x100_0000 + off), true);
            off += 64;
        }
        // Stream a second disjoint region to force evictions of the dirty set.
        let mut off = 0;
        while off < span {
            m.data_access(0, VAddr(0x9000_0000 + off), false);
            off += 64;
        }
        assert!(m.stats(0).dram_writes > 0, "dirty evictions become DRAM writes");
        assert!(m.stats(0).writebacks > 0);
    }

    #[test]
    fn reconfig_roundtrip_reports_applied_state() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::e5_2680(), 1, 1);
        let mut r = MemReconfig::full();
        r.l3_ways = 10;
        r.itlb_entries = 32;
        r.mem_gate = crate::dram::MemGateLevel::Heavy;
        m.apply(r);
        let cur = m.current_reconfig();
        assert_eq!(cur.l3_ways, 10);
        assert_eq!(cur.itlb_entries, 32);
        assert_eq!(cur.mem_gate, crate::dram::MemGateLevel::Heavy);
    }

    #[test]
    fn severe_mem_gate_slows_dram_bound_access() {
        let mut m = h();
        // Warm the page's translation so both measurements are pure data
        // DRAM accesses (no walker refs mixed in).
        m.data_access(0, VAddr(0x55_0000), false);
        let cold = m.data_access(0, VAddr(0x55_0000 + 256), false).ns;
        let mut r = m.current_reconfig();
        r.mem_gate = crate::dram::MemGateLevel::Severe;
        m.apply(r);
        let cold2 = m.data_access(0, VAddr(0x55_0000 + 512), false).ns;
        assert!(cold2 > cold * 8.0, "{cold2} vs {cold}");
    }

    #[test]
    fn cores_have_private_l1_but_share_l3() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::tiny(), 2, 5);
        m.data_access(0, VAddr(0x70_0000), false);
        // Core 1 misses its private L1/L2 but hits the shared L3.
        let out = m.data_access(1, VAddr(0x70_0000), false);
        assert!(out.l1_miss && out.l2_miss);
        assert!(!out.l3_miss, "L3 shared across cores");
    }

    #[test]
    fn prefetcher_reduces_demand_l2_misses_for_streams() {
        let cfg = HierarchyConfig::e5_2680();
        let mut with = MemoryHierarchy::new(cfg, 1, 9);
        let mut without = {
            let mut c = cfg;
            c.l2_prefetch = false;
            MemoryHierarchy::new(c, 1, 9)
        };
        let n = 4096u64;
        for i in 0..n {
            with.data_access(0, VAddr(0x800_0000 + i * 64), false);
            without.data_access(0, VAddr(0x800_0000 + i * 64), false);
        }
        assert!(with.stats(0).prefetches > 0);
        assert!(
            with.stats(0).l2_misses < without.stats(0).l2_misses,
            "{} vs {}",
            with.stats(0).l2_misses,
            without.stats(0).l2_misses
        );
    }

    #[test]
    fn stlb_absorbs_first_level_tlb_misses() {
        // 32 pages cycled: thrashes the tiny 8-entry DTLB, fits a 64-entry
        // STLB — walks happen once per page, not once per DTLB miss.
        let mk = |stlb: bool| {
            let mut cfg = HierarchyConfig::tiny();
            if stlb {
                cfg.stlb = Some(crate::config::TlbGeometry {
                    entries: 64,
                    ways: 4,
                    policy: crate::replacement::ReplacementPolicy::Lru,
                });
            }
            let mut m = MemoryHierarchy::new(cfg, 1, 33);
            for round in 0..10u64 {
                for page in 0..32u64 {
                    m.data_access(0, VAddr(0x100_0000 + page * 4096 + round * 64), false);
                }
            }
            m.stats(0)
        };
        let without = mk(false);
        let with = mk(true);
        // Same first-level miss pressure either way…
        assert!(with.dtlb_misses > 100, "DTLB thrashes: {}", with.dtlb_misses);
        // …but the STLB absorbs nearly all the walks.
        assert!(with.stlb_lookups > 0 && without.stlb_lookups == 0);
        assert!(
            with.walk_reads < without.walk_reads / 4,
            "walks {} vs {}",
            with.walk_reads,
            without.walk_reads
        );
    }

    #[test]
    fn stlb_hit_is_cheaper_than_a_walk() {
        let cfg = HierarchyConfig::tiny().with_stlb();
        let mut m = MemoryHierarchy::new(cfg, 1, 34);
        // Prime page A, then evict it from the 8-entry DTLB (not the STLB).
        m.data_access(0, VAddr(0x200_0000), false);
        for page in 1..=16u64 {
            m.data_access(0, VAddr(0x200_0000 + page * 4096), false);
        }
        let walks_before = m.stats(0).walk_reads;
        let out = m.data_access(0, VAddr(0x200_0000 + 64), false);
        assert!(out.tlb_miss, "DTLB evicted the entry");
        assert_eq!(m.stats(0).walk_reads, walks_before, "STLB hit avoided the walk");
    }

    #[test]
    fn apply_invalidates_last_page_memos() {
        let mut m = h();
        // tiny() DTLB: 8 entries, 4 ways, 2 sets. Both pages have even
        // VPNs (same set); inserts fill the first invalid way, so the
        // filler lands in way 0 and page A in way 1.
        m.data_access(0, VAddr(0x100_000), false); // filler, set 0 way 0
        m.data_access(0, VAddr(0x102_000), false); // page A, set 0 way 1
        m.data_access(0, VAddr(0x102_040), false); // warm the last-page memo
        let misses = m.stats(0).dtlb_misses;
        // Gating to one way per set evicts way 1. The memo must drop too,
        // or the next access would be reported as TLB-resident.
        let mut r = m.current_reconfig();
        r.dtlb_entries = 2;
        m.apply(r);
        let out = m.data_access(0, VAddr(0x102_080), false);
        assert!(out.tlb_miss, "gated-away entry must miss the DTLB");
        assert_eq!(m.stats(0).dtlb_misses, misses + 1);
    }

    #[test]
    fn access_range_matches_per_line_loop() {
        let mut batched = h();
        let mut serial = h();
        let base = VAddr(0x300_000);
        let bytes = 4 * 4096 + 130; // partial trailing line included
        let got = batched.access_range(0, base, bytes, false);
        let mut want = AccessOutcome::default();
        let mut off = 0;
        while off < bytes {
            let out = serial.data_access(0, base.add(off), false);
            want.cycles += out.cycles;
            want.ns += out.ns;
            want.l1_miss |= out.l1_miss;
            want.l2_miss |= out.l2_miss;
            want.l3_miss |= out.l3_miss;
            want.tlb_miss |= out.tlb_miss;
            off += 64;
        }
        assert_eq!(got.cycles, want.cycles);
        assert_eq!(got.ns.to_bits(), want.ns.to_bits());
        assert_eq!(
            (got.l1_miss, got.l2_miss, got.l3_miss, got.tlb_miss),
            (want.l1_miss, want.l2_miss, want.l3_miss, want.tlb_miss)
        );
        assert_eq!(batched.stats(0), serial.stats(0));
    }

    #[test]
    fn flush_all_restores_cold_state() {
        let mut m = h();
        m.data_access(0, VAddr(0x30_0000), false);
        m.flush_all();
        let out = m.data_access(0, VAddr(0x30_0000), false);
        assert!(out.l1_miss && out.tlb_miss);
    }
}
