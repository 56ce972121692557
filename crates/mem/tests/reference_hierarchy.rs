//! Lockstep oracle for the whole memory hierarchy.
//!
//! `MemoryHierarchy` answers most loads from one-entry last-page memos
//! in front of the TLBs, and its caches and TLBs take fast paths of
//! their own. The reference below has none of that. Every level is the
//! naive cache or TLB from `common/` (a `Vec` of lines per set, explicit
//! stamps, a node-by-node PLRU walk, linear scans). Every access looks
//! its page up in the TLB, and every TLB miss walks the page table: the
//! walk addresses come from `PageTable::walk_addrs` and the translation
//! from `PageTable::translate`. The STLB, the walker's L2/L3 reads, the
//! next-line prefetcher, the writeback ripple and the DRAM open-row
//! model with its gating multiplier are restated here.
//!
//! Both run the same proptest streams of loads, stores, fetches and
//! ranges over one or two cores, on the E5, tiny and STLB geometries
//! and on a tiny one with every replacement policy swapped. Way gating,
//! TLB shrink and memory gating are applied at random points
//! mid-stream, and so is `flush_all`. After every op the outcome
//! (cycles, the bits of `ns`, the miss flags and `paddr`), every core's
//! `MemStats` and the applied reconfiguration must agree.

use proptest::prelude::*;

use capsim_mem::{
    AccessOutcome, CacheGeometry, HierarchyConfig, MemGateLevel, MemReconfig, MemStats,
    MemoryHierarchy, PAddr, PageTable, ReplacementPolicy, TlbGeometry, VAddr, PAGE_BITS,
};

mod common;

use common::{RefCache, RefTlb, XorShift64};

/// The DRAM model, restated: sixteen banks of 2 KiB rows, a 25% discount
/// on an open-row hit, times the gating multiplier.
struct RefDram {
    base_ns: f64,
    gate: MemGateLevel,
    open_row: [u64; 16],
}

impl RefDram {
    fn access(&mut self, line: u64) -> f64 {
        let row = line / 32;
        let bank = (row % 16) as usize;
        let row_hit = self.open_row[bank] == row;
        self.open_row[bank] = row;
        let mult = match self.gate {
            MemGateLevel::Off => 1.0,
            MemGateLevel::Light => 2.0,
            MemGateLevel::Medium => 4.0,
            MemGateLevel::Heavy => 8.0,
            MemGateLevel::Severe => 16.0,
        };
        let base = if row_hit { self.base_ns * 0.75 } else { self.base_ns };
        base * mult
    }
}

/// One core's private levels.
struct RefCore {
    l1i: RefCache,
    l1d: RefCache,
    l2: RefCache,
    itlb: RefTlb,
    dtlb: RefTlb,
    stlb: Option<RefTlb>,
    /// The prefetcher's last L2 demand miss.
    last_miss: Option<u64>,
    stats: MemStats,
}

/// The reference hierarchy.
struct RefHierarchy {
    cfg: HierarchyConfig,
    cores: Vec<RefCore>,
    l3: RefCache,
    dram: RefDram,
    pt: PageTable,
}

fn ref_cache(g: CacheGeometry, seed: u64) -> RefCache {
    RefCache::new(g.policy, g.ways, g.size_bytes / (g.line_bytes * g.ways as u64), seed)
}

fn ref_tlb(g: TlbGeometry, seed: u64) -> RefTlb {
    RefTlb::new(g.policy, g.ways, g.entries / g.ways, seed)
}

impl RefHierarchy {
    fn new(cfg: HierarchyConfig, n_cores: usize, salt: u64) -> Self {
        let cores = (0..n_cores as u64)
            .map(|i| RefCore {
                l1i: ref_cache(cfg.l1i, cfg.seed ^ (i << 1)),
                l1d: ref_cache(cfg.l1d, cfg.seed ^ (i << 2)),
                l2: ref_cache(cfg.l2, cfg.seed ^ (i << 3)),
                itlb: ref_tlb(cfg.itlb, cfg.seed ^ (i << 4)),
                dtlb: ref_tlb(cfg.dtlb, cfg.seed ^ (i << 5)),
                stlb: cfg.stlb.map(|g| ref_tlb(g, cfg.seed ^ (i << 6))),
                last_miss: None,
                stats: MemStats::default(),
            })
            .collect();
        RefHierarchy {
            cores,
            l3: ref_cache(cfg.l3, cfg.seed ^ 0xf00d),
            dram: RefDram {
                base_ns: cfg.dram_ns,
                gate: MemGateLevel::Off,
                open_row: [u64::MAX; 16],
            },
            pt: PageTable::new(salt),
            cfg,
        }
    }

    /// Look `vaddr`'s page up in the core's ITLB (`fetch`) or DTLB; on a
    /// miss, try the STLB and walk the page table.
    fn translate(&mut self, core: usize, vaddr: VAddr, fetch: bool, out: &mut AccessOutcome) {
        let vpn = vaddr.vpn();
        let c = &mut self.cores[core];
        let tlb = if fetch {
            c.stats.itlb_lookups += 1;
            &mut c.itlb
        } else {
            c.stats.dtlb_lookups += 1;
            &mut c.dtlb
        };
        let ppn = match tlb.lookup(vpn) {
            Some(ppn) => ppn,
            None => {
                if fetch {
                    c.stats.itlb_misses += 1;
                } else {
                    c.stats.dtlb_misses += 1;
                }
                out.tlb_miss = true;
                let ppn = self.second_level(core, vpn, out);
                let c = &mut self.cores[core];
                if fetch {
                    c.itlb.insert(vpn, ppn);
                } else {
                    c.dtlb.insert(vpn, ppn);
                }
                ppn
            }
        };
        out.paddr = PAddr((ppn << PAGE_BITS) | vaddr.page_offset());
    }

    fn second_level(&mut self, core: usize, vpn: u64, out: &mut AccessOutcome) -> u64 {
        let c = &mut self.cores[core];
        if let Some(stlb) = c.stlb.as_mut() {
            c.stats.stlb_lookups += 1;
            out.cycles += self.cfg.stlb_hit_cycles as u64;
            if let Some(ppn) = stlb.lookup(vpn) {
                return ppn;
            }
            c.stats.stlb_misses += 1;
        }
        // The walker reads each level's entry through L2 → L3 → DRAM;
        // these reads are not demand traffic.
        for pa in self.pt.walk_addrs(vpn, self.cfg.walk_levels).iter() {
            let line = pa.line();
            self.cores[core].stats.walk_reads += 1;
            out.cycles += self.cfg.l2.hit_cycles as u64;
            let r2 = self.cores[core].l2.access(line, false);
            if r2.hit {
                continue;
            }
            if let Some(victim) = r2.writeback {
                self.writeback_to_l3(core, victim);
            }
            out.cycles += self.cfg.l3.hit_cycles as u64;
            let r3 = self.l3.access(line, false);
            if r3.hit {
                continue;
            }
            if let Some(victim) = r3.writeback {
                self.cores[core].stats.dram_writes += 1;
                self.dram.access(victim);
            }
            out.ns += self.dram.access(line);
            self.cores[core].stats.dram_reads += 1;
        }
        let ppn = self.pt.translate(VAddr(vpn << PAGE_BITS)).ppn();
        if let Some(stlb) = self.cores[core].stlb.as_mut() {
            stlb.insert(vpn, ppn);
        }
        ppn
    }

    fn data_access(&mut self, core: usize, vaddr: VAddr, write: bool) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        self.translate(core, vaddr, false, &mut out);
        let line = out.paddr.0 / 64;
        let c = &mut self.cores[core];
        c.stats.l1d_accesses += 1;
        out.cycles += self.cfg.l1d.hit_cycles as u64;
        let r1 = c.l1d.access(line, write);
        if r1.hit {
            return out;
        }
        c.stats.l1d_misses += 1;
        out.l1_miss = true;
        if let Some(victim) = r1.writeback {
            // A dirty L1 victim is written into L2, rippling further.
            self.cores[core].stats.writebacks += 1;
            if let Some(v2) = self.cores[core].l2.access(victim, true).writeback {
                self.writeback_to_l3(core, v2);
            }
        }
        self.l2_demand(core, line, &mut out);
        out
    }

    fn fetch_access(&mut self, core: usize, vaddr: VAddr) -> AccessOutcome {
        let mut out = AccessOutcome::default();
        self.translate(core, vaddr, true, &mut out);
        let line = out.paddr.0 / 64;
        let c = &mut self.cores[core];
        c.stats.l1i_accesses += 1;
        out.cycles += self.cfg.l1i.hit_cycles as u64;
        if c.l1i.access(line, false).hit {
            return out;
        }
        c.stats.l1i_misses += 1;
        out.l1_miss = true;
        self.l2_demand(core, line, &mut out);
        out
    }

    fn l2_demand(&mut self, core: usize, line: u64, out: &mut AccessOutcome) {
        let c = &mut self.cores[core];
        c.stats.l2_accesses += 1;
        out.cycles += self.cfg.l2.hit_cycles as u64;
        let r2 = c.l2.access(line, false);
        if r2.hit {
            return;
        }
        c.stats.l2_misses += 1;
        out.l2_miss = true;
        if let Some(victim) = r2.writeback {
            self.writeback_to_l3(core, victim);
        }
        // Next-line prefetch: a miss one or two lines past the previous
        // miss pulls the following line into L2 through L3/DRAM.
        let c = &mut self.cores[core];
        let prefetch = self.cfg.l2_prefetch
            && matches!(c.last_miss, Some(prev) if line == prev + 1 || line == prev + 2);
        if self.cfg.l2_prefetch {
            c.last_miss = Some(line);
        }
        if prefetch {
            c.stats.prefetches += 1;
            let pf = line + 1;
            let r3 = self.l3.fill(pf);
            if !r3.hit {
                if let Some(victim) = r3.writeback {
                    self.cores[core].stats.dram_writes += 1;
                    self.dram.access(victim);
                }
                self.cores[core].stats.dram_reads += 1;
                self.dram.access(pf);
            }
            if let Some(victim) = self.cores[core].l2.fill(pf).writeback {
                self.writeback_to_l3(core, victim);
            }
        }
        let c = &mut self.cores[core];
        c.stats.l3_accesses += 1;
        out.cycles += self.cfg.l3.hit_cycles as u64;
        let r3 = self.l3.access(line, false);
        if r3.hit {
            return;
        }
        c.stats.l3_misses += 1;
        out.l3_miss = true;
        if let Some(victim) = r3.writeback {
            c.stats.dram_writes += 1;
            self.dram.access(victim);
        }
        out.ns += self.dram.access(line);
        self.cores[core].stats.dram_reads += 1;
    }

    /// A dirty line leaving an L2: written into L3, rippling to DRAM.
    fn writeback_to_l3(&mut self, core: usize, line: u64) {
        self.cores[core].stats.writebacks += 1;
        if let Some(victim) = self.l3.access(line, true).writeback {
            self.cores[core].stats.dram_writes += 1;
            self.dram.access(victim);
        }
    }

    fn access_range(&mut self, core: usize, base: VAddr, bytes: u64, write: bool) -> AccessOutcome {
        let mut total = AccessOutcome::default();
        for off in (0..bytes).step_by(64) {
            let out = self.data_access(core, VAddr(base.0 + off), write);
            total.cycles += out.cycles;
            total.ns += out.ns;
            total.l1_miss |= out.l1_miss;
            total.l2_miss |= out.l2_miss;
            total.l3_miss |= out.l3_miss;
            total.tlb_miss |= out.tlb_miss;
        }
        total
    }

    /// Gate ways and TLB entries of every core and the L3, and set the
    /// DRAM gate. Gated-off lines are dropped: their dirty data is
    /// counted inside each cache, not in any core's `MemStats`.
    fn apply(&mut self, r: MemReconfig) -> MemReconfig {
        for c in &mut self.cores {
            c.l1d.set_active_ways(r.l1d_ways);
            c.l1i.set_active_ways(r.l1i_ways);
            c.l2.set_active_ways(r.l2_ways);
            c.itlb.set_active_entries(r.itlb_entries);
            c.dtlb.set_active_entries(r.dtlb_entries);
        }
        self.l3.set_active_ways(r.l3_ways);
        self.dram.gate = r.mem_gate;
        let c = &self.cores[0];
        MemReconfig {
            l1d_ways: c.l1d.active,
            l1i_ways: c.l1i.active,
            l2_ways: c.l2.active,
            l3_ways: self.l3.active,
            itlb_entries: c.itlb.active_entries(),
            dtlb_entries: c.dtlb.active_entries(),
            mem_gate: self.dram.gate,
        }
    }

    /// Invalidate every cache and TLB. The prefetcher's training and the
    /// DRAM's open rows survive, as they do in the hierarchy.
    fn flush_all(&mut self) {
        for c in &mut self.cores {
            c.l1i.flush_all();
            c.l1d.flush_all();
            c.l2.flush_all();
            c.itlb.flush();
            c.dtlb.flush();
            if let Some(stlb) = c.stlb.as_mut() {
                stlb.flush();
            }
        }
        self.l3.flush_all();
    }
}

/// The geometries the streams run on.
fn geometry(index: u8, seed: u64) -> HierarchyConfig {
    let mut cfg = match index {
        0 => HierarchyConfig::e5_2680(),
        1 => HierarchyConfig::tiny(),
        2 => HierarchyConfig::tiny().with_stlb(),
        3 => HierarchyConfig::e5_2680().with_stlb(),
        _ => {
            // Every policy swapped: random L1s, an LRU L2, a 16-way
            // tree-PLRU L3 (the table-free walk), tree-PLRU and random
            // TLBs, and an 8-way STLB.
            let mut c = HierarchyConfig::tiny();
            c.l1i.policy = ReplacementPolicy::Random;
            c.l1d.policy = ReplacementPolicy::Random;
            c.l2.policy = ReplacementPolicy::Lru;
            c.l3.policy = ReplacementPolicy::TreePlru;
            c.itlb.policy = ReplacementPolicy::TreePlru;
            c.dtlb.policy = ReplacementPolicy::Random;
            c.stlb =
                Some(TlbGeometry { entries: 32, ways: 8, policy: ReplacementPolicy::TreePlru });
            c
        }
    };
    cfg.seed = seed;
    cfg
}

/// One raw op: a selector and two operands, decoded per geometry.
type RawOp = (u8, u64, u64);

fn raw_ops(max_len: usize) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((0u8..32, any::<u64>(), any::<u64>()), 1..max_len)
}

/// A virtual address. Half the draws fall on four hot pages, so lines
/// and pages are reused and most accesses hit; the rest spread over
/// `pages` pages in three regions (they part at the root of the page
/// walk), enough to overflow the first-level TLBs. Most accesses fall
/// on the first four lines of a page, so one set fills from many pages.
fn vaddr(x: u64, pages: u64) -> VAddr {
    const REGIONS: [u64; 3] = [0x10_0000, 0x4000_0000, 0x7f00_0000_0000];
    let (region, page) = if x & 1 == 0 {
        (REGIONS[0], (x >> 1) % 4)
    } else {
        (REGIONS[((x >> 1) % 3) as usize], (x >> 3) % pages)
    };
    let line = if (x >> 20).is_multiple_of(4) { (x >> 24) % 64 } else { (x >> 24) % 4 };
    let byte = (x >> 32) % 64;
    VAddr(region + page * 4096 + line * 64 + byte)
}

/// A reconfiguration anywhere from one way or entry per set to past the
/// provisioned count (clamped by the hierarchy), at any gating level.
fn reconfig(cfg: &HierarchyConfig, a: u64, b: u64) -> MemReconfig {
    let pick = |n: u32, shift: u32| ((a >> shift) % (n as u64 + 2)) as u32;
    MemReconfig {
        l1d_ways: pick(cfg.l1d.ways, 0),
        l1i_ways: pick(cfg.l1i.ways, 8),
        l2_ways: pick(cfg.l2.ways, 16),
        l3_ways: pick(cfg.l3.ways, 24),
        itlb_entries: (b % (cfg.itlb.entries as u64 + 8)) as u32,
        dtlb_entries: ((b >> 16) % (cfg.dtlb.entries as u64 + 8)) as u32,
        mem_gate: MemGateLevel::ALL[((b >> 32) % 5) as usize],
    }
}

fn assert_same(fast: &AccessOutcome, slow: &AccessOutcome, ctx: &dyn Fn() -> String) {
    assert_eq!(fast.cycles, slow.cycles, "cycles: {}", ctx());
    assert_eq!(fast.ns.to_bits(), slow.ns.to_bits(), "ns {} vs {}: {}", fast.ns, slow.ns, ctx());
    assert_eq!(
        (fast.l1_miss, fast.l2_miss, fast.l3_miss, fast.tlb_miss),
        (slow.l1_miss, slow.l2_miss, slow.l3_miss, slow.tlb_miss),
        "miss flags: {}",
        ctx()
    );
    assert_eq!(fast.paddr, slow.paddr, "paddr: {}", ctx());
}

/// Drive the hierarchy and the reference through `ops`, comparing every
/// step.
fn lockstep(geom: u8, n_cores: usize, seed: u64, salt: u64, ops: &[RawOp]) {
    let cfg = geometry(geom, seed);
    let mut fast = MemoryHierarchy::new(cfg, n_cores, salt);
    let mut slow = RefHierarchy::new(cfg, n_cores, salt);
    // Enough pages to overflow the first-level TLBs several times over.
    let pages = 2 * (cfg.itlb.entries.max(cfg.dtlb.entries) as u64) + 8;
    for (i, &(sel, a, b)) in ops.iter().enumerate() {
        let core = (b >> 40) as usize % n_cores;
        let ctx = || {
            format!("geometry {geom} cores={n_cores} seed={seed:#x} op {i} ({sel}, {a:#x}, {b:#x})")
        };
        match sel {
            0..=17 => {
                let v = vaddr(a, pages);
                let write = b & 1 == 1;
                assert_same(
                    &fast.data_access(core, v, write),
                    &slow.data_access(core, v, write),
                    &ctx,
                );
            }
            18..=25 => {
                let v = vaddr(a, pages);
                assert_same(&fast.fetch_access(core, v), &slow.fetch_access(core, v), &ctx);
            }
            26..=27 => {
                let (v, bytes, write) = (vaddr(a, pages), b % 1024, b & 2 == 2);
                assert_same(
                    &fast.access_range(core, v, bytes, write),
                    &slow.access_range(core, v, bytes, write),
                    &ctx,
                );
            }
            28..=30 => {
                let r = reconfig(&cfg, a, b);
                fast.apply(r);
                assert_eq!(fast.current_reconfig(), slow.apply(r), "{}", ctx());
            }
            _ => {
                fast.flush_all();
                slow.flush_all();
            }
        }
        for (c, rc) in slow.cores.iter().enumerate() {
            assert_eq!(fast.stats(c), rc.stats, "core {c} stats: {}", ctx());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The hierarchy answers every op exactly like the reference.
    #[test]
    fn hierarchy_matches_the_reference_model(
        ops in raw_ops(400),
        geom in 0u8..5,
        two_cores in any::<bool>(),
        seed in any::<u64>(),
        salt in any::<u64>(),
    ) {
        lockstep(geom, 1 + two_cores as usize, seed, salt, &ops);
    }
}

/// Long streams, on every geometry: thousands of ops between gatings, so
/// sets reach their steady state and hits dominate.
#[test]
fn long_streams_match_the_reference_model() {
    let mut rng = XorShift64::new(0x0dd_ba11);
    for geom in 0..5 {
        let ops: Vec<RawOp> = (0..6_000)
            .map(|_| {
                let sel = (rng.next() % 32) as u8;
                // One reconfiguration or flush in ~200 ops.
                let sel = if sel >= 28 && !rng.next().is_multiple_of(40) { sel % 28 } else { sel };
                (sel, rng.next(), rng.next())
            })
            .collect();
        lockstep(geom, 2, rng.next(), rng.next(), &ops);
    }
}
