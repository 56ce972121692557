//! A generic set-associative, write-back, write-allocate cache with
//! runtime way gating.
//!
//! The cache stores no data, only tags: capsim workloads keep their real
//! data in host memory and mirror addresses through the hierarchy, so the
//! cache's job is purely to decide hit/miss/writeback and account for them.
//!
//! *Way gating* (`set_active_ways`) is the dynamic-cache-reconfiguration
//! mechanism the paper infers at low power caps: disabling ways reduces
//! array power at the cost of effective associativity/capacity. Gated ways
//! are flushed (dirty lines count as writebacks) and are ignored by lookup
//! until re-enabled.

use crate::config::CacheGeometry;
use crate::replacement::{FlatRepl, XorShift64};

/// Whether an access is a read or a write (write-allocate either way).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Outcome of a single cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheResponse {
    /// True if the line was resident (in an *active* way).
    pub hit: bool,
    /// Line address of a dirty line evicted to make room, if any. The
    /// caller is responsible for charging the writeback to the next level.
    pub writeback: Option<u64>,
}

/// Per-set bookkeeping kept alongside the packed tag array: valid/dirty
/// way bitmasks, the set's inline replacement word (the LRU clock or the
/// tree-PLRU bits; see [`FlatRepl`]) and its MRU hint, which fills what
/// would otherwise be padding.
#[derive(Clone, Copy, Debug)]
struct SetMeta {
    valid: u64,
    dirty: u64,
    repl: u32,
    /// The way this set touched last. [`SetAssocCache::access`] tests it
    /// before scanning; it is trusted only while that way is active and
    /// valid, so gating and flushes need not clear it.
    mru: u32,
}

/// One cache level. Addresses passed in are **line numbers** (physical
/// address / line size); the caller does the division once.
///
/// Tags are stored packed — one flat `sets × ways` array instead of a
/// `Vec` per set — so a lookup touches one contiguous slice (one cache
/// line for ≤8 ways) rather than chasing a per-set heap pointer, and the
/// tag/valid scan fuses into a single pass. Replacement state is flat the
/// same way: no set owns a heap allocation, so construction makes the
/// same few allocations whatever the set count.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    geom: CacheGeometry,
    /// `geom.ways`, hoisted: the row stride of `tags`.
    ways: u32,
    active_ways: u32,
    set_mask: u64,
    set_shift: u32,
    /// Packed tag array: way `w` of set `s` lives at `s * ways + w`.
    tags: Vec<u64>,
    meta: Vec<SetMeta>,
    repl: FlatRepl,
    rng: XorShift64,
    // statistics
    accesses: u64,
    misses: u64,
    writebacks: u64,
}

impl SetAssocCache {
    pub fn new(geom: CacheGeometry, seed: u64) -> Self {
        geom.validate();
        let n_sets = geom.sets();
        let repl = FlatRepl::new(geom.policy, geom.ways, n_sets as usize);
        let meta = vec![
            SetMeta { valid: 0, dirty: 0, repl: repl.initial_word(), mru: 0 };
            n_sets as usize
        ];
        SetAssocCache {
            geom,
            ways: geom.ways,
            active_ways: geom.ways,
            set_mask: n_sets - 1,
            set_shift: n_sets.trailing_zeros(),
            tags: vec![0; (n_sets * geom.ways as u64) as usize],
            meta,
            repl,
            rng: XorShift64::new(seed),
            accesses: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The configured geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Ways currently enabled.
    pub fn active_ways(&self) -> u32 {
        self.active_ways
    }

    /// Hit latency in core cycles.
    pub fn hit_cycles(&self) -> u32 {
        self.geom.hit_cycles
    }

    #[inline]
    fn index(&self, line: u64) -> (usize, u64) {
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        (set, tag)
    }

    /// Bitmask with the low `active` bits set (active ways ≤ 64).
    #[inline]
    fn active_mask(active: u32) -> u64 {
        u64::MAX >> (64 - active)
    }

    /// The way holding `tag` in set `si`, if it is resident in an active
    /// way. An 8-way row compares all eight tags without branching and
    /// takes the lowest match among valid active ways; other widths use a
    /// fused tag/valid scan, one early-exit pass over the packed row that
    /// walks the valid mask alongside. Each measured faster on its own
    /// width (DESIGN.md §3).
    #[inline]
    fn find(&self, si: usize, tag: u64) -> Option<u32> {
        let base = si * self.ways as usize;
        let valid = self.meta[si].valid;
        if self.ways == 8 {
            let row: &[u64; 8] = self.tags[base..base + 8].try_into().expect("8-way row");
            let mut hits = 0u64;
            for (w, &t) in row.iter().enumerate() {
                hits |= u64::from(t == tag) << w;
            }
            hits &= valid & Self::active_mask(self.active_ways);
            return (hits != 0).then(|| hits.trailing_zeros());
        }
        let mut valid = valid;
        for (w, &t) in self.tags[base..base + self.active_ways as usize].iter().enumerate() {
            if valid & 1 != 0 && t == tag {
                return Some(w as u32);
            }
            valid >>= 1;
        }
        None
    }

    /// The miss path of [`Self::access`] and [`Self::fill`]: install `tag`
    /// in set `si` — in the lowest invalid active way, else the policy
    /// victim — marked dirty or clean, and return the evicted line if it
    /// was dirty.
    #[inline]
    fn install(&mut self, si: usize, tag: u64, dirty: bool) -> Option<u64> {
        let active = self.active_ways;
        let meta = &mut self.meta[si];
        let invalid = !meta.valid & Self::active_mask(active);
        let way = if invalid != 0 {
            invalid.trailing_zeros()
        } else {
            self.repl.victim(si, meta.repl, active, &mut self.rng)
        };
        let bit = 1u64 << way;
        let slot = &mut self.tags[si * self.ways as usize + way as usize];
        let mut writeback = None;
        if meta.valid & bit != 0 && meta.dirty & bit != 0 {
            writeback = Some((*slot << self.set_shift) | si as u64);
            self.writebacks += 1;
        }
        *slot = tag;
        meta.valid |= bit;
        if dirty {
            meta.dirty |= bit;
        } else {
            meta.dirty &= !bit;
        }
        self.repl.touch(si, &mut meta.repl, way);
        meta.mru = way;
        writeback
    }

    /// Access `line`; fill on miss. Returns hit/miss and any dirty victim.
    ///
    /// A hit on the set's MRU way skips both the scan and the replacement
    /// update. Skipping the touch is exact: touching the most recent way
    /// again leaves the tree-PLRU bits unchanged, and under LRU it only
    /// advances the clock, whose value no result depends on (stamps keep
    /// their order, and renormalisation preserves it).
    #[inline]
    pub fn access(&mut self, line: u64, kind: AccessKind) -> CacheResponse {
        self.accesses += 1;
        let (si, tag) = self.index(line);
        let meta = &mut self.meta[si];
        let mru = meta.mru;
        if mru < self.active_ways
            && meta.valid >> mru & 1 != 0
            && self.tags[si * self.ways as usize + mru as usize] == tag
        {
            if kind == AccessKind::Write {
                meta.dirty |= 1u64 << mru;
            }
            return CacheResponse { hit: true, writeback: None };
        }
        if let Some(way) = self.find(si, tag) {
            let meta = &mut self.meta[si];
            self.repl.touch(si, &mut meta.repl, way);
            meta.mru = way;
            if kind == AccessKind::Write {
                meta.dirty |= 1u64 << way;
            }
            return CacheResponse { hit: true, writeback: None };
        }
        self.misses += 1;
        let writeback = self.install(si, tag, kind == AccessKind::Write);
        CacheResponse { hit: false, writeback }
    }

    /// Probe without filling or updating statistics/replacement. Used by
    /// tests and by the technique detector.
    pub fn probe(&self, line: u64) -> bool {
        let (si, tag) = self.index(line);
        self.find(si, tag).is_some()
    }

    /// Install a line without classifying the access (used by
    /// prefetchers), in one scan of its set. `hit` reports that the line
    /// was already resident — it is then left alone, like a probe: no
    /// statistics, no replacement update. Otherwise the line is filled
    /// clean and `writeback` carries any dirty victim.
    #[inline]
    pub fn fill(&mut self, line: u64) -> CacheResponse {
        let (si, tag) = self.index(line);
        if self.find(si, tag).is_some() {
            return CacheResponse { hit: true, writeback: None };
        }
        CacheResponse { hit: false, writeback: self.install(si, tag, false) }
    }

    /// Gate or un-gate ways. Shrinking flushes the disabled ways: their
    /// valid bits are cleared and dirty lines are counted as writebacks.
    /// Returns the number of dirty lines flushed.
    pub fn set_active_ways(&mut self, ways: u32) -> u64 {
        let ways = ways.clamp(1, self.geom.ways);
        let mut flushed = 0;
        if ways < self.active_ways {
            // Bits [ways, active_ways) are the gated-off ways of every set.
            let gated = Self::active_mask(self.active_ways) & !Self::active_mask(ways);
            for meta in &mut self.meta {
                let dirty_gated = (meta.valid & meta.dirty & gated).count_ones() as u64;
                flushed += dirty_gated;
                self.writebacks += dirty_gated;
                meta.valid &= !gated;
                meta.dirty &= !gated;
            }
        }
        self.active_ways = ways;
        flushed
    }

    /// Invalidate everything (e.g. on machine reset).
    pub fn flush_all(&mut self) {
        for meta in &mut self.meta {
            meta.valid = 0;
            meta.dirty = 0;
        }
    }

    /// (accesses, misses, writebacks) since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.accesses, self.misses, self.writebacks)
    }

    /// Effective capacity in bytes given current way gating.
    pub fn effective_bytes(&self) -> u64 {
        self.geom.sets() * self.geom.line_bytes * self.active_ways as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use crate::replacement::ReplacementPolicy;

    fn small(ways: u32, policy: ReplacementPolicy) -> SetAssocCache {
        let geom = CacheGeometry {
            size_bytes: 64 * ways as u64 * 4, // 4 sets
            line_bytes: 64,
            ways,
            hit_cycles: 4,
            policy,
        };
        SetAssocCache::new(geom, 99)
    }

    #[test]
    fn set_meta_keeps_the_hint_in_its_padding() {
        assert_eq!(std::mem::size_of::<SetMeta>(), 24);
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = small(4, ReplacementPolicy::Lru);
        assert!(!c.access(10, AccessKind::Read).hit);
        assert!(c.access(10, AccessKind::Read).hit);
        assert_eq!(c.stats(), (2, 1, 0));
    }

    #[test]
    fn capacity_eviction_follows_lru() {
        let mut c = small(2, ReplacementPolicy::Lru);
        // Lines mapping to set 0: multiples of 4.
        c.access(0, AccessKind::Read);
        c.access(4, AccessKind::Read);
        c.access(8, AccessKind::Read); // evicts line 0
        assert!(!c.probe(0));
        assert!(c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn dirty_eviction_reports_writeback_of_correct_line() {
        let mut c = small(1, ReplacementPolicy::Lru);
        c.access(0, AccessKind::Write);
        let r = c.access(4, AccessKind::Read); // conflicts in set 0
        assert_eq!(r.writeback, Some(0));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small(1, ReplacementPolicy::Lru);
        c.access(0, AccessKind::Read);
        let r = c.access(4, AccessKind::Read);
        assert_eq!(r.writeback, None);
    }

    #[test]
    fn way_gating_halves_effective_capacity_and_flushes() {
        let mut c = small(4, ReplacementPolicy::Lru);
        for l in [0u64, 4, 8, 12] {
            c.access(l, AccessKind::Write); // fill 4 ways of set 0, dirty
        }
        let flushed = c.set_active_ways(2);
        assert_eq!(flushed, 2, "two dirty ways gated off in set 0");
        assert_eq!(c.effective_bytes(), c.geometry().sets() * 64 * 2);
        // Only 2 lines can now live in set 0.
        c.flush_all();
        c.access(0, AccessKind::Read);
        c.access(4, AccessKind::Read);
        c.access(8, AccessKind::Read);
        assert!(!c.probe(0), "gated set holds only 2 lines");
    }

    #[test]
    fn gated_cache_still_functions_with_one_way() {
        let mut c = small(8, ReplacementPolicy::TreePlru);
        c.set_active_ways(1);
        assert!(!c.access(3, AccessKind::Read).hit);
        assert!(c.access(3, AccessKind::Read).hit);
        assert!(!c.access(7, AccessKind::Read).hit);
        assert!(!c.access(3, AccessKind::Read).hit, "direct-mapped conflict");
    }

    #[test]
    fn ungating_restores_associativity_without_resurrecting_lines() {
        let mut c = small(4, ReplacementPolicy::Lru);
        c.access(0, AccessKind::Read); // fills way 0
        c.access(4, AccessKind::Read); // fills way 1 (same set)
        c.set_active_ways(1); // way 1 flushed, way 0 survives
        c.set_active_ways(4);
        assert!(c.probe(0), "line in a surviving way remains");
        assert!(!c.probe(4), "flushed lines stay flushed after ungating");
    }

    #[test]
    fn prefetch_fill_does_not_count_as_demand_access() {
        let mut c = small(4, ReplacementPolicy::Lru);
        assert!(!c.fill(5).hit);
        assert_eq!(c.stats().0, 0);
        assert!(c.fill(5).hit, "a second fill finds the line resident");
        assert!(c.access(5, AccessKind::Read).hit);
    }

    #[test]
    fn streaming_through_e5_l3_misses_every_new_line() {
        // A working set far larger than the cache produces ~100% misses:
        // the regime that makes SIRE/RSM insensitive to way gating.
        let geom = HierarchyConfig::e5_2680().l3;
        let mut c = SetAssocCache::new(geom, 1);
        let lines = (geom.size_bytes / 64) * 4;
        let mut misses = 0;
        for l in 0..lines {
            if !c.access(l, AccessKind::Read).hit {
                misses += 1;
            }
        }
        assert_eq!(misses, lines);
        // Second sweep of a >4x working set still misses everything (LRU).
        let (_, m0, _) = c.stats();
        for l in 0..lines {
            c.access(l, AccessKind::Read);
        }
        let (_, m1, _) = c.stats();
        assert_eq!(m1 - m0, lines);
    }

    #[test]
    fn cache_resident_set_hits_after_warmup_then_suffers_under_gating() {
        let geom = HierarchyConfig::e5_2680().l2; // 256 KiB, 8-way
        let mut c = SetAssocCache::new(geom, 1);
        let lines = geom.size_bytes / 64 / 2; // half capacity
        for l in 0..lines {
            c.access(l, AccessKind::Read);
        }
        let (_, m_warm, _) = c.stats();
        for l in 0..lines {
            assert!(c.access(l, AccessKind::Read).hit);
        }
        assert_eq!(c.stats().1, m_warm, "no misses while resident");
        // Gate to 2 ways: capacity below working set -> misses return.
        c.set_active_ways(2);
        let mut miss = 0u64;
        for _ in 0..3 {
            for l in 0..lines {
                if !c.access(l, AccessKind::Read).hit {
                    miss += 1;
                }
            }
        }
        assert!(miss > lines, "gating reintroduces capacity misses");
    }
}
