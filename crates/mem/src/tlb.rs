//! Translation lookaside buffers with runtime entry shrink.
//!
//! The TLB caches VPN→PPN translations. Entry shrink
//! ([`Tlb::set_active_entries`]) models the power-saving TLB
//! reconfiguration the paper infers behind the 6,395%/8,481% iTLB-miss
//! blowups at the 125/120 W caps: entries beyond the active count are
//! invalidated and excluded from lookup, so a code or data footprint that
//! comfortably fit before now thrashes.

use crate::config::TlbGeometry;
use crate::replacement::{FlatRepl, XorShift64};

/// Per-set bookkeeping kept alongside the packed entry array: the valid
/// way bitmask, the set's inline replacement word (see [`FlatRepl`]) and
/// its MRU hint, which fills what would otherwise be padding.
#[derive(Clone, Copy, Debug)]
struct TlbSetMeta {
    valid: u64,
    repl: u32,
    /// The way this set's last scanned hit found ([`NO_HINT`] after an
    /// insert). [`Tlb::lookup`] tests it before scanning; it is trusted
    /// only while that way is active and valid, so shrink and flushes
    /// need not clear it.
    mru: u32,
}

/// A hint no lookup trusts: no way index reaches it.
const NO_HINT: u32 = u32::MAX;

/// A set-associative TLB. Entry shrink removes whole ways (uniformly
/// across sets), mirroring how SRAM banks gate.
///
/// Entries are stored packed like the caches' tags: one flat
/// `sets × ways` array of `(vpn, ppn)` pairs, with each set's valid mask
/// and replacement word inline, so no set owns a heap allocation.
#[derive(Clone, Debug)]
pub struct Tlb {
    geom: TlbGeometry,
    active_ways: u32,
    /// Entry `w` of set `s` lives at `s * geom.ways + w`.
    entries: Vec<(u64, u64)>,
    meta: Vec<TlbSetMeta>,
    repl: FlatRepl,
    set_mask: u64,
    rng: XorShift64,
    lookups: u64,
    misses: u64,
}

impl Tlb {
    pub fn new(geom: TlbGeometry, seed: u64) -> Self {
        geom.validate();
        let sets = geom.sets() as usize;
        let repl = FlatRepl::new(geom.policy, geom.ways, sets);
        Tlb {
            geom,
            active_ways: geom.ways,
            entries: vec![(0, 0); sets * geom.ways as usize],
            meta: vec![TlbSetMeta { valid: 0, repl: repl.initial_word(), mru: NO_HINT }; sets],
            repl,
            set_mask: geom.sets() as u64 - 1,
            rng: XorShift64::new(seed),
            lookups: 0,
            misses: 0,
        }
    }

    pub fn geometry(&self) -> &TlbGeometry {
        &self.geom
    }

    /// Entries currently active (ways × sets).
    pub fn active_entries(&self) -> u32 {
        self.active_ways * self.geom.sets()
    }

    /// Look up `vpn`. On a hit returns the cached PPN; on a miss returns
    /// `None` (the caller performs the page walk and then calls
    /// [`Tlb::insert`]).
    ///
    /// A hit on the set's MRU way skips the scan and the replacement
    /// update, exactly as in [`crate::SetAssocCache::access`].
    #[inline]
    pub fn lookup(&mut self, vpn: u64) -> Option<u64> {
        self.lookups += 1;
        let si = (vpn & self.set_mask) as usize;
        let base = si * self.geom.ways as usize;
        let meta = &mut self.meta[si];
        let mru = meta.mru;
        if mru < self.active_ways && meta.valid >> mru & 1 != 0 {
            let (v, ppn) = self.entries[base + mru as usize];
            if v == vpn {
                return Some(ppn);
            }
        }
        let row = &self.entries[base..base + self.active_ways as usize];
        for (way, &(v, ppn)) in row.iter().enumerate() {
            if meta.valid & (1u64 << way) != 0 && v == vpn {
                self.repl.touch(si, &mut meta.repl, way as u32);
                meta.mru = way as u32;
                return Some(ppn);
            }
        }
        self.misses += 1;
        None
    }

    /// Install a translation after a walk.
    ///
    /// Inserting a VPN that is already resident leaves a duplicate
    /// (the hierarchy never does this; its callers insert after a miss),
    /// and lookups must keep answering from the lowest matching way. So
    /// an insert clears the set's hint, and the next lookup's scan sets
    /// it to the way the scan finds.
    pub fn insert(&mut self, vpn: u64, ppn: u64) {
        let si = (vpn & self.set_mask) as usize;
        let active = self.active_ways;
        let meta = &mut self.meta[si];
        let way = (0..active)
            .find(|&w| meta.valid & (1 << w) == 0)
            .unwrap_or_else(|| self.repl.victim(si, meta.repl, active, &mut self.rng));
        self.entries[si * self.geom.ways as usize + way as usize] = (vpn, ppn);
        meta.valid |= 1 << way;
        self.repl.touch(si, &mut meta.repl, way);
        meta.mru = NO_HINT;
    }

    /// Shrink (or re-grow) the active entry count. `entries` is rounded
    /// down to a whole number of ways and clamped to at least one way's
    /// worth. Invalidated entries are lost.
    pub fn set_active_entries(&mut self, entries: u32) {
        let per_way = self.geom.sets();
        let ways = (entries / per_way).clamp(1, self.geom.ways);
        if ways < self.active_ways {
            for meta in &mut self.meta {
                for w in ways..self.active_ways {
                    meta.valid &= !(1u64 << w);
                }
            }
        }
        self.active_ways = ways;
    }

    /// Drop every cached translation (context switch / reset).
    pub fn flush(&mut self) {
        for meta in &mut self.meta {
            meta.valid = 0;
        }
    }

    /// (lookups, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use crate::replacement::ReplacementPolicy;

    fn tlb(entries: u32, ways: u32) -> Tlb {
        Tlb::new(TlbGeometry { entries, ways, policy: ReplacementPolicy::Lru }, 7)
    }

    #[test]
    fn tlb_set_meta_keeps_the_hint_in_its_padding() {
        assert_eq!(std::mem::size_of::<TlbSetMeta>(), 16);
    }

    #[test]
    fn miss_then_hit_after_insert() {
        let mut t = tlb(16, 4);
        assert_eq!(t.lookup(5), None);
        t.insert(5, 500);
        assert_eq!(t.lookup(5), Some(500));
        assert_eq!(t.stats(), (2, 1));
    }

    #[test]
    fn footprint_within_reach_never_misses_after_warmup() {
        let mut t = tlb(64, 4);
        for vpn in 0..64u64 {
            if t.lookup(vpn).is_none() {
                t.insert(vpn, vpn + 1000);
            }
        }
        let (_, m0) = t.stats();
        for _ in 0..10 {
            for vpn in 0..64u64 {
                assert!(t.lookup(vpn).is_some());
            }
        }
        assert_eq!(t.stats().1, m0);
    }

    #[test]
    fn shrink_causes_thrashing_on_previously_fitting_footprint() {
        let mut t = tlb(64, 4);
        // Warm 48 pages (fits in 64 entries).
        for vpn in 0..48u64 {
            if t.lookup(vpn).is_none() {
                t.insert(vpn, vpn);
            }
        }
        t.set_active_entries(16); // 1 way x 16 sets
        let (_, m0) = t.stats();
        let mut misses = 0;
        for _ in 0..5 {
            for vpn in 0..48u64 {
                if t.lookup(vpn).is_none() {
                    t.insert(vpn, vpn);
                    misses += 1;
                }
            }
        }
        assert!(misses >= 5 * 48 / 2, "shrunk TLB thrashes: {misses}");
        assert!(t.stats().1 > m0);
    }

    #[test]
    fn shrink_clamps_to_at_least_one_way() {
        let mut t = tlb(16, 4);
        t.set_active_entries(0);
        assert_eq!(t.active_entries(), 4); // one way x 4 sets
        t.insert(9, 90);
        assert_eq!(t.lookup(9), Some(90));
    }

    #[test]
    fn regrow_restores_capacity_but_not_contents() {
        let mut t = tlb(16, 4);
        t.insert(1, 10);
        t.set_active_entries(4);
        t.set_active_entries(16);
        assert_eq!(t.active_entries(), 16);
        // Entry may have been in a gated way; at minimum the TLB works.
        t.insert(2, 20);
        assert_eq!(t.lookup(2), Some(20));
    }

    #[test]
    fn e5_itlb_geometry() {
        let g = HierarchyConfig::e5_2680().itlb;
        let t = Tlb::new(g, 1);
        assert_eq!(t.active_entries(), 128);
    }
}
