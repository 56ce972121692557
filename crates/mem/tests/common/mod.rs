//! The naive cache and TLB the lockstep oracles share.
//!
//! Deliberately the obvious model: one `Vec` of ways per set, explicit
//! per-way last-use stamps that never wrap, tree-PLRU walked node by
//! node, linear scans, no packing, no hints and its own xorshift stream.
//! `reference_model.rs` checks `SetAssocCache` and `Tlb` against it one
//! structure at a time; `reference_hierarchy.rs` assembles it into a
//! whole hierarchy.

// Each test binary that includes this module uses a different subset.
#![allow(dead_code)]

use capsim_mem::{CacheResponse, ReplacementPolicy};

/// The xorshift64* stream, restated.
pub struct XorShift64(u64);

impl XorShift64 {
    pub fn new(seed: u64) -> Self {
        XorShift64(seed.max(1))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// One set's replacement state, kept the obvious way.
struct RefRepl {
    policy: ReplacementPolicy,
    /// Per-way last-use stamp; larger is more recent.
    last_use: Vec<u64>,
    clock: u64,
    /// Tree-PLRU internal nodes in heap order (children of `n` are
    /// `2n + 1` and `2n + 2`); `true` points the walk right.
    node_right: Vec<bool>,
}

impl RefRepl {
    fn new(policy: ReplacementPolicy, ways: u32) -> Self {
        RefRepl {
            policy,
            // A fresh set's recency order is way 0 newest, way `ways-1`
            // oldest.
            last_use: (0..ways as u64).rev().collect(),
            clock: ways as u64,
            node_right: vec![false; 2 * ways as usize],
        }
    }

    fn ways(&self) -> u32 {
        self.last_use.len() as u32
    }

    fn touch(&mut self, way: u32) {
        self.last_use[way as usize] = self.clock;
        self.clock += 1;
        // Walk root → leaf, pointing every node on the path away from it.
        let (mut lo, mut hi, mut node) = (0, self.ways(), 0);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if way < mid {
                self.node_right[node] = true;
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.node_right[node] = false;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    /// Every victim choice draws from the stream, whatever the policy.
    fn victim(&self, active: u32, rng: &mut XorShift64) -> u32 {
        let r = rng.next();
        match self.policy {
            ReplacementPolicy::Lru => {
                (0..active).min_by_key(|&w| self.last_use[w as usize]).expect("active ways")
            }
            ReplacementPolicy::TreePlru => {
                let (mut lo, mut hi, mut node) = (0, self.ways(), 0);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if self.node_right[node] {
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo.min(active - 1)
            }
            ReplacementPolicy::Random => (r % active as u64) as u32,
        }
    }
}

#[derive(Clone, Copy, Default)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
}

struct RefSet {
    lines: Vec<RefLine>,
    repl: RefRepl,
}

/// The reference cache.
pub struct RefCache {
    sets: Vec<RefSet>,
    ways: u32,
    pub active: u32,
    rng: XorShift64,
    pub accesses: u64,
    pub misses: u64,
    pub writebacks: u64,
}

impl RefCache {
    pub fn new(policy: ReplacementPolicy, ways: u32, sets: u64, seed: u64) -> Self {
        RefCache {
            sets: (0..sets)
                .map(|_| RefSet {
                    lines: vec![RefLine::default(); ways as usize],
                    repl: RefRepl::new(policy, ways),
                })
                .collect(),
            ways,
            active: ways,
            rng: XorShift64::new(seed),
            accesses: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn split(&self, line: u64) -> (usize, u64) {
        let n = self.sets.len() as u64;
        ((line % n) as usize, line / n)
    }

    fn find(&self, set: usize, tag: u64) -> Option<u32> {
        (0..self.active).find(|&w| {
            let l = self.sets[set].lines[w as usize];
            l.valid && l.tag == tag
        })
    }

    fn install(&mut self, set: usize, tag: u64, dirty: bool) -> Option<u64> {
        let active = self.active;
        let s = &mut self.sets[set];
        let way = (0..active)
            .find(|&w| !s.lines[w as usize].valid)
            .unwrap_or_else(|| s.repl.victim(active, &mut self.rng));
        let old = s.lines[way as usize];
        let mut writeback = None;
        if old.valid && old.dirty {
            writeback = Some(old.tag * self.sets.len() as u64 + set as u64);
            self.writebacks += 1;
        }
        let s = &mut self.sets[set];
        s.lines[way as usize] = RefLine { tag, valid: true, dirty };
        s.repl.touch(way);
        writeback
    }

    pub fn access(&mut self, line: u64, write: bool) -> CacheResponse {
        self.accesses += 1;
        let (set, tag) = self.split(line);
        if let Some(way) = self.find(set, tag) {
            let s = &mut self.sets[set];
            s.repl.touch(way);
            s.lines[way as usize].dirty |= write;
            return CacheResponse { hit: true, writeback: None };
        }
        self.misses += 1;
        CacheResponse { hit: false, writeback: self.install(set, tag, write) }
    }

    pub fn fill(&mut self, line: u64) -> CacheResponse {
        let (set, tag) = self.split(line);
        if self.find(set, tag).is_some() {
            return CacheResponse { hit: true, writeback: None };
        }
        CacheResponse { hit: false, writeback: self.install(set, tag, false) }
    }

    pub fn probe(&self, line: u64) -> bool {
        let (set, tag) = self.split(line);
        self.find(set, tag).is_some()
    }

    pub fn set_active_ways(&mut self, ways: u32) -> u64 {
        let ways = ways.clamp(1, self.ways);
        let mut flushed = 0;
        for s in &mut self.sets {
            for l in &mut s.lines[ways as usize..] {
                if l.valid && l.dirty {
                    flushed += 1;
                }
                *l = RefLine { valid: false, dirty: false, ..*l };
            }
        }
        self.writebacks += flushed;
        self.active = ways;
        flushed
    }

    pub fn flush_all(&mut self) {
        for s in &mut self.sets {
            for l in &mut s.lines {
                *l = RefLine { valid: false, dirty: false, ..*l };
            }
        }
    }
}

#[derive(Clone, Copy, Default)]
struct RefEntry {
    vpn: u64,
    ppn: u64,
    valid: bool,
}

struct RefTlbSet {
    entries: Vec<RefEntry>,
    repl: RefRepl,
}

/// The reference TLB.
pub struct RefTlb {
    sets: Vec<RefTlbSet>,
    ways: u32,
    active: u32,
    rng: XorShift64,
    pub lookups: u64,
    pub misses: u64,
}

impl RefTlb {
    pub fn new(policy: ReplacementPolicy, ways: u32, sets: u32, seed: u64) -> Self {
        RefTlb {
            sets: (0..sets)
                .map(|_| RefTlbSet {
                    entries: vec![RefEntry::default(); ways as usize],
                    repl: RefRepl::new(policy, ways),
                })
                .collect(),
            ways,
            active: ways,
            rng: XorShift64::new(seed),
            lookups: 0,
            misses: 0,
        }
    }

    pub fn lookup(&mut self, vpn: u64) -> Option<u64> {
        self.lookups += 1;
        let set = (vpn % self.sets.len() as u64) as usize;
        let s = &mut self.sets[set];
        for w in 0..self.active {
            let e = s.entries[w as usize];
            if e.valid && e.vpn == vpn {
                s.repl.touch(w);
                return Some(e.ppn);
            }
        }
        self.misses += 1;
        None
    }

    pub fn insert(&mut self, vpn: u64, ppn: u64) {
        let active = self.active;
        let set = (vpn % self.sets.len() as u64) as usize;
        let s = &mut self.sets[set];
        let way = (0..active)
            .find(|&w| !s.entries[w as usize].valid)
            .unwrap_or_else(|| s.repl.victim(active, &mut self.rng));
        s.entries[way as usize] = RefEntry { vpn, ppn, valid: true };
        s.repl.touch(way);
    }

    pub fn set_active_entries(&mut self, entries: u32) {
        let ways = (entries / self.sets.len() as u32).clamp(1, self.ways);
        for s in &mut self.sets {
            for e in &mut s.entries[ways as usize..] {
                e.valid = false;
            }
        }
        self.active = ways;
    }

    pub fn flush(&mut self) {
        for s in &mut self.sets {
            for e in &mut s.entries {
                e.valid = false;
            }
        }
    }

    pub fn active_entries(&self) -> u32 {
        self.active * self.sets.len() as u32
    }
}
