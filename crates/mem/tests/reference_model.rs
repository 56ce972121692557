//! Lockstep oracle for the packed cache and TLB.
//!
//! `SetAssocCache` and `Tlb` keep tags in one flat array, each set's
//! valid/dirty masks and replacement word inline, LRU as a flat stamp
//! array and tree-PLRU through precomputed tables. The reference model
//! below is deliberately naive instead: one `Vec` of ways per set,
//! explicit per-way last-use stamps that never wrap, tree-PLRU walked
//! node by node, linear scans, no packing, and its own xorshift stream.
//! Both run the same proptest op streams — read and write accesses,
//! fills, probes, way gating or entry shrink, and flushes — for every
//! policy and for ways ∈ {1, 2, 4, 8, 16, 20}; after every op the
//! responses, writebacks and statistics must agree.

use proptest::prelude::*;

use capsim_mem::{
    AccessKind, CacheGeometry, CacheResponse, ReplacementPolicy, SetAssocCache, Tlb, TlbGeometry,
};

const WAYS: [u32; 6] = [1, 2, 4, 8, 16, 20];
const POLICIES: [ReplacementPolicy; 3] =
    [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random];

/// The xorshift64* stream, restated.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed.max(1))
    }

    fn next(&mut self) -> u64 {
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
struct RefCache {
    sets: Vec<RefSet>,
    ways: u32,
    active: u32,
    rng: XorShift64,
    accesses: u64,
    misses: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(policy: ReplacementPolicy, ways: u32, sets: u64, seed: u64) -> Self {
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

    fn access(&mut self, line: u64, write: bool) -> CacheResponse {
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

    fn fill(&mut self, line: u64) -> CacheResponse {
        let (set, tag) = self.split(line);
        if self.find(set, tag).is_some() {
            return CacheResponse { hit: true, writeback: None };
        }
        CacheResponse { hit: false, writeback: self.install(set, tag, false) }
    }

    fn probe(&self, line: u64) -> bool {
        let (set, tag) = self.split(line);
        self.find(set, tag).is_some()
    }

    fn set_active_ways(&mut self, ways: u32) -> u64 {
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

    fn flush_all(&mut self) {
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
struct RefTlb {
    sets: Vec<RefTlbSet>,
    ways: u32,
    active: u32,
    rng: XorShift64,
    lookups: u64,
    misses: u64,
}

impl RefTlb {
    fn new(policy: ReplacementPolicy, ways: u32, sets: u32, seed: u64) -> Self {
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

    fn lookup(&mut self, vpn: u64) -> Option<u64> {
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

    fn insert(&mut self, vpn: u64, ppn: u64) {
        let active = self.active;
        let set = (vpn % self.sets.len() as u64) as usize;
        let s = &mut self.sets[set];
        let way = (0..active)
            .find(|&w| !s.entries[w as usize].valid)
            .unwrap_or_else(|| s.repl.victim(active, &mut self.rng));
        s.entries[way as usize] = RefEntry { vpn, ppn, valid: true };
        s.repl.touch(way);
    }

    fn set_active_entries(&mut self, entries: u32) {
        let ways = (entries / self.sets.len() as u32).clamp(1, self.ways);
        for s in &mut self.sets {
            for e in &mut s.entries[ways as usize..] {
                e.valid = false;
            }
        }
        self.active = ways;
    }

    fn flush(&mut self) {
        for s in &mut self.sets {
            for e in &mut s.entries {
                e.valid = false;
            }
        }
    }

    fn active_entries(&self) -> u32 {
        self.active * self.sets.len() as u32
    }
}

/// One raw op: a selector, an operand and a write flag, decoded per
/// geometry so a single stream drives every policy and associativity.
type RawOp = (u8, u64, bool);

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((0u8..20, any::<u64>(), any::<bool>()), 1..250)
}

/// Drive the cache and the reference through `ops`, comparing every step.
fn cache_lockstep(policy: ReplacementPolicy, ways: u32, sets: u64, seed: u64, ops: &[RawOp]) {
    let geom = CacheGeometry {
        size_bytes: 64 * ways as u64 * sets,
        line_bytes: 64,
        ways,
        hit_cycles: 4,
        policy,
    };
    let mut fast = SetAssocCache::new(geom, seed);
    let mut slow = RefCache::new(policy, ways, sets, seed);
    // Twice the capacity in distinct lines: hits, conflicts and evictions.
    let span = 2 * ways as u64 * sets;
    for (i, &(sel, x, write)) in ops.iter().enumerate() {
        let line = x % span;
        let ctx = || format!("{policy:?} ways={ways} sets={sets} op {i} ({sel}, {line}, {write})");
        match sel {
            0..=11 => {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                assert_eq!(fast.access(line, kind), slow.access(line, write), "{}", ctx());
            }
            12..=14 => assert_eq!(fast.fill(line), slow.fill(line), "{}", ctx()),
            15..=16 => assert_eq!(fast.probe(line), slow.probe(line), "{}", ctx()),
            17..=18 => {
                let gate = (x % (ways as u64 + 3)) as u32;
                assert_eq!(fast.set_active_ways(gate), slow.set_active_ways(gate), "{}", ctx());
            }
            _ => {
                fast.flush_all();
                slow.flush_all();
            }
        }
        assert_eq!(fast.stats(), (slow.accesses, slow.misses, slow.writebacks), "{}", ctx());
        assert_eq!(fast.active_ways(), slow.active, "{}", ctx());
    }
    // Final residency of every line agrees too.
    for line in 0..span {
        assert_eq!(fast.probe(line), slow.probe(line), "{policy:?} ways={ways} line {line}");
    }
}

/// Drive the TLB and the reference through `ops`, comparing every step.
fn tlb_lockstep(policy: ReplacementPolicy, ways: u32, sets: u32, seed: u64, ops: &[RawOp]) {
    let mut fast = Tlb::new(TlbGeometry { entries: ways * sets, ways, policy }, seed);
    let mut slow = RefTlb::new(policy, ways, sets, seed);
    let span = 2 * (ways * sets) as u64;
    for (i, &(sel, x, flag)) in ops.iter().enumerate() {
        let vpn = x % span;
        let ctx = || format!("{policy:?} ways={ways} sets={sets} op {i} ({sel}, {vpn}, {flag})");
        match sel {
            0..=9 => assert_eq!(fast.lookup(vpn), slow.lookup(vpn), "{}", ctx()),
            10..=15 => {
                // Insert after a miss, as the hierarchy does; with `flag`,
                // re-insert a resident page too.
                let hit = fast.lookup(vpn);
                assert_eq!(hit, slow.lookup(vpn), "{}", ctx());
                if flag || hit.is_none() {
                    let ppn = x >> 20;
                    fast.insert(vpn, ppn);
                    slow.insert(vpn, ppn);
                }
            }
            16..=18 => {
                let entries = (x % ((ways + 2) * sets) as u64) as u32;
                fast.set_active_entries(entries);
                slow.set_active_entries(entries);
            }
            _ => {
                fast.flush();
                slow.flush();
            }
        }
        assert_eq!(fast.stats(), (slow.lookups, slow.misses), "{}", ctx());
        assert_eq!(fast.active_entries(), slow.active_entries(), "{}", ctx());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The packed cache answers every op exactly like the reference.
    #[test]
    fn cache_matches_the_reference_model(
        ops in raw_ops(),
        sets_log in 0u32..3,
        seed in any::<u64>(),
    ) {
        for policy in POLICIES {
            for ways in WAYS {
                cache_lockstep(policy, ways, 1 << sets_log, seed, &ops);
            }
        }
    }

    /// The packed TLB answers every op exactly like the reference.
    #[test]
    fn tlb_matches_the_reference_model(
        ops in raw_ops(),
        sets_log in 0u32..3,
        seed in any::<u64>(),
    ) {
        for policy in POLICIES {
            for ways in WAYS {
                tlb_lockstep(policy, ways, 1 << sets_log, seed, &ops);
            }
        }
    }
}

/// A long single-set stream under LRU: every access past the warm-up
/// evicts, so the victim choice is exercised thousands of times in a row.
#[test]
fn long_lru_conflict_stream_matches_the_reference_model() {
    let mut rng = XorShift64::new(0x00c0_ffee);
    let ops: Vec<RawOp> =
        (0..20_000).map(|_| ((rng.next() % 12) as u8, rng.next(), false)).collect();
    for ways in WAYS {
        cache_lockstep(ReplacementPolicy::Lru, ways, 1, 3, &ops);
    }
}
