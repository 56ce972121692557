//! Replacement policies for set-associative structures.
//!
//! Three policies are provided:
//!
//! * **LRU** — exact least-recently-used, kept as per-way timestamps.
//! * **Tree-PLRU** — the binary-tree pseudo-LRU used by real Sandy Bridge
//!   L1/L2 arrays.
//! * **Random** — xorshift-driven victim choice (deterministic per seed).
//!
//! State is stored flat: each set keeps one `u32` replacement *word*
//! inline with its valid/dirty masks (the LRU clock or the tree-PLRU
//! bits), and `FlatRepl` holds everything else for the whole structure
//! — for LRU, one `sets × ways` stamp array. No set owns a heap
//! allocation. Policies must cope with *way gating*: at any time only
//! ways `0..active_ways` are eligible, and the victim returned is always
//! within the active range.

/// Which replacement policy a cache or TLB uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplacementPolicy {
    Lru,
    TreePlru,
    Random,
}

/// Per-way `(clear, set)` touch masks and the 128-entry victim table for
/// the 8-way tree, precomputed at compile time by running the interval
/// walk itself — so the tables are equivalent to the walk by construction.
/// 8-way is the hot case (Sandy Bridge L1/L2); a table lookup replaces
/// three data-dependent branches that mispredict under real way traffic.
const fn plru8_touch_masks() -> ([u32; 8], [u32; 8]) {
    let mut clear = [0u32; 8];
    let mut setv = [0u32; 8];
    let mut way = 0u32;
    while way < 8 {
        let mut lo = 0u32;
        let mut hi = 8u32;
        let mut node = 0u32;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            clear[way as usize] |= 1 << node;
            if way < mid {
                setv[way as usize] |= 1 << node; // point right (away)
                node = 2 * node + 1;
                hi = mid;
            } else {
                node = 2 * node + 2;
                lo = mid;
            }
        }
        way += 1;
    }
    (clear, setv)
}

const fn plru8_victim_table() -> [u8; 128] {
    let mut lut = [0u8; 128];
    let mut bits = 0u32;
    while bits < 128 {
        let mut lo = 0u32;
        let mut hi = 8u32;
        let mut node = 0u32;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if (bits >> node) & 1 == 0 {
                node = 2 * node + 1;
                hi = mid;
            } else {
                node = 2 * node + 2;
                lo = mid;
            }
        }
        lut[bits as usize] = lo as u8;
        bits += 1;
    }
    lut
}

const PLRU8_TOUCH: ([u32; 8], [u32; 8]) = plru8_touch_masks();
const PLRU8_VICTIM: [u8; 128] = plru8_victim_table();

/// The replacement state of every set of one cache or TLB, minus the
/// per-set word the owner keeps inline (see the module docs).
///
/// * LRU: the word is the set's clock. `stamps[set * ways + w]` is way
///   `w`'s last-use stamp; a larger stamp is more recent. Stamps within a
///   set are pairwise distinct, so the victim (the minimum stamp among
///   active ways) is unique — the same total recency order the classic
///   move-to-front list maintains, but `touch` is one store instead of a
///   scan plus two shifts.
/// * Tree-PLRU: the word holds the tree's internal-node bits.
/// * Random: the word is unused; the victim is drawn from the owner's
///   xorshift stream.
#[derive(Clone, Debug)]
pub(crate) struct FlatRepl {
    policy: ReplacementPolicy,
    ways: u32,
    /// LRU only (empty otherwise): `sets × ways` last-use stamps.
    stamps: Vec<u32>,
}

impl FlatRepl {
    pub(crate) fn new(policy: ReplacementPolicy, ways: u32, sets: usize) -> FlatRepl {
        debug_assert!((1..=64).contains(&ways));
        let stamps = match policy {
            ReplacementPolicy::Lru => {
                // Way 0 starts most recent, way `ways-1` is the first victim
                // (the historical fresh-list order).
                let mut stamps = Vec::with_capacity(sets * ways as usize);
                for _ in 0..sets {
                    stamps.extend((0..ways).rev());
                }
                stamps
            }
            ReplacementPolicy::TreePlru | ReplacementPolicy::Random => Vec::new(),
        };
        FlatRepl { policy, ways, stamps }
    }

    /// The word every set starts with: the LRU clock just past the initial
    /// stamps, or an all-zero PLRU tree.
    pub(crate) fn initial_word(&self) -> u32 {
        match self.policy {
            ReplacementPolicy::Lru => self.ways,
            ReplacementPolicy::TreePlru | ReplacementPolicy::Random => 0,
        }
    }

    /// Record a touch (hit or fill) of `way` in `set`, whose inline word
    /// is `word`. Always inlined: it sits on every miss path and every
    /// scanned hit, and its hot arms are a store or a table lookup.
    #[inline(always)]
    pub(crate) fn touch(&mut self, set: usize, word: &mut u32, way: u32) {
        match self.policy {
            ReplacementPolicy::Lru => {
                let base = set * self.ways as usize;
                self.stamps[base + way as usize] = *word;
                *word += 1;
                if *word == u32::MAX {
                    Self::renormalize(&mut self.stamps[base..base + self.ways as usize], word);
                }
            }
            ReplacementPolicy::TreePlru => {
                if self.ways == 8 {
                    *word = (*word & !PLRU8_TOUCH.0[way as usize]) | PLRU8_TOUCH.1[way as usize];
                } else {
                    Self::plru_touch_walk(self.ways, word, way);
                }
            }
            ReplacementPolicy::Random => {}
        }
    }

    /// Tree-PLRU touch for widths without a table: walk from the root to
    /// the leaf for `way`, setting each internal node to point *away*
    /// from the path taken. Kept out of line so `touch` stays small.
    #[inline(never)]
    fn plru_touch_walk(ways: u32, word: &mut u32, way: u32) {
        let mut lo = 0u32;
        let mut hi = ways;
        let mut node = 0u32;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if way < mid {
                *word |= 1 << node; // point right (away)
                node = 2 * node + 1;
                hi = mid;
            } else {
                *word &= !(1 << node); // point left (away)
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    /// Rank-compress one set's stamps back to `0..ways`, preserving the
    /// recency order. Runs once per ~4 G touches of one set.
    #[cold]
    fn renormalize(stamps: &mut [u32], clock: &mut u32) {
        let mut order: Vec<u32> = (0..stamps.len() as u32).collect();
        order.sort_unstable_by_key(|&w| stamps[w as usize]);
        for (rank, &w) in order.iter().enumerate() {
            stamps[w as usize] = rank as u32;
        }
        *clock = stamps.len() as u32;
    }

    /// Choose a victim in `set` (inline word `word`) among ways
    /// `0..active_ways`.
    ///
    /// `rng` supplies randomness for the `Random` policy and is advanced
    /// only under it: LRU and tree-PLRU never read the stream, so no
    /// result depends on whether they draw from it.
    #[inline]
    pub(crate) fn victim(
        &self,
        set: usize,
        word: u32,
        active_ways: u32,
        rng: &mut XorShift64,
    ) -> u32 {
        debug_assert!(active_ways >= 1);
        match self.policy {
            ReplacementPolicy::Lru => {
                // The least recently used way within the active range:
                // unique because stamps are pairwise distinct. Packing
                // (stamp, way) into one u64 makes the reduction a chain
                // of branchless `min`s.
                let base = set * self.ways as usize;
                let row = &self.stamps[base..base + active_ways as usize];
                let mut best = u64::MAX;
                for (w, &s) in row.iter().enumerate() {
                    best = best.min((u64::from(s) << 6) | w as u64);
                }
                (best & 63) as u32
            }
            ReplacementPolicy::TreePlru => {
                let leaf = if self.ways == 8 {
                    PLRU8_VICTIM[(word & 0x7f) as usize] as u32
                } else {
                    let mut lo = 0u32;
                    let mut hi = self.ways;
                    let mut node = 0u32;
                    while hi - lo > 1 {
                        let mid = lo + (hi - lo) / 2;
                        let go_left = (word >> node) & 1 == 0;
                        if go_left {
                            node = 2 * node + 1;
                            hi = mid;
                        } else {
                            node = 2 * node + 2;
                            lo = mid;
                        }
                    }
                    lo
                };
                // If gating pushed the PLRU leaf out of range, clamp into
                // the active ways (hardware gating invalidates high ways).
                leaf.min(active_ways - 1)
            }
            ReplacementPolicy::Random => (rng.next() % active_ways as u64) as u32,
        }
    }
}

/// Minimal deterministic xorshift64* stream.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub fn new(seed: u64) -> Self {
        XorShift64 { state: seed.max(1) }
    }

    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-set structure: its state and its inline word.
    fn one_set(policy: ReplacementPolicy, ways: u32) -> (FlatRepl, u32) {
        let r = FlatRepl::new(policy, ways, 1);
        let word = r.initial_word();
        (r, word)
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let (mut s, mut word) = one_set(ReplacementPolicy::Lru, 4);
        let mut rng = XorShift64::new(1);
        for w in [0u32, 1, 2, 3] {
            s.touch(0, &mut word, w);
        }
        // 0 is oldest now.
        assert_eq!(s.victim(0, word, 4, &mut rng), 0);
        s.touch(0, &mut word, 0);
        assert_eq!(s.victim(0, word, 4, &mut rng), 1);
    }

    #[test]
    fn lru_respects_way_gating() {
        let (mut s, mut word) = one_set(ReplacementPolicy::Lru, 8);
        let mut rng = XorShift64::new(1);
        for w in 0..8 {
            s.touch(0, &mut word, w);
        }
        // With only 2 active ways the victim must be way 0 or 1.
        let v = s.victim(0, word, 2, &mut rng);
        assert!(v < 2);
        assert_eq!(v, 0, "way 0 is least recent among active ways");
    }

    #[test]
    fn lru_renormalizes_at_the_clock_limit_without_reordering() {
        let (mut s, mut word) = one_set(ReplacementPolicy::Lru, 4);
        let mut rng = XorShift64::new(1);
        for w in [2u32, 0, 3, 1] {
            s.touch(0, &mut word, w);
        }
        word = u32::MAX - 1;
        s.touch(0, &mut word, 0); // hits the limit: ranks 2 < 3 < 1 < 0
        assert_eq!(word, 4, "clock restarts just past the ranks");
        assert_eq!(s.stamps, vec![3, 2, 0, 1]);
        assert_eq!(s.victim(0, word, 4, &mut rng), 2);
    }

    #[test]
    fn treeplru_never_immediately_victimizes_the_touched_way() {
        let mut rng = XorShift64::new(7);
        for ways in [2u32, 4, 8, 16, 20] {
            let (mut s, mut word) = one_set(ReplacementPolicy::TreePlru, ways);
            for w in 0..ways {
                s.touch(0, &mut word, w);
                assert_ne!(s.victim(0, word, ways, &mut rng), w, "ways={ways} touched={w}");
            }
        }
    }

    #[test]
    fn treeplru_victim_in_active_range_under_gating() {
        let (mut s, mut word) = one_set(ReplacementPolicy::TreePlru, 8);
        let mut rng = XorShift64::new(3);
        for w in 0..8 {
            s.touch(0, &mut word, w);
            for active in 1..=8u32 {
                assert!(s.victim(0, word, active, &mut rng) < active);
            }
        }
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let (s, word) = one_set(ReplacementPolicy::Random, 8);
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            let va = s.victim(0, word, 5, &mut a);
            assert_eq!(va, s.victim(0, word, 5, &mut b));
            assert!(va < 5);
        }
    }

    #[test]
    fn xorshift_produces_distinct_values() {
        let mut r = XorShift64::new(9);
        let a = r.next();
        let b = r.next();
        assert_ne!(a, b);
    }
}
