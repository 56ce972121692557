//! Lockstep oracle for the packed cache and TLB.
//!
//! `SetAssocCache` and `Tlb` keep tags in one flat array, each set's
//! valid/dirty masks and replacement word inline, LRU as a flat stamp
//! array and tree-PLRU through precomputed tables. The reference model
//! in `common/` (shared with `reference_hierarchy.rs`) is deliberately
//! naive instead: one `Vec` of ways per set, explicit per-way last-use
//! stamps that never wrap, tree-PLRU walked node by node, linear scans,
//! no packing, and its own xorshift stream.
//! Both run the same proptest op streams — read and write accesses,
//! fills, probes, way gating or entry shrink, and flushes — for every
//! policy and for ways ∈ {1, 2, 4, 8, 16, 20}; after every op the
//! responses, writebacks and statistics must agree.

use proptest::prelude::*;

use capsim_mem::{AccessKind, CacheGeometry, ReplacementPolicy, SetAssocCache, Tlb, TlbGeometry};

mod common;

use common::{RefCache, RefTlb, XorShift64};

const WAYS: [u32; 6] = [1, 2, 4, 8, 16, 20];
const POLICIES: [ReplacementPolicy; 3] =
    [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random];

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
