//! Allocation counts of cache and TLB construction.
//!
//! No cache or TLB set owns a heap allocation: tags, entries, masks and
//! replacement state are flat arrays. A counting global allocator pins
//! that down — building a structure makes the same number of allocations
//! whatever its set count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use capsim_mem::{CacheGeometry, ReplacementPolicy, SetAssocCache, Tlb, TlbGeometry};

/// Counts allocations made by the current thread, so tests running on
/// other threads cannot disturb a measurement.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let built = f();
    let n = ALLOCATIONS.with(Cell::get) - before;
    drop(built);
    n
}

const POLICIES: [ReplacementPolicy; 3] =
    [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random];

/// Tags and set metadata, plus the flat stamp array under LRU.
fn expected(policy: ReplacementPolicy) -> u64 {
    if policy == ReplacementPolicy::Lru {
        3
    } else {
        2
    }
}

#[test]
fn cache_construction_allocates_a_fixed_number_of_times() {
    for policy in POLICIES {
        for ways in [1u32, 8, 20] {
            // 1 set up to the E5 L3's 16,384.
            for sets_log in [0u32, 3, 9, 14] {
                let geom = CacheGeometry {
                    size_bytes: 64 * ways as u64 * (1 << sets_log),
                    line_bytes: 64,
                    ways,
                    hit_cycles: 4,
                    policy,
                };
                let n = allocations(|| SetAssocCache::new(geom, 7));
                assert_eq!(n, expected(policy), "{policy:?} ways={ways} sets=2^{sets_log}");
            }
        }
    }
}

#[test]
fn tlb_construction_allocates_a_fixed_number_of_times() {
    for policy in POLICIES {
        for ways in [1u32, 4, 8] {
            for sets_log in [0u32, 4, 7, 10] {
                let geom = TlbGeometry { entries: ways << sets_log, ways, policy };
                let n = allocations(|| Tlb::new(geom, 7));
                assert_eq!(n, expected(policy), "{policy:?} ways={ways} sets=2^{sets_log}");
            }
        }
    }
}
