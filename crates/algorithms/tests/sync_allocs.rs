//! Allocation regression test for the sync layer.
//!
//! Its own test binary because it installs a counting global allocator,
//! and holds a single test so no other test allocates while it counts.
//! `run_sync(Luby)` on `circulant(n, 4)` must allocate a fixed number of
//! buffers however large `n` is: per-vertex or per-round heap traffic in
//! the adapter (the engine plus the sync layer) would make the count grow
//! with `n`. The same holds for a sharded run on a tree, where most edges
//! cross the cut between the two shards: cross-shard messages must not go
//! through per-sweep buffers that grow with the number of messages.

use local_algorithms::mis::luby::Luby;
use local_algorithms::{run_sync, SyncAlgorithm, SyncCtx, SyncStep};
use local_graphs::gen;
use local_model::{ExecSpec, Mode, NodeInit};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Calls that obtain memory (`alloc`, `alloc_zeroed`, `realloc`). A plain
/// statistic read after the run on the same thread: `Relaxed` suffices.
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Forwards every call to [`System`], counting the calls that obtain memory.
struct CountingAlloc;

// SAFETY: each method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the counter never touches the memory or
// the layouts involved.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator (that
        // is, from `System`) with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator (that
        // is, from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by one serial `run_sync(Luby)` on `circulant(n, 4)`,
/// with the sweep count the run took. Graph generation is not counted.
fn luby_allocs(n: usize) -> (u64, u32) {
    let g = gen::stream::circulant(n, 4).expect("circulant(n, 4) exists for n > 4");
    let spec = ExecSpec::rounds(1_000).with_shards(1);
    let before = CALLS.load(Relaxed);
    let run = run_sync(&g, Mode::randomized(0x5EED), &Luby::new(), &spec);
    let allocs = CALLS.load(Relaxed) - before;
    assert_eq!(run.counts(), (n, 0, 0), "every vertex decides");
    (allocs, run.sweeps)
}

/// Each vertex decides the maximum ID within distance `HORIZON`: a
/// fault-free run whose sweep count does not depend on `n`.
struct MaxWithin;

const HORIZON: u32 = 20;

impl SyncAlgorithm for MaxWithin {
    type State = u64;
    type Output = u64;
    fn init(&self, init: &NodeInit<'_>) -> u64 {
        init.id.expect("DetLOCAL run")
    }
    fn update(
        &self,
        round: u32,
        _ctx: &mut SyncCtx<'_>,
        state: &u64,
        neighbors: &[u64],
    ) -> SyncStep<u64, u64> {
        let next = neighbors.iter().copied().fold(*state, u64::max);
        if round >= HORIZON {
            SyncStep::Decide(next, next)
        } else {
            SyncStep::Continue(next)
        }
    }
}

/// Allocations made by one 2-shard `run_sync(MaxWithin)` on the Δ = 9
/// complete tree with at least `n` vertices. Graph generation is not
/// counted.
fn sharded_tree_allocs(n: usize) -> u64 {
    let g = gen::complete_dary_tree(n, 9);
    let spec = ExecSpec::rounds(1_000).with_shards(2);
    let before = CALLS.load(Relaxed);
    let run = run_sync(&g, Mode::deterministic(), &MaxWithin, &spec);
    let allocs = CALLS.load(Relaxed) - before;
    assert_eq!(run.counts(), (g.n(), 0, 0), "every vertex decides");
    // Sync round `HORIZON` is engine round `HORIZON + 1` (sweeps count
    // from 0), so the run takes `HORIZON + 2` sweeps at every size.
    assert_eq!(run.sweeps, HORIZON + 2);
    allocs
}

/// The fixed slack between the two sizes. The only allocations that may
/// legitimately differ are the reallocations of the engine's two per-sweep
/// statistics vectors (live vertices and messages per sweep), which double
/// as the sweep count grows: Luby needs a few more sweeps at 2^14 vertices
/// than at 2^10, which can cost each vector one or two more doublings.
const SLACK: u64 = 4;

#[test]
fn run_sync_allocations_do_not_grow_with_n() {
    let (small, small_sweeps) = luby_allocs(1 << 10);
    let (large, large_sweeps) = luby_allocs(1 << 14);
    assert!(
        large <= small + SLACK,
        "run_sync(Luby) allocated {small} times at n = 2^10 ({small_sweeps} sweeps) \
         but {large} times at n = 2^14 ({large_sweeps} sweeps): more than {SLACK} extra"
    );

    // Same sweep count at both sizes, so the statistics vectors grow alike;
    // the per-sweep thread spawns cost the same at every size.
    let small = sharded_tree_allocs(1 << 10);
    let large = sharded_tree_allocs(1 << 16);
    assert!(
        large <= small + SLACK,
        "2-shard run_sync on the Δ = 9 tree allocated {small} times at n = 2^10 \
         but {large} times at n = 2^16: more than {SLACK} extra"
    );
}
