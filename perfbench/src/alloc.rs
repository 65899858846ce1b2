//! The counting global allocator the traced binary installs.
//!
//! Only `perfbench_traced` registers [`CountingAlloc`] as its
//! `#[global_allocator]`; the end-to-end binary keeps the system allocator,
//! so its timings pay nothing for the counts. Even in the traced binary the
//! counter only moves while [`set_counting`] has switched it on, which the
//! runner does for traced trials alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

// Both atomics are plain statistics that publish no other data: `Relaxed`
// suffices. Counts are read on the main thread after the engine's scoped
// shard threads have been joined, and the join orders their increments
// before the read.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Forwards every call to [`System`], counting the calls that obtain memory
/// (`alloc`, `alloc_zeroed`, `realloc`) while counting is switched on.
pub struct CountingAlloc;

fn tick() {
    if COUNTING.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
    }
}

// SAFETY: each method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the counter never touches the memory or
// the layouts involved.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
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

/// Switch counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// Allocator calls counted so far.
pub fn count() -> u64 {
    CALLS.load(Relaxed)
}
