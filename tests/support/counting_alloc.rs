//! A global allocator that counts, for the test binaries that hold a path
//! to an allocation budget. Each declares it with `#[global_allocator]`,
//! and reads the counters it needs.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own,
    /// so neither sees the other's), and those of at least `LARGE_FROM`
    /// bytes. Const-initialized and without a destructor: touching them
    /// never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGE: Cell<u64> = const { Cell::new(0) };
    static LARGE_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
    /// Bytes this thread has allocated less bytes it has freed: how far
    /// its live heap has moved, exact while it frees only what it
    /// allocated itself.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: every request is passed to `System` unchanged and its answer
// returned unchanged, so `System`'s guarantees are this allocator's; the
// counters are plain thread-local integers. `realloc` is the trait's
// default, which calls `alloc` and then `dealloc` here and so counts as
// one allocation, with the old size taken off the live bytes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        if layout.size() >= LARGE_FROM.with(Cell::get) {
            LARGE.with(|n| n.set(n.get() + 1));
        }
        LIVE_BYTES.with(|n| n.set(n.get() + layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, allocations of at least large_from bytes)` this thread
/// makes during `work`.
pub fn count_during(large_from: usize, work: impl FnOnce()) -> (u64, u64) {
    LARGE_FROM.with(|n| n.set(large_from));
    let before = (ALLOCATIONS.with(Cell::get), LARGE.with(Cell::get));
    work();
    LARGE_FROM.with(|n| n.set(usize::MAX));
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        LARGE.with(Cell::get) - before.1,
    )
}

/// By how many bytes this thread's live heap has grown since it started
/// (allocated less freed). Take it before and after a stretch of work.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}
