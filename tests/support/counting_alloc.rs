//! A thread-local counting allocator, the only global allocator of the
//! workspace's tests and benches. A crate includes this file with
//! `#[path = ".../tests/support/counting_alloc.rs"] mod counting_alloc;`,
//! which installs it, and then measures a closure with [`count`] or
//! [`measure`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's allocations, and the bytes they request, while
/// switched on; otherwise a plain `System`. The counters are thread-local,
/// so test threads running in parallel cannot add to each other's counts.
struct CountingAlloc;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bump(bytes: usize) {
    // `try_with`: the allocator can run while a thread's locals are torn down.
    let _ = ENABLED.try_with(|on| {
        if on.get() {
            COUNT.with(|c| c.set(c.get() + 1));
            BYTES.with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

/// Allocations this thread makes while `f` runs, and the bytes they
/// request (a `realloc` counts as one allocation of its new size).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (COUNT.with(Cell::get), BYTES.with(Cell::get));
    ENABLED.with(|on| on.set(true));
    let out = f();
    ENABLED.with(|on| on.set(false));
    let count = COUNT.with(Cell::get) - before.0;
    (out, count, BYTES.with(Cell::get) - before.1)
}

/// Allocations this thread makes while `f` runs.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (out, count, _) = measure(f);
    (out, count)
}
