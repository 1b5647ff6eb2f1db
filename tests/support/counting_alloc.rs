//! The counting global allocator shared by the test binaries that bound
//! heap allocations (`alloc_free`, `store_zero_copy`). Include it with
//! `#[path = "support/counting_alloc.rs"] mod counting_alloc;`.
//!
//! The counter is process-global and counts allocations on every thread,
//! so a plan's own worker threads can never hide work from it. The price
//! is that a sibling `#[test]` allocating while a window is armed enters
//! the count too. Every test in a counting binary therefore holds
//! [`exclusive`] for its whole body: one test has the process at a time,
//! and an armed window sees only the work it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Takes the binary-wide test lock. Hold the guard for the whole test.
///
/// A test that fails while holding the lock poisons it; the next test
/// still runs, since the lock guards no data that a panic could leave
/// half-updated.
pub fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts heap allocations (on every thread) and the total bytes they
/// requested while `f` runs. Call it with [`exclusive`] held.
pub fn count_allocs_and_bytes<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        ALLOCS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
        out,
    )
}
