//! A counting global allocator for test binaries that bound host heap
//! traffic: calls into the heap, bytes live now, and the most bytes live
//! at once since the last [`reset_peak`].
//!
//! A binary opts in by installing it:
//!
//! ```
//! #[global_allocator]
//! static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;
//!
//! fn main() {
//!     let calls = counting_alloc::heap_calls();
//!     let before = counting_alloc::reset_peak();
//!     let block = std::hint::black_box(vec![0u8; 4096]);
//!     assert_eq!(counting_alloc::heap_calls() - calls, 1);
//!     assert!(counting_alloc::peak_bytes() - before >= 4096);
//!     drop(block);
//!     assert_eq!(counting_alloc::live_bytes(), before);
//! }
//! ```
//!
//! The counters are process-wide, so anything that allocates while a
//! window is being counted — another test on another thread included —
//! lands in it. That is why each binary using it holds a single test.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Calls into the heap (`alloc`, `alloc_zeroed`, `realloc`) since start.
static HEAP_CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes live at once since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// The system allocator, counted.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout, same contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: same layout, same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block may both exist while the contents move.
        grew(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Calls into the heap since the process started.
pub fn heap_calls() -> u64 {
    HEAP_CALLS.load(Ordering::Relaxed)
}

/// Bytes live now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Starts a new peak window at the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
    live
}
