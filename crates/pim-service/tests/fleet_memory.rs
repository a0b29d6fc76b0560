//! A fleet run draws its request stream a round at a time: the memory it
//! needs is the shards, one round's batches and the round log, with no term
//! in the length of the stream. Held whole, the stream was the run's
//! largest allocation, and whether the allocator could place it in memory
//! it already had depended on the seed — the peak resident set of a long
//! run then moved by the size of the stream from one seed to the next.
//! Shown from outside with a global allocator that tracks live bytes, which
//! is why this is a test binary of its own with a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pim_service::{run_service_fleet, ArrivalProcess, Request, ServiceConfig, ServiceFleetConfig};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Tracking;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for Tracking {
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

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// The most bytes a fleet run over `requests` requests held at once, above
/// what was live when it began.
fn peak_bytes(requests: u64) -> usize {
    let service = ServiceConfig::new(ArrivalProcess::Poisson { rate: 4_000_000.0 })
        .with_tasklets(3)
        .with_keys(256)
        .with_requests(requests)
        .with_seed(11);
    let config = ServiceFleetConfig::new(service, 4);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = run_service_fleet(&config);
    assert_eq!(report.completed, requests);
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn a_fleet_run_never_holds_its_whole_stream() {
    let (short, long) = (4_096u64, 65_536u64);
    let (small, large) = (peak_bytes(short), peak_bytes(long));
    let extra_stream = (long - short) as usize * std::mem::size_of::<Request>();
    // Sixteen times the stream buys sixteen times the round log and
    // nothing else; a run that collected the stream first paid all of
    // `extra_stream` on top.
    assert!(
        large < small + extra_stream / 4,
        "{small} bytes at {short} requests, {large} at {long}: the {extra_stream} extra \
         bytes of stream must not be resident"
    );
}
