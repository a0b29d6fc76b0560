//! A fleet run holds what its shards touch and one round of the stream:
//! no scratchpad for a shard whose design keeps everything in MRAM, and no
//! term in the length of the stream. Each shard's eagerly zeroed 64 KB WRAM
//! was 16 MB at 256 shards for a fleet that never allocated a word of it,
//! and the stream collected up front was the largest single allocation of
//! a long run. Shown from outside with a global allocator that tracks live
//! bytes, which is why this is a test binary of its own with a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pim_fleet::{run, FleetConfig};
use pim_sim::DpuConfig;
use pim_workloads::sharded::GlobalTx;
use pim_workloads::ShardedWorkloadConfig;

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

const SHARDS: usize = 256;
const TXNS_PER_ROUND: usize = 1024;

/// The most bytes a default (NOrec, MRAM metadata) 256-shard run over
/// `txns` transactions held at once, above what was live when it began.
fn peak_bytes(txns: u32) -> usize {
    let mut config =
        FleetConfig::new(SHARDS, ShardedWorkloadConfig::new(16 * 1024, txns)).with_host_workers(1);
    config.txns_per_round = TXNS_PER_ROUND;
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let report = run(&config);
    assert_eq!(report.global_txns, u64::from(txns));
    assert_eq!(report.rounds.len(), txns as usize / TXNS_PER_ROUND);
    PEAK.load(Ordering::Relaxed) - before
}

#[test]
fn a_fleet_run_holds_what_its_shards_touch_and_one_round_of_the_stream() {
    let (short, long) = (2 * TXNS_PER_ROUND as u32, 8 * TXNS_PER_ROUND as u32);
    let (small, large) = (peak_bytes(short), peak_bytes(long));
    // The shards' MRAM slices, logs and batches together stay below what
    // the scratchpads alone took when every shard zeroed one up front.
    let scratchpads = SHARDS * DpuConfig::default().wram_bytes() as usize;
    assert!(
        large < scratchpads,
        "{large} bytes live at the peak: a fleet that keeps everything in MRAM must not \
         hold {SHARDS} scratchpads ({scratchpads} bytes)"
    );
    // Four times the stream buys four times the round log and nothing
    // else; a run that collected the stream first paid all of
    // `extra_stream` on top.
    let keys_per_tx = 4;
    let per_tx = std::mem::size_of::<GlobalTx>() + keys_per_tx * std::mem::size_of::<u32>();
    let extra_stream = (long - short) as usize * per_tx;
    assert!(
        large < small + extra_stream / 4,
        "{small} bytes at {short} transactions, {large} at {long}: the {extra_stream} extra \
         bytes of stream must not be resident"
    );
}
