//! A fleet run holds what its shards allocate and one round of the stream:
//! each shard's counted words, its host structures, and no term in the
//! length of the stream. A shard DPU once carried a 2 048-word headroom
//! past a hand-written MRAM estimate (4 MB at 256 shards) and, with WRAM
//! metadata, a whole zeroed 64 KB scratchpad; the stream collected up
//! front was the largest single allocation of a long run. Shown from
//! outside with a global allocator that tracks live bytes, which is why
//! this is a test binary of its own with a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pim_fleet::{run, FleetConfig};
use pim_sim::Tier;
use pim_stm::shared::WordCounter;
use pim_stm::StmShared;
use pim_workloads::sharded::{GlobalTx, ShardData};
use pim_workloads::{ShardMap, ShardedWorkloadConfig};

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

/// Host memory a shard holds besides its DPU words: the `Dpu` itself, its
/// eight transaction machines with their staging buffers, its profile and
/// accumulators, and its share of the round's batches and log. About
/// 3.7 KiB per shard when measured on x86-64 Linux.
const HOST_BYTES_PER_SHARD: usize = 6 * 1024;

/// The default (NOrec, MRAM metadata) 256-shard fleet over `txns`
/// transactions.
fn config(txns: u32) -> FleetConfig {
    let mut config =
        FleetConfig::new(SHARDS, ShardedWorkloadConfig::new(16 * 1024, txns)).with_host_workers(1);
    config.txns_per_round = TXNS_PER_ROUND;
    config
}

/// The DPU words of every shard, counted by replaying a shard's
/// allocations: its STM metadata, its counter slice, one slot per tasklet.
fn counted_shard_words(config: &FleetConfig) -> usize {
    let map = ShardMap::new(config.workload.total_keys, SHARDS as u32);
    (0..SHARDS as u32)
        .map(|shard| {
            let mut counter = WordCounter::default();
            let shared = StmShared::allocate(&mut counter, config.stm_config()).unwrap();
            ShardData::allocate(&mut counter, map.base(shard), map.span(shard));
            for tasklet in 0..config.tasklets {
                shared.register_tasklet(&mut counter, tasklet).unwrap();
            }
            Tier::ALL.iter().map(|&tier| counter.words(tier) as usize).sum::<usize>()
        })
        .sum()
}

/// The most bytes a run over `txns` transactions held at once, above what
/// was live when it began.
fn peak_bytes(txns: u32) -> usize {
    let config = config(txns);
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
    // The shards' counted words and their host structures, and nothing
    // for headroom or for a tier no shard allocates from.
    let shard_bytes = 8 * counted_shard_words(&config(short));
    let bound = shard_bytes + SHARDS * HOST_BYTES_PER_SHARD;
    assert!(
        large < bound,
        "{large} bytes live at the peak: {SHARDS} shards allocate {shard_bytes} bytes of DPU \
         words and may hold {HOST_BYTES_PER_SHARD} bytes of host structures each ({bound})"
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
