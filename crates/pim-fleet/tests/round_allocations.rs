//! A fleet run allocates per shard and per tasklet, never per
//! transaction: between drawing a transaction from the stream and handing
//! a shard's batch to the scheduler nothing is boxed, cloned or collected
//! per (sub-)transaction. Shown from outside with a counting
//! global allocator — which is why this is a test binary of its own with a
//! single test: nothing else may allocate while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pim_fleet::{run, FleetConfig, RebalancePolicy};
use pim_sim::KeyDist;
use pim_workloads::{RoutingPolicy, ShardedWorkloadConfig};

/// Calls into the heap (`alloc`, `alloc_zeroed`, `realloc`) since start.
static HEAP_CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, same contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, same contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn heap_calls<R>(work: impl FnOnce() -> R) -> (R, u64) {
    let before = HEAP_CALLS.load(Ordering::Relaxed);
    let result = work();
    (result, HEAP_CALLS.load(Ordering::Relaxed) - before)
}

const SHARDS: usize = 16;
const TASKLETS: usize = 4;
const ROUNDS: u32 = 6;

/// Heap calls of one fleet run — the stream is drawn a round at a time
/// into one reused transaction, so it is part of the count — and the
/// rounds it took.
fn host_heap_calls(txns_per_round: u32, routing: RoutingPolicy, adaptive: bool) -> (u64, u64) {
    let stream = ShardedWorkloadConfig {
        reads_per_tx: 3,
        updates_per_tx: 3,
        dist: KeyDist::Zipf { theta: 0.99 },
        phases: 2,
        ..ShardedWorkloadConfig::new(4096, ROUNDS * txns_per_round)
    };
    let mut config = FleetConfig::new(SHARDS, stream).with_routing(routing).with_host_workers(2);
    config.tasklets = TASKLETS;
    config.txns_per_round = txns_per_round as usize;
    if adaptive {
        config = config
            .with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.25 })
            .with_overlap(true);
    }
    let (report, run_calls) = heap_calls(|| run(&config));
    assert!(!adaptive || report.rebalance.rebalances > 0, "the adaptive run must recut");
    (run_calls, report.rounds.len() as u64)
}

#[test]
fn a_round_allocates_per_shard_and_tasklet_never_per_transaction() {
    for routing in [RoutingPolicy::RouteToOwner, RoutingPolicy::AbortAndRetry] {
        for adaptive in [false, true] {
            let (small, small_rounds) = host_heap_calls(64, routing, adaptive);
            let (large, large_rounds) = host_heap_calls(1024, routing, adaptive);
            // What one round may cost, with no term in `txns_per_round`:
            // per shard one boxed program per tasklet (the transaction
            // machine under it is the shard's, built once), the
            // scheduler's queue and report, and — at a recut — a rebuilt
            // simulator; per round a handful of per-shard vectors and the
            // worker threads.
            let per_round = (SHARDS * (6 + TASKLETS) + 32) as u64;
            // Building the fleet and its transaction machines, plus every
            // buffer — the machines' commit staging among them — that
            // grows by doubling until it fits the largest round.
            let once = (SHARDS * (16 + 6 * TASKLETS) + 128) as u64;
            for (calls, rounds) in [(small, small_rounds), (large, large_rounds)] {
                assert!(
                    calls <= once + rounds * per_round,
                    "{routing}, adaptive {adaptive}: {calls} heap calls in {rounds} rounds \
                     exceed {once} + {rounds} × {per_round}"
                );
            }
            // Sixteen times the transactions per round buys only the
            // buffer growth — a `Vec`-per-sub-transaction router paid
            // about ten heap calls for each of them.
            let extra_txns = u64::from(ROUNDS * (1024 - 64));
            assert_eq!(small_rounds, large_rounds);
            assert!(
                large - small < once && large - small < extra_txns,
                "{routing}, adaptive {adaptive}: {small} heap calls at 64 txns/round, \
                 {large} at 1024"
            );
        }
    }
}
