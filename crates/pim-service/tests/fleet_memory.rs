//! A fleet run holds its shards and draws its request stream a round at a
//! time: the memory it needs is each shard's counted DPU words and host
//! structures, one round's batches and the round log, with no term in the
//! length of the stream. A shard DPU once carried a 2 048-word headroom
//! past a hand-written estimate of its tables and, for the WRAM metadata
//! the service defaults to, a whole zeroed 64 KB scratchpad. Held whole,
//! the stream was the run's largest allocation, and whether the allocator
//! could place it in memory it already had depended on the seed — the peak
//! resident set of a long run then moved by the size of the stream from
//! one seed to the next. Shown from outside with a global allocator that
//! tracks live bytes, which is why this is a test binary of its own with a
//! single test.

use pim_service::{
    run_service_fleet, ArrivalProcess, Request, ServiceConfig, ServiceFleetConfig, ServiceTables,
};
use pim_sim::Tier;
use pim_stm::shared::WordCounter;
use pim_stm::StmShared;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const SHARDS: u32 = 4;

/// Host memory a shard holds besides its DPU words: the `Dpu` itself, its
/// slots, and three latency panels of three 496-bucket histograms each
/// (its own, its round's, and its share of the merged one). About 27 KiB
/// per shard when measured on x86-64 Linux, most of it those histograms.
const HOST_BYTES_PER_SHARD: usize = 40 * 1024;

fn service(requests: u64) -> ServiceConfig {
    ServiceConfig::new(ArrivalProcess::Poisson { rate: 4_000_000.0 })
        .with_tasklets(3)
        .with_keys(256)
        .with_requests(requests)
        .with_seed(11)
}

/// The DPU words of one shard, counted by replaying a shard's
/// allocations: its STM metadata, its tables, one slot per tasklet.
fn counted_shard_words(service: &ServiceConfig) -> usize {
    let mut counter = WordCounter::default();
    let shared = StmShared::allocate(&mut counter, service.stm).unwrap();
    ServiceTables::allocate(&mut counter, Tier::Mram, service.keys, service.journal_capacity)
        .unwrap();
    for tasklet in 0..service.tasklets {
        shared.register_tasklet(&mut counter, tasklet).unwrap();
    }
    Tier::ALL.iter().map(|&tier| counter.words(tier) as usize).sum()
}

/// The most bytes a fleet run over `requests` requests held at once, above
/// what was live when it began.
fn peak_bytes(requests: u64) -> usize {
    let config = ServiceFleetConfig::new(service(requests), SHARDS);
    let before = counting_alloc::reset_peak();
    let report = run_service_fleet(&config);
    assert_eq!(report.completed, requests);
    counting_alloc::peak_bytes() - before
}

#[test]
fn a_fleet_run_never_holds_its_whole_stream() {
    let (short, long) = (4_096u64, 65_536u64);
    let (small, large) = (peak_bytes(short), peak_bytes(long));
    // The shards' counted words and their host structures, and nothing
    // for headroom or for a scratchpad beyond the metadata's words.
    let shard_bytes = 8 * SHARDS as usize * counted_shard_words(&service(short));
    let bound = shard_bytes + SHARDS as usize * HOST_BYTES_PER_SHARD;
    assert!(
        small < bound,
        "{small} bytes live at the peak: {SHARDS} shards allocate {shard_bytes} bytes of DPU \
         words and may hold {HOST_BYTES_PER_SHARD} bytes of host structures each ({bound})"
    );
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
