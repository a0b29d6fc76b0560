//! The fleet round loop: one host dispatcher, [`run_rounds`], driving any
//! sharded job through the paper's CPU-mediated round structure.
//!
//! Every inter-DPU step of the multi-DPU study is a host transfer, so a
//! fleet run is a sequence of **rounds**, each
//!
//! ```text
//! host routing → broadcast(descriptor) → scatter(batches)
//!   → [ all active shards run to completion, in parallel ]   ← barrier
//!   → gather(summaries) → host merge → maybe recut the partition
//! ```
//!
//! The driver owns everything in that picture that is not the workload:
//! the [`TransferLedger`] calls and their fixed payloads
//! ([`ROUND_DESCRIPTOR_BYTES`], [`GATHER_SUMMARY_BYTES`]), the
//! [`HostCostModel`] route/merge charges, the worker threads of the
//! barrier, the [`Rebalancer::plan`] boundary, the pipeline credit, the
//! running clock and the [`RoundStats`] / [`RebalanceStats`] /
//! [`PipelineStats`] bookkeeping. What a round *carries* is a
//! [`ShardJob`]: the counter fleet ([`crate::runtime`]) and the service
//! fleet (`pim_service::fleet`) are two implementations, and nothing else
//! knows the round structure.
//!
//! ## One round, in order
//!
//! 1. **Route.** [`ShardJob::route`] empties the per-shard batches (kept
//!    for the whole run, never reallocated) and refills them with this
//!    round's slice of the stream under the current [`ShardMap`], feeding
//!    the dispatched keys to the [`Rebalancer`] window.
//! 2. **Pre-work.** `broadcast` the round descriptor, `scatter` each
//!    batch's [`ShardJob::batch_wire_bytes`], and charge
//!    [`HostCostModel::route_seconds`] for the dispatched entries:
//!    `pre = broadcast + scatter + host routing`.
//! 3. **Pipeline credit.** With `overlap` the host double-buffers: while
//!    round *k−1*'s shards compute it routes and scatters round *k*.
//!    Execution never changes, only the price:
//!
//!    ```text
//!    hidden_k = min(pre_k, compute_{k−1})   if round k is overlap-eligible
//!             = 0                            otherwise
//!    ```
//!
//!    — the `max(compute_{k−1}, pre_k)` double-buffering identity written
//!    as a per-round credit. A round is eligible iff its inputs needed
//!    nothing from the previous round: it is not round 0, its routing did
//!    not consume the previous round's outputs (what `route` returns), and
//!    the previous boundary did not recut the partition.
//! 4. **Barrier.** The clock advances by the exposed pre-work,
//!    `pre − hidden`; that instant is the compute start handed to every
//!    active shard (one whose batch is non-empty). Up to `workers` host
//!    threads — the dispatcher is one of them — claim shards from a
//!    shared queue, largest batch first. The round costs its **slowest**
//!    shard: `compute = max(shard seconds)`, which is why a skewed shard
//!    stalls the whole fleet.
//! 5. **Post-work.** `gather` one [`GATHER_SUMMARY_BYTES`] summary from
//!    each shard that was active *this round* and charge
//!    [`HostCostModel::merge_seconds`] for them.
//! 6. **Recut.** [`Rebalancer::plan`] sees only the dispatch-side key
//!    window (so the decision is deterministic and never waits for
//!    results) and is told whether more work remains — a migration no
//!    later round can amortise is never taken. A recut moves data through
//!    the ledger like any other transfer: [`MIGRATION_BYTES_PER_KEY`] per
//!    moved key **in each direction**, `gather`ed from the old owner and
//!    `scatter`ed to the new one ([`TransferLedger::migrate`]). The seconds
//!    land in this round's post-work; the scatter bytes are attributed to
//!    the next round's [`RoundStats::bytes_to_dpus`], whose inputs they
//!    arrive with.
//!
//! The clock advances `pre − hidden`, then `compute`, then
//! `gather + merge`, then `migration`, in that order; a round's
//! [`RoundStats::pipelined_seconds`] is the same quantity as one
//! expression. All host costs are modeled, never measured — every transfer
//! against [`CpuTransferModel::default`], routing and merge against
//! [`HostCostModel::default`] — so a seeded run is bit-identical on any
//! machine and for any worker count.
//!
//! ## What makes the worker count unobservable
//!
//! [`ShardJob::run_shard`] gets `&self`, one shard exclusively and that
//! shard's batch shared — the types already forbid it from writing anything
//! else. Its obligation is to be a *function* of those three and the start
//! time. The driver stores each outcome in the shard's own slot and reads
//! the slots back in shard order after every worker has returned, so
//! neither which thread ran a shard nor when it finished reaches the log.

use pim_sim::CpuTransferModel;
use pim_workloads::ShardMap;

use crate::host::{HostCostModel, TransferLedger};
use crate::rebalance::{RebalancePolicy, Rebalancer};
use crate::report::{PipelineStats, RebalanceStats, RoundStats};

/// Bytes of the per-round control block the host broadcasts to every DPU
/// (round number, batch length, flags).
pub const ROUND_DESCRIPTOR_BYTES: u64 = 64;

/// Bytes of the per-shard result summary the host gathers after each round
/// (commits, aborts, rejections, checksum).
pub const GATHER_SUMMARY_BYTES: u64 = 32;

/// Bytes a migrated key costs in **each** direction (its 8-byte value
/// word): gathered from the old owner, scattered to the new owner.
pub const MIGRATION_BYTES_PER_KEY: u64 = 8;

/// What one shard reports back from one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardRound {
    /// Modeled seconds the shard computed (the barrier takes the max).
    pub seconds: f64,
    /// Transactions the shard committed this round.
    pub commits: u64,
    /// Entries the shard rejected back to the host this round.
    pub rejected: u64,
}

/// The workload half of a fleet run. [`run_rounds`] calls the hooks in the
/// order of the [module documentation](self); each hook's obligation is
/// stated on it.
pub trait ShardJob: Sync {
    /// One shard's scatter payload for one round. The driver keeps one per
    /// shard for the whole run; the job alone fills, empties and prices
    /// them, so any buffer type serves (a flat
    /// [`ShardBatch`](pim_workloads::sharded::ShardBatch), a `Vec` of
    /// requests).
    type Batch: Default + Sync;
    /// One shard's persistent state (simulator plus accumulators).
    type Shard: Send;

    /// Entries in `batch` — what host routing is charged per, and the key
    /// the barrier orders shards by. A shard with none sits the round out.
    fn batch_len(batch: &Self::Batch) -> usize;

    /// Bytes `batch` occupies on the wire, as `scatter` prices it.
    fn batch_wire_bytes(batch: &Self::Batch) -> u64;

    /// Whether any round remains: the loop condition and, asked again
    /// after `route`, what tells the rebalancer a recut could still be
    /// amortised.
    fn more_work(&self) -> bool;

    /// Empties `batches` (one per shard, still holding the previous
    /// round's entries — clear, never reallocate) and routes this round's
    /// slice of the stream into them under `map`, recording every
    /// dispatched key with [`Rebalancer::note`]. May read and write only
    /// the job's own stream state. Returns whether routing consumed outputs
    /// of the previous round (such a round cannot overlap it).
    fn route(
        &mut self,
        map: &ShardMap,
        rebalancer: &mut Rebalancer,
        batches: &mut [Self::Batch],
    ) -> bool;

    /// Runs `shard` on its non-empty `batch` to completion, starting
    /// `start` modeled seconds into the run, and folds whatever the final
    /// report needs into the shard's own accumulators. Called concurrently
    /// for different shards: the result must depend on nothing but the
    /// arguments.
    fn run_shard(&self, shard: &mut Self::Shard, batch: &Self::Batch, start: f64) -> ShardRound;

    /// Applies the recut `old → new`: moves every value whose owner
    /// changed to its new shard and re-homes any stream state routed under
    /// `old`. Returns `(moved_keys, gather_bytes, scatter_bytes)`, the byte
    /// vectors per shard as [`migration_bytes`] builds them.
    fn recut(
        &mut self,
        shards: &mut [Self::Shard],
        old: &ShardMap,
        new: &ShardMap,
    ) -> (u64, Vec<u64>, Vec<u64>);
}

/// Everything the driver measured: the fold input of a fleet report.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundLog {
    /// Per-round accounting, in dispatch order.
    pub rounds: Vec<RoundStats>,
    /// Per-primitive transfer accounting.
    pub ledger: TransferLedger,
    /// What the recuts moved and cost (all-zero when the policy is off).
    pub rebalance: RebalanceStats,
    /// What the round pipeline hid (all-zero when overlap is off).
    pub pipeline: PipelineStats,
    /// The clock after the last round: the end-to-end modeled seconds,
    /// accumulated in the step order of the
    /// [module documentation](self).
    pub clock_seconds: f64,
}

/// Walks the merged boundaries of `old` and `new` once and calls
/// `move_keys(old owner, new owner, keys)` for every maximal key range
/// whose owner changed, in key order; it returns how many of those keys
/// held a value to move. Each costs [`MIGRATION_BYTES_PER_KEY`] on the old
/// owner's gather and on the new owner's scatter. Returns
/// `(moved_keys, gather_bytes, scatter_bytes)`, the byte vectors per shard.
pub fn migration_bytes(
    old: &ShardMap,
    new: &ShardMap,
    mut move_keys: impl FnMut(u32, u32, std::ops::Range<u32>) -> u64,
) -> (u64, Vec<u64>, Vec<u64>) {
    let mut moved = 0u64;
    let mut gather_bytes = vec![0u64; old.shards() as usize];
    let mut scatter_bytes = vec![0u64; old.shards() as usize];
    let (mut from, mut to) = (0u32, 0u32);
    let mut key = 0u32;
    while key < old.total_keys() {
        // The owners of `key`: the first shard of each map whose range
        // has not ended yet (empty shards end where they start).
        while old.range(from).end <= key {
            from += 1;
        }
        while new.range(to).end <= key {
            to += 1;
        }
        let end = old.range(from).end.min(new.range(to).end);
        if from != to {
            let keys = move_keys(from, to, key..end);
            moved += keys;
            gather_bytes[from as usize] += MIGRATION_BYTES_PER_KEY * keys;
            scatter_bytes[to as usize] += MIGRATION_BYTES_PER_KEY * keys;
        }
        key = end;
    }
    (moved, gather_bytes, scatter_bytes)
}

/// One claim of the barrier's work queue: a shard, its batch, and the slot
/// its outcome goes into.
type Claim<'a, J> =
    (&'a mut <J as ShardJob>::Shard, &'a <J as ShardJob>::Batch, &'a mut Option<ShardRound>);

/// Runs the round's active shards to completion on up to `workers` host
/// threads, the calling thread among them; with one worker, or one active
/// shard, nothing is spawned.
///
/// Shards are claimed one at a time from a shared queue, largest batch
/// first, so the shard likeliest to finish last starts first and no
/// worker idles while another still holds a backlog.
fn run_shards<J: ShardJob>(job: &J, mut work: Vec<Claim<'_, J>>, workers: usize, start: f64) {
    work.sort_by_key(|(_, batch, _)| std::cmp::Reverse(J::batch_len(batch)));
    let threads = workers.min(work.len());
    let queue = std::sync::Mutex::new(work.into_iter());
    let drain = || loop {
        // The guard is a temporary of this statement: the queue is
        // unlocked again before the claimed shard runs.
        let claimed = queue.lock().expect("another shard worker panicked").next();
        let Some((shard, batch, outcome)) = claimed else { break };
        *outcome = Some(job.run_shard(shard, batch, start));
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(drain);
        }
        drain();
    });
}

/// Drives `job` over `shards` (one per shard of `map`) until it has no
/// more work, and returns the log of every round. See the
/// [module documentation](self) for the round model: `policy` decides the
/// recuts, `overlap` turns the pipeline credit on, and `workers` (one or
/// more) is how many host threads run shards at the barrier — wall-clock
/// speed only, never the log.
pub fn run_rounds<J: ShardJob>(
    job: &mut J,
    shards: &mut [J::Shard],
    mut map: ShardMap,
    policy: RebalancePolicy,
    overlap: bool,
    workers: usize,
) -> RoundLog {
    let host = HostCostModel::default();
    let mut ledger = TransferLedger::new(CpuTransferModel::default());
    let mut rebalancer = Rebalancer::new(policy, map.total_keys());
    let mut rebalance = RebalanceStats { policy, ..RebalanceStats::default() };
    // The scatter payloads, the outcome slots and the per-shard byte
    // scratch live for the whole run: a round refills them in place.
    let mut batches: Vec<J::Batch> = shards.iter().map(|_| J::Batch::default()).collect();
    let mut outcomes: Vec<Option<ShardRound>> = vec![None; shards.len()];
    let mut bytes = vec![0u64; shards.len()];
    let mut rounds: Vec<RoundStats> = Vec::new();
    let mut clock = 0.0f64;
    // Migration scatter bytes from the previous boundary: the recut state
    // arrives with the next round's inputs, so the byte count is
    // attributed there (the ledger charged it at migration time).
    let mut carry_to_dpus = 0u64;
    let mut migrated_last_boundary = false;

    while job.more_work() {
        let mut round = RoundStats { round: rounds.len(), ..RoundStats::default() };

        // --- Host dispatch.
        let consumed_previous = job.route(&map, &mut rebalancer, &mut batches);
        round.dispatched_subtxns = batches.iter().map(|b| J::batch_len(b) as u64).sum();

        // --- Primitives: round descriptor to everyone, batches to owners.
        round.broadcast_seconds = ledger.broadcast(ROUND_DESCRIPTOR_BYTES);
        bytes.clear();
        bytes.extend(batches.iter().map(J::batch_wire_bytes));
        round.scatter_seconds = ledger.scatter(&bytes);
        round.bytes_to_dpus =
            ROUND_DESCRIPTOR_BYTES + bytes.iter().sum::<u64>() + std::mem::take(&mut carry_to_dpus);
        round.host_route_seconds = host.route_seconds(round.dispatched_subtxns);

        // --- Pipeline credit, then the clock reaches the compute start.
        let eligible = overlap && !consumed_previous && !migrated_last_boundary;
        if let Some(previous) = rounds.last().filter(|_| eligible) {
            round.overlapped = true;
            round.hidden_seconds = round.pre_seconds().min(previous.dpu_seconds);
        }
        clock += round.pre_seconds() - round.hidden_seconds;

        // --- Barrier: run every active shard; the round waits for its
        // slowest one.
        let active = shards
            .iter_mut()
            .zip(&batches)
            .zip(&mut outcomes)
            .filter(|((_, batch), _)| J::batch_len(batch) > 0)
            .map(|((shard, batch), outcome)| (shard, batch, outcome));
        run_shards(&*job, active.collect(), workers, clock);
        for (outcome, summary) in outcomes.iter_mut().zip(&mut bytes) {
            *summary = 0;
            let Some(outcome) = outcome.take() else { continue };
            *summary = GATHER_SUMMARY_BYTES;
            round.active_shards += 1;
            round.commits += outcome.commits;
            round.rejected += outcome.rejected;
            round.dpu_seconds = round.dpu_seconds.max(outcome.seconds);
            round.dpu_mean_seconds += outcome.seconds;
        }
        if round.active_shards > 0 {
            round.dpu_mean_seconds /= round.active_shards as f64;
        }
        clock += round.dpu_seconds;

        // --- Post-work: summaries back from the shards that ran.
        round.gather_seconds = ledger.gather(&bytes);
        round.bytes_from_dpus = bytes.iter().sum();
        round.host_merge_seconds = host.merge_seconds(round.active_shards);
        clock += round.gather_seconds + round.host_merge_seconds;

        // --- Rebalance boundary.
        let recut = rebalancer.plan(&map, job.more_work());
        migrated_last_boundary = recut.is_some();
        if let Some(new_map) = recut {
            let (moved, from_bytes, to_bytes) = job.recut(shards, &map, &new_map);
            map = new_map;
            let from_dpus: u64 = from_bytes.iter().sum();
            carry_to_dpus = to_bytes.iter().sum();
            round.migrated_keys = moved;
            round.migration_seconds = ledger.migrate(&from_bytes, &to_bytes);
            round.bytes_from_dpus += from_dpus;
            rebalance.rebalances += 1;
            rebalance.migrated_keys += moved;
            rebalance.migration_bytes += from_dpus + carry_to_dpus;
            rebalance.migration_seconds += round.migration_seconds;
            clock += round.migration_seconds;
        }
        rounds.push(round);
    }

    let hidden_total: f64 = rounds.iter().map(|r| r.hidden_seconds).sum();
    let overlapped_rounds = rounds.iter().filter(|r| r.overlapped).count() as u64;
    let pipeline = PipelineStats {
        enabled: overlap,
        overlapped_rounds,
        stalled_rounds: rounds.len() as u64 - overlapped_rounds,
        hidden_seconds: hidden_total,
        exposed_pre_seconds: rounds.iter().map(RoundStats::pre_seconds).sum::<f64>() - hidden_total,
    };
    RoundLog { rounds, ledger, rebalance, pipeline, clock_seconds: clock }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHARDS: u32 = 4;
    const KEYS: u32 = 64;

    /// A shard with no simulator: it remembers when each of its rounds was
    /// told to start and what it was handed.
    #[derive(Debug, Clone, PartialEq)]
    struct ToyShard {
        index: u32,
        starts: Vec<f64>,
        key_sum: u64,
        recuts: u32,
    }

    /// Deals a fixed skewed key stream in rounds of scripted sizes; round
    /// `k` claims to have consumed round `k − 1`'s outputs iff scripted to.
    struct ToyJob {
        stream: std::vec::IntoIter<u32>,
        sizes: Vec<usize>,
        consumes: Vec<usize>,
        routed: usize,
    }

    impl ToyJob {
        fn new() -> Self {
            // Squaring piles the keys onto the low shards, so a recut has
            // something to move.
            let stream: Vec<u32> = (0..150u32).map(|i| ((i * 37) % KEYS).pow(2) / KEYS).collect();
            ToyJob {
                stream: stream.into_iter(),
                sizes: vec![16, 16, 2, 16, 16, 16, 3, 16, 16, 16, 17],
                consumes: vec![4, 9],
                routed: 0,
            }
        }
    }

    impl ShardJob for ToyJob {
        type Batch = Vec<u32>;
        type Shard = ToyShard;

        fn batch_len(batch: &Vec<u32>) -> usize {
            batch.len()
        }

        fn batch_wire_bytes(batch: &Vec<u32>) -> u64 {
            8 * batch.len() as u64
        }

        fn more_work(&self) -> bool {
            self.stream.len() > 0
        }

        fn route(
            &mut self,
            map: &ShardMap,
            rebalancer: &mut Rebalancer,
            out: &mut [Vec<u32>],
        ) -> bool {
            out.iter_mut().for_each(Vec::clear);
            for key in self.stream.by_ref().take(self.sizes[self.routed]) {
                rebalancer.note([key]);
                out[map.owner(key) as usize].push(key);
            }
            self.routed += 1;
            self.consumes.contains(&(self.routed - 1))
        }

        fn run_shard(&self, shard: &mut ToyShard, batch: &Vec<u32>, start: f64) -> ShardRound {
            shard.starts.push(start);
            shard.key_sum += batch.iter().map(|&k| u64::from(k)).sum::<u64>();
            ShardRound {
                seconds: 8e-6 * batch.len() as f64 * f64::from(shard.index + 1),
                commits: batch.len() as u64,
                rejected: batch.iter().filter(|&&k| k % 5 == 0).count() as u64,
            }
        }

        fn recut(
            &mut self,
            shards: &mut [ToyShard],
            old: &ShardMap,
            new: &ShardMap,
        ) -> (u64, Vec<u64>, Vec<u64>) {
            migration_bytes(old, new, |from, to, keys| {
                shards[from as usize].recuts += 1;
                shards[to as usize].recuts += 1;
                u64::from(keys.end - keys.start)
            })
        }
    }

    fn toy_run(workers: usize) -> (RoundLog, Vec<ToyShard>) {
        let mut shards: Vec<ToyShard> = (0..SHARDS)
            .map(|index| ToyShard { index, starts: Vec::new(), key_sum: 0, recuts: 0 })
            .collect();
        let map = ShardMap::new(KEYS, SHARDS);
        let policy = RebalancePolicy::Periodic { every: 3 };
        let log = run_rounds(&mut ToyJob::new(), &mut shards, map, policy, true, workers);
        (log, shards)
    }

    #[test]
    fn the_log_is_independent_of_the_worker_count() {
        let serial = toy_run(1);
        assert_eq!(serial.0.rounds.len(), 11);
        assert_eq!(serial.0.rounds.iter().map(|r| r.commits).sum::<u64>(), 150);
        for workers in [2, 3, SHARDS as usize + 1] {
            assert_eq!(toy_run(workers), serial, "{workers} workers changed the log or a shard");
        }
    }

    #[test]
    fn a_round_overlaps_iff_it_needed_nothing_from_the_previous_one() {
        let (log, _) = toy_run(2);
        let rounds = &log.rounds;
        let consumes = ToyJob::new().consumes;
        let (mut after_recut, mut consumed, mut eligible) = (0, 0, 0);
        let (mut fully_hidden, mut partly_hidden) = (0, 0);
        for (k, round) in rounds.iter().enumerate() {
            let recut_before = k > 0 && rounds[k - 1].migrated_keys > 0;
            let consumed_previous = consumes.contains(&k);
            assert_eq!(
                round.overlapped,
                k > 0 && !recut_before && !consumed_previous,
                "round {k}: recut before {recut_before}, consumed previous {consumed_previous}"
            );
            after_recut += u32::from(recut_before);
            consumed += u32::from(consumed_previous && !recut_before);
            if round.overlapped {
                eligible += 1;
                let previous = rounds[k - 1].dpu_seconds;
                assert_eq!(round.hidden_seconds, round.pre_seconds().min(previous), "round {k}");
                fully_hidden += u32::from(round.hidden_seconds == round.pre_seconds());
                partly_hidden += u32::from(round.hidden_seconds < round.pre_seconds());
            } else {
                assert_eq!(round.hidden_seconds, 0.0, "round {k}");
            }
        }
        // Every row of the truth table occurred, and both arms of the min.
        assert!(after_recut > 0 && consumed > 0 && eligible > 0, "{rounds:#?}");
        assert!(fully_hidden > 0 && partly_hidden > 0, "{rounds:#?}");
        assert_eq!(log.pipeline.overlapped_rounds, eligible);
        assert_eq!(log.pipeline.stalled_rounds, rounds.len() as u64 - eligible);
        assert_eq!(log.rebalance.rebalances, u64::from(after_recut));
        assert_eq!(
            log.rebalance.migration_bytes,
            2 * MIGRATION_BYTES_PER_KEY * log.rebalance.migrated_keys
        );
    }

    #[test]
    fn shards_start_at_the_clock_plus_the_exposed_pre_work() {
        let (log, shards) = toy_run(3);
        // Replay the clock from the round log alone, in the documented
        // step order; every shard active in round k must have been handed
        // exactly the value after the first step.
        let mut clock = 0.0f64;
        let mut next_start = vec![0usize; shards.len()];
        for round in &log.rounds {
            clock += round.pre_seconds() - round.hidden_seconds;
            let mut started = 0;
            for (shard, next) in shards.iter().zip(&mut next_start) {
                if shard.starts.get(*next) == Some(&clock) {
                    *next += 1;
                    started += 1;
                }
            }
            assert_eq!(started, round.active_shards, "round {}", round.round);
            clock += round.dpu_seconds;
            clock += round.gather_seconds + round.host_merge_seconds;
            clock += round.migration_seconds;
        }
        assert_eq!(clock, log.clock_seconds);
        for (shard, next) in shards.iter().zip(next_start) {
            assert_eq!(next, shard.starts.len(), "shard {} ran outside a round", shard.index);
        }
        // The same total as one expression per round, up to rounding.
        let folded: f64 = log.rounds.iter().map(RoundStats::pipelined_seconds).sum();
        assert!((folded - log.clock_seconds).abs() < 1e-15);
    }

    #[test]
    fn a_round_gathers_only_from_the_shards_that_ran() {
        let (log, _) = toy_run(1);
        assert!(log.rounds.iter().any(|r| r.active_shards < u64::from(SHARDS)));
        for round in &log.rounds {
            let recut: u64 = MIGRATION_BYTES_PER_KEY * round.migrated_keys;
            assert_eq!(round.bytes_from_dpus, GATHER_SUMMARY_BYTES * round.active_shards + recut);
        }
    }
}
