//! The sharded counter-array workload behind the `pim-fleet` runtime.
//!
//! A fleet run partitions one *global* keyspace `0..total_keys` across N
//! shard DPUs by contiguous range, then replays one *global* transaction
//! stream against it. Each transaction reads `reads_per_tx` keys and
//! increments `updates_per_tx` keys, all drawn i.i.d. from a seeded
//! [`KeyDist`] — crucially the stream depends only on the workload config
//! and seed, **never** on the shard count, so the committed global state
//! (per-key increment counts) is partition-invariant. Increments commute,
//! which is what lets the fleet conservation tests compare the merged
//! fingerprint of an N-shard run against a single-shard run bit-for-bit.
//!
//! The pieces, host side first:
//!
//! * [`ShardedWorkloadConfig`] + [`StreamCursor`] — the N-independent
//!   global transaction stream, drawn a transaction at a time
//!   ([`generate_stream`] collects it);
//! * [`ShardMap`] — the range partition (`owner`, `range`);
//! * [`RoutingPolicy`] + [`route_into`] — what the host dispatcher does
//!   with a transaction whose keys span shards: split it into per-shard
//!   sub-transactions up front ([`RoutingPolicy::RouteToOwner`]) or
//!   dispatch it to its home shard, let the DPU discover the foreign key
//!   and abort, and re-dispatch split next round
//!   ([`RoutingPolicy::AbortAndRetry`]);
//! * [`ShardBatch`] — where routing writes: one flat batch per shard per
//!   round, fixed-size descriptors `(origin, key offset, reads, updates,
//!   probe)` over one key array. One routine cuts a transaction into its
//!   per-owner parts — ascending shard order, the transaction's key order
//!   within a part, one owner lookup per part because ranges are
//!   contiguous — and appends each part to its owner's batch; routing a
//!   stream transaction, splitting a rejected probe's re-dispatch and
//!   re-routing the deferred list ([`RoutedBatch`]) after a recut are all
//!   that routine. Batches are cleared and refilled round after round, so
//!   routing allocates only while a batch is still growing to its
//!   largest round. [`route`] returns one transaction's decision as a
//!   value, for callers that route outside a round;
//!
//! and DPU side:
//!
//! * [`ShardData`] — the shard's slice of the counter array in MRAM;
//! * [`ShardTx`] — one dispatched (sub-)transaction, or a *probe* that
//!   must discover an off-shard key and cancel: a borrowed view into the
//!   batch that carries it;
//! * [`ShardTasklet`] — the per-tasklet loop, a [`TaskletLoop`] that
//!   [`crate::driver::SimTasklet`] runs like every other workload's. Tasklet
//!   `t` of `T` takes sub-transactions `t, t + T, …` of the shard's batch,
//!   which all `T` loops share by reference. A probe's cancel is *final*
//!   ([`ShardTxBody`]'s [`TxBody::cancel_is_final`]): the DPU rejects the
//!   transaction back to the host, and retrying locally would spin forever,
//!   while every other abort retries as usual.

use pim_sim::{KeyDist, KeySampler, SimRng, Tier};
use pim_stm::shared::MetadataAllocator;
use pim_stm::var::{self, TArray, TVar, WordAccess};
use pim_stm::{Abort, Platform, TxOps};

use crate::driver::{BodyStep, Next, TaskletLoop, TxBody};

/// Parameters of the global sharded workload. Everything here is
/// shard-count independent: the same config + seed produces the same
/// global stream whether it runs on 1 DPU or 1024.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedWorkloadConfig {
    /// Size of the global keyspace (counters).
    pub total_keys: u32,
    /// Transactions in the global stream.
    pub total_txns: u32,
    /// Keys read (without modification) per transaction.
    pub reads_per_tx: u32,
    /// Keys incremented per transaction.
    pub updates_per_tx: u32,
    /// Popularity distribution the keys are drawn from.
    pub dist: KeyDist,
    /// Phases the stream is cut into (>= 1). Phase `p` rotates the
    /// rank→key mapping by `p * total_keys / phases`, so under a skewed
    /// distribution the hot keys *move* to a different keyspace region at
    /// each phase change — the moving target adaptive rebalancing chases.
    /// `1` (the default) is the classic stationary stream.
    pub phases: u32,
}

impl ShardedWorkloadConfig {
    /// A small default: 4096 keys, 512 transactions of 2 reads + 2
    /// uniform updates.
    pub fn new(total_keys: u32, total_txns: u32) -> Self {
        ShardedWorkloadConfig {
            total_keys,
            total_txns,
            reads_per_tx: 2,
            updates_per_tx: 2,
            dist: KeyDist::Uniform,
            phases: 1,
        }
    }

    /// Replaces the key-popularity distribution.
    pub fn with_dist(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// Replaces the phase count (must be >= 1).
    pub fn with_phases(mut self, phases: u32) -> Self {
        assert!(phases >= 1, "a stream has at least one phase");
        self.phases = phases;
        self
    }

    /// Keys touched per transaction.
    pub fn keys_per_tx(&self) -> u32 {
        self.reads_per_tx + self.updates_per_tx
    }
}

/// One transaction of the global stream: `reads` keys are read, `updates`
/// keys are incremented. Keys are **global** (the dispatcher routes them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalTx {
    /// Position in the global stream (stable across routing).
    pub id: u32,
    /// Keys read without modification.
    pub reads: Vec<u32>,
    /// Keys incremented by one.
    pub updates: Vec<u32>,
}

/// The seeded global stream, drawn one transaction at a time into one
/// reused [`GlobalTx`]. One [`SimRng`] draw per key, in transaction order —
/// independent of shard count, round size, host thread count and of how
/// the draws are grouped. With `phases > 1` the stream is cut into equal
/// contiguous segments and phase `p` rotates every drawn key by
/// `p * total_keys / phases` ([`KeySampler::sample_shifted`]), keeping
/// the draw discipline (and therefore phase-count-independent prefixes
/// within a phase) intact.
#[derive(Debug, Clone)]
pub struct StreamCursor {
    config: ShardedWorkloadConfig,
    sampler: KeySampler,
    rng: SimRng,
    /// The transaction last drawn, refilled in place by every draw.
    tx: GlobalTx,
    next_id: u32,
}

impl StreamCursor {
    /// The stream of `config` under `seed`, before its first transaction.
    pub fn new(config: &ShardedWorkloadConfig, seed: u64) -> Self {
        StreamCursor {
            config: *config,
            sampler: KeySampler::new(config.dist, u64::from(config.total_keys)),
            rng: SimRng::new(seed),
            tx: GlobalTx {
                id: 0,
                reads: Vec::with_capacity(config.reads_per_tx as usize),
                updates: Vec::with_capacity(config.updates_per_tx as usize),
            },
            next_id: 0,
        }
    }

    /// Transactions not drawn yet.
    pub fn remaining(&self) -> u32 {
        self.config.total_txns - self.next_id
    }

    /// Draws the next transaction, overwriting the previous one; `None`
    /// once the stream is exhausted.
    pub fn draw(&mut self) -> Option<&GlobalTx> {
        let StreamCursor { config, sampler, rng, tx, next_id } = self;
        if *next_id == config.total_txns {
            return None;
        }
        let phases = config.phases.max(1);
        let phase = u64::from(*next_id) * u64::from(phases) / u64::from(config.total_txns);
        let offset = phase * u64::from(config.total_keys / phases);
        let mut fill = |keys: &mut Vec<u32>, count: u32| {
            keys.clear();
            keys.extend((0..count).map(|_| sampler.sample_shifted(rng, offset) as u32));
        };
        fill(&mut tx.reads, config.reads_per_tx);
        fill(&mut tx.updates, config.updates_per_tx);
        tx.id = *next_id;
        *next_id += 1;
        Some(tx)
    }
}

/// The whole stream of a [`StreamCursor`], collected.
pub fn generate_stream(config: &ShardedWorkloadConfig, seed: u64) -> Vec<GlobalTx> {
    let mut cursor = StreamCursor::new(config, seed);
    let mut stream = Vec::with_capacity(config.total_txns as usize);
    while let Some(tx) = cursor.draw() {
        stream.push(tx.clone());
    }
    stream
}

/// The contiguous range partition of `0..total_keys` over N shards, as a
/// mutable boundary map: `bounds[s]` is the first global key shard `s`
/// owns, so shard `s` owns `bounds[s]..bounds[s+1]` (the last shard runs
/// to `total_keys`). The equal-stride constructor reproduces the classic
/// static partition; [`ShardMap::rebalanced`] recuts the boundaries from
/// measured per-key load, which is what skew-adaptive rebalancing swaps
/// in between fleet rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    total_keys: u32,
    /// `bounds[s]` = first key of shard `s`; ascending, `bounds[0] == 0`,
    /// every entry `<= total_keys` (a shard may own an empty range).
    bounds: Vec<u32>,
}

impl ShardMap {
    /// Partitions `0..total_keys` into `shards` contiguous ranges of
    /// `ceil(total_keys / shards)` keys (the last range takes the
    /// remainder).
    ///
    /// # Panics
    ///
    /// Panics when either count is zero.
    pub fn new(total_keys: u32, shards: u32) -> Self {
        assert!(total_keys > 0, "shard map needs a non-empty keyspace");
        assert!(shards > 0, "shard map needs at least one shard");
        let stride = total_keys.div_ceil(shards);
        let bounds = (0..shards).map(|s| (s * stride).min(total_keys)).collect();
        ShardMap { total_keys, bounds }
    }

    /// Builds a map from explicit boundaries (`bounds[s]` = first key of
    /// shard `s`).
    ///
    /// # Panics
    ///
    /// Panics unless `bounds` is non-empty, starts at 0, is
    /// non-decreasing, and stays within the keyspace.
    pub fn with_bounds(total_keys: u32, bounds: Vec<u32>) -> Self {
        assert!(total_keys > 0, "shard map needs a non-empty keyspace");
        assert!(!bounds.is_empty(), "shard map needs at least one shard");
        assert_eq!(bounds[0], 0, "the first shard must start at key 0");
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "boundaries must be non-decreasing");
        assert!(*bounds.last().expect("non-empty") <= total_keys, "boundaries exceed the keyspace");
        ShardMap { total_keys, bounds }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.bounds.len() as u32
    }

    /// Size of the global keyspace.
    pub fn total_keys(&self) -> u32 {
        self.total_keys
    }

    /// The shard boundaries (`bounds[s]` = first key of shard `s`).
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// The shard owning `key`.
    pub fn owner(&self, key: u32) -> u32 {
        debug_assert!(key < self.total_keys);
        // Last boundary at or below `key`; bounds[0] == 0 guarantees one.
        self.bounds.partition_point(|&b| b <= key) as u32 - 1
    }

    /// First global key of `shard`'s range.
    pub fn base(&self, shard: u32) -> u32 {
        self.bounds[shard as usize]
    }

    /// Number of keys `shard` owns (zero is possible when there are more
    /// shards than keys).
    pub fn span(&self, shard: u32) -> u32 {
        let range = self.range(shard);
        range.end - range.start
    }

    /// The global keys `shard` owns.
    pub fn range(&self, shard: u32) -> std::ops::Range<u32> {
        let next = self.bounds.get(shard as usize + 1).copied().unwrap_or(self.total_keys);
        self.base(shard)..next
    }

    /// Recuts the boundaries so each shard carries an (approximately)
    /// equal share of `key_load` — measured touches per global key. Each
    /// key is weighted `load + 1`, so unreferenced regions still spread
    /// across shards instead of collapsing onto one; a single key hotter
    /// than a whole fair share still caps the cut at key granularity
    /// (keys are never split). The result has the same shard count and is
    /// fully determined by the inputs.
    ///
    /// # Panics
    ///
    /// Panics unless `key_load` covers the keyspace exactly.
    pub fn rebalanced(&self, key_load: &[u64]) -> ShardMap {
        assert_eq!(key_load.len(), self.total_keys as usize, "one load entry per key");
        let shards = self.shards() as u128;
        let total: u128 = key_load.iter().map(|&l| u128::from(l) + 1).sum();
        let mut bounds = Vec::with_capacity(self.bounds.len());
        bounds.push(0u32);
        let mut prefix: u128 = 0;
        let mut next = 1u128;
        for (key, &load) in key_load.iter().enumerate() {
            prefix += u128::from(load) + 1;
            // Cut shard `next` as soon as the prefix reaches its target
            // share `next * total / shards`; a very hot key may cross
            // several targets at once, leaving empty shards behind it.
            while next < shards && prefix * shards >= next * total {
                bounds.push(key as u32 + 1);
                next += 1;
            }
        }
        while (bounds.len() as u128) < shards {
            bounds.push(self.total_keys);
        }
        ShardMap { total_keys: self.total_keys, bounds }
    }
}

/// What the host dispatcher does with a transaction whose keys span more
/// than one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// The host inspects the key set up front and splits the transaction
    /// into independent per-owner sub-transactions, all dispatched in the
    /// same round. No DPU time is wasted; the host pays the routing work.
    RouteToOwner,
    /// The host dispatches the whole transaction to its *home* shard (the
    /// owner of its first key). The DPU executes the home-local reads,
    /// discovers the foreign key, and explicitly aborts ([`TxOps::cancel`]
    /// → one [`pim_stm::AbortReason::Explicit`] abort, no commit, real
    /// cycles burned). The host then re-dispatches the transaction split
    /// per owner in the **next** round.
    AbortAndRetry,
}

impl RoutingPolicy {
    /// Parses `"route-to-owner"` / `"abort-retry"`.
    ///
    /// # Errors
    ///
    /// Returns the accepted spellings when `text` is neither.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.trim() {
            "route-to-owner" | "owner" => Ok(RoutingPolicy::RouteToOwner),
            "abort-retry" | "abort-and-retry" => Ok(RoutingPolicy::AbortAndRetry),
            other => Err(format!(
                "unknown routing policy {other:?} (want route-to-owner or abort-retry)"
            )),
        }
    }

    /// Canonical CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            RoutingPolicy::RouteToOwner => "route-to-owner",
            RoutingPolicy::AbortAndRetry => "abort-retry",
        }
    }
}

impl std::fmt::Display for RoutingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One dispatched (sub-)transaction as a shard DPU sees it: a borrowed
/// view into the [`ShardBatch`] that carries it. Keys are global; the shard
/// translates through [`ShardData`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTx<'a> {
    /// Global stream id of the originating [`GlobalTx`].
    pub origin: u32,
    /// Shard-owned keys to read.
    pub reads: &'a [u32],
    /// Shard-owned keys to increment.
    pub updates: &'a [u32],
    /// A probe transaction under [`RoutingPolicy::AbortAndRetry`]: after
    /// executing its reads it must cancel (the off-shard discovery), so it
    /// never commits and its updates list is empty by construction.
    pub probe: bool,
}

impl ShardTx<'_> {
    /// Wire-format size of this descriptor in bytes (one 8-byte header +
    /// 8 bytes per key) — what `scatter` charges for moving it host→DPU.
    pub fn wire_bytes(&self) -> u64 {
        8 + 8 * (self.reads.len() as u64 + self.updates.len() as u64)
    }
}

/// Most keys of one kind (reads or updates) a single sub-transaction can
/// carry: the width of a [`ShardBatch`] descriptor's count fields.
pub const MAX_KEYS_PER_KIND: u32 = u16::MAX as u32;

/// The fixed-size header of one sub-transaction in a [`ShardBatch`]; its
/// keys are `keys[key_offset..][..n_reads + n_updates]`, reads first.
#[derive(Debug, Clone, Copy)]
struct Descriptor {
    origin: u32,
    key_offset: u32,
    n_reads: u16,
    n_updates: u16,
    probe: bool,
}

/// One shard's scatter payload for one round, in the wire layout
/// [`ShardTx::wire_bytes`] prices: a run of fixed-size descriptors over
/// one flat key array. The host router appends to it in place and a fleet
/// keeps it (cleared, capacity retained) across rounds, so steady-state
/// routing allocates nothing; the shard's tasklets read it as shared
/// strided slices ([`ShardTasklet`]).
#[derive(Debug, Clone, Default)]
pub struct ShardBatch {
    keys: Vec<u32>,
    descriptors: Vec<Descriptor>,
}

impl ShardBatch {
    /// Sub-transactions in the batch.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// True when the batch carries no sub-transaction.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Empties the batch, keeping its buffers for the next round.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.descriptors.clear();
    }

    /// Summed [`ShardTx::wire_bytes`] of the batch — what `scatter`
    /// charges for moving it host→DPU.
    pub fn wire_bytes(&self) -> u64 {
        8 * (self.descriptors.len() as u64 + self.keys.len() as u64)
    }

    /// The `index`-th sub-transaction.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn get(&self, index: usize) -> ShardTx<'_> {
        let d = self.descriptors[index];
        let (reads, updates) = self.keys[d.key_offset as usize..]
            [..usize::from(d.n_reads) + usize::from(d.n_updates)]
            .split_at(usize::from(d.n_reads));
        ShardTx { origin: d.origin, reads, updates, probe: d.probe }
    }

    /// The sub-transactions in dispatch order.
    pub fn iter(&self) -> impl Iterator<Item = ShardTx<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends one sub-transaction.
    ///
    /// # Panics
    ///
    /// Panics when either key list is longer than [`MAX_KEYS_PER_KIND`].
    pub fn push(&mut self, tx: ShardTx<'_>) {
        let key_offset = self.keys.len();
        self.keys.extend_from_slice(tx.reads);
        self.keys.extend_from_slice(tx.updates);
        self.describe(tx, key_offset, tx.reads.len());
    }

    /// Appends the part of `tx` whose keys lie in `owned`, in `tx`'s key
    /// order, and returns the smallest key of `tx` at or beyond
    /// `owned.end` — the key that names the next part's owner. One pass
    /// over the keys does the filtering, the copy and the look-ahead.
    fn push_owned(&mut self, tx: ShardTx<'_>, owned: &std::ops::Range<u32>) -> Option<u32> {
        let key_offset = self.keys.len();
        let mut beyond: Option<u32> = None;
        let mut take = |from: &[u32], into: &mut Vec<u32>| {
            for &key in from {
                if key >= owned.end {
                    beyond = Some(beyond.map_or(key, |least| least.min(key)));
                } else if key >= owned.start {
                    into.push(key);
                }
            }
        };
        take(tx.reads, &mut self.keys);
        let n_reads = self.keys.len() - key_offset;
        take(tx.updates, &mut self.keys);
        self.describe(tx, key_offset, n_reads);
        beyond
    }

    /// Heads the keys appended since `key_offset` — the first `n_reads` of
    /// them reads, the rest updates — with `tx`'s descriptor.
    fn describe(&mut self, tx: ShardTx<'_>, key_offset: usize, n_reads: usize) {
        let count = |n: usize| u16::try_from(n).expect("sub-transaction exceeds MAX_KEYS_PER_KIND");
        self.descriptors.push(Descriptor {
            origin: tx.origin,
            key_offset: u32::try_from(key_offset).expect("round batch exceeds u32 keys"),
            n_reads: count(n_reads),
            n_updates: count(self.keys.len() - key_offset - n_reads),
            probe: tx.probe,
        });
    }
}

/// Sub-transactions tagged with their owner shard, in routing order: the
/// shape of a routing decision that is *not* written straight into the
/// owners' batches — [`route`]'s result, and the host's deferred list
/// between an abort-and-retry probe round and the re-dispatch round.
#[derive(Debug, Clone, Default)]
pub struct RoutedBatch {
    owners: Vec<u32>,
    subs: ShardBatch,
}

impl RoutedBatch {
    /// Sub-transactions in the list.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// True when the list is empty.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Empties the list, keeping its buffers.
    pub fn clear(&mut self) {
        self.owners.clear();
        self.subs.clear();
    }

    /// `(owner shard, sub-transaction)` pairs in routing order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, ShardTx<'_>)> {
        self.owners.iter().copied().zip(self.subs.iter())
    }

    /// Appends every sub-transaction to its owner's batch, in order.
    pub fn dispatch_into(&self, batches: &mut [ShardBatch]) {
        for (shard, tx) in self.iter() {
            batches[shard as usize].push(tx);
        }
    }

    /// Re-splits the list under a recut map into `out`: each entry was
    /// split by the old owners, so its keys may now live on different
    /// shards. Emits per-new-owner parts (ascending shard order per entry,
    /// preserving the list order otherwise) — a pure function of its
    /// inputs.
    pub fn reroute_into(&self, map: &ShardMap, out: &mut RoutedBatch) {
        for (_, tx) in self.iter() {
            split_into(tx, map, out);
        }
    }
}

/// Where routing ([`route_into`], [`RoutedBatch::reroute_into`]) appends
/// the part of a transaction it cut for one owner shard.
pub trait SubTxSink {
    /// The batch the next sub-transaction owned by `shard` goes into.
    fn batch_for(&mut self, shard: u32) -> &mut ShardBatch;
}

/// One batch per shard, indexed by shard: the round's scatter payloads.
impl SubTxSink for [ShardBatch] {
    fn batch_for(&mut self, shard: u32) -> &mut ShardBatch {
        &mut self[shard as usize]
    }
}

impl SubTxSink for RoutedBatch {
    fn batch_for(&mut self, shard: u32) -> &mut ShardBatch {
        self.owners.push(shard);
        &mut self.subs
    }
}

/// Splits `tx` into one sub-transaction per owner shard, appended to
/// `sink` in ascending shard order, each keeping `tx`'s key order. A
/// transaction local to one shard comes out as one identical part.
///
/// One owner lookup per *part*, not per key: ranges are contiguous, so
/// once the smallest unplaced key names its owner every other key is
/// placed by comparing against that owner's bounds.
fn split_into<S: SubTxSink + ?Sized>(tx: ShardTx<'_>, map: &ShardMap, sink: &mut S) {
    let mut smallest = tx.reads.iter().chain(tx.updates).copied().min();
    while let Some(key) = smallest {
        let shard = map.owner(key);
        smallest = sink.batch_for(shard).push_owned(tx, &map.range(shard));
    }
}

/// Routes one global transaction under `policy`, appending what the
/// current round dispatches to `now` and what the next round must
/// re-dispatch to `deferred`. Transactions local to one shard dispatch
/// unchanged either way; see [`RoutingPolicy`] for the cross-shard
/// behaviour. With `now` the fleet's per-shard batches this writes the
/// scatter payloads in place and allocates nothing once they have grown.
///
/// # Panics
///
/// Panics on a transaction without keys.
pub fn route_into<S: SubTxSink + ?Sized>(
    tx: &GlobalTx,
    map: &ShardMap,
    policy: RoutingPolicy,
    now: &mut S,
    deferred: &mut RoutedBatch,
) {
    let whole = ShardTx { origin: tx.id, reads: &tx.reads, updates: &tx.updates, probe: false };
    let first = *tx.reads.first().or_else(|| tx.updates.first()).expect("empty tx");
    if policy == RoutingPolicy::AbortAndRetry {
        let home = map.owner(first);
        let owned = map.range(home);
        if !tx.reads.iter().chain(&tx.updates).all(|k| owned.contains(k)) {
            let probe = ShardTx { updates: &[], probe: true, ..whole };
            now.batch_for(home).push_owned(probe, &owned);
            split_into(whole, map, deferred);
            return;
        }
    }
    split_into(whole, map, now);
}

/// The host dispatcher's routing decision for one global transaction.
#[derive(Debug, Clone, Default)]
pub struct Routed {
    /// Sub-transactions to dispatch in the current round.
    pub now: RoutedBatch,
    /// Sub-transactions deferred to the next round (the abort-and-retry
    /// re-dispatch after a probe rejection).
    pub deferred: RoutedBatch,
}

/// [`route_into`] for one transaction on its own: the decision as a
/// value instead of appended to a round's batches.
pub fn route(tx: &GlobalTx, map: &ShardMap, policy: RoutingPolicy) -> Routed {
    let mut routed = Routed::default();
    route_into(tx, map, policy, &mut routed.now, &mut routed.deferred);
    routed
}

/// One shard's slice of the global counter array, resident in its DPU's
/// MRAM.
#[derive(Debug, Clone, Copy)]
pub struct ShardData {
    array: TArray<u64>,
    base: u32,
    span: u32,
}

impl ShardData {
    /// Allocates the counters for the shard owning global keys
    /// `base..base + span`.
    ///
    /// # Panics
    ///
    /// Panics if the DPU's MRAM cannot hold the slice (the fleet sizes
    /// each DPU to its shard, so this indicates a sizing bug).
    pub fn allocate<A: MetadataAllocator + ?Sized>(alloc: &mut A, base: u32, span: u32) -> Self {
        let array = var::alloc_array(alloc, Tier::Mram, span.max(1))
            .expect("shard counter slice must fit in the shard DPU's MRAM");
        ShardData { array, base, span }
    }

    /// First global key this shard owns.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of keys this shard owns.
    pub fn span(&self) -> u32 {
        self.span
    }

    /// The counter for global key `key` (must be shard-owned).
    pub fn counter(&self, key: u32) -> TVar<u64> {
        debug_assert!(
            key >= self.base && key < self.base + self.span,
            "key {key} is not owned by shard [{}, {})",
            self.base,
            self.base + self.span
        );
        self.array.at(key - self.base)
    }

    /// Sum of this shard's counters, read host-side.
    pub fn counter_sum<M: WordAccess + ?Sized>(&self, mem: &M) -> u64 {
        (0..self.span).map(|i| var::peek_var(mem, self.array.at(i))).sum()
    }

    /// Folds this shard's counters (in global key order) into an FNV-1a
    /// hash state. Folding every shard in shard order therefore hashes the
    /// whole global array in key order — the partition-invariant
    /// fingerprint.
    pub fn fold_fingerprint<M: WordAccess + ?Sized>(&self, mem: &M, hash: u64) -> u64 {
        let mut hash = hash;
        for i in 0..self.span {
            let word = var::peek_var(mem, self.array.at(i));
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
        hash
    }
}

/// FNV-1a offset basis — seed value for [`ShardData::fold_fingerprint`].
pub const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The resumable body of one [`ShardTx`]: reads, then increment
/// read-modify-writes, one operation per simulator step; a probe issues
/// its reads and then cancels, and that cancel is final: the DPU rejects
/// the transaction back to the host, which re-dispatches it, so retrying
/// it locally would spin forever.
#[derive(Debug)]
pub struct ShardTxBody<'a> {
    data: ShardData,
    tx: ShardTx<'a>,
    position: usize,
}

impl ShardTxBody<'_> {
    fn total_ops(&self) -> usize {
        self.tx.reads.len() + self.tx.updates.len()
    }
}

impl TxBody for ShardTxBody<'_> {
    fn reset(&mut self) {
        self.position = 0;
    }

    fn cancel_is_final(&self) -> bool {
        true
    }

    fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort> {
        let position = self.position;
        if position < self.tx.reads.len() {
            tx.get(self.data.counter(self.tx.reads[position]))?;
        } else if position < self.total_ops() {
            let counter = self.data.counter(self.tx.updates[position - self.tx.reads.len()]);
            let value = tx.get(counter)?;
            tx.set(counter, value.wrapping_add(1))?;
        } else {
            // A probe has run out of local work: this is the step where the
            // DPU "discovers" the off-shard key and rejects the transaction
            // back to the host.
            debug_assert!(self.tx.probe);
            return Err(tx.cancel());
        }
        self.position += 1;
        if self.position >= self.total_ops() && !self.tx.probe {
            Ok(BodyStep::Done)
        } else {
            Ok(BodyStep::Continue)
        }
    }
}

/// One shard tasklet's loop for one fleet round: drains its hand of the
/// shard's [`ShardBatch`], one sub-transaction per hand-over. The batch is
/// dealt round-robin without being copied: tasklet `t` of `T` takes
/// sub-transactions `t, t + T, t + 2T, …` of the one shared batch.
#[derive(Debug)]
pub struct ShardTasklet<'a> {
    body: ShardTxBody<'a>,
    batch: &'a ShardBatch,
    /// Index in `batch` of this tasklet's next sub-transaction.
    next: usize,
    /// Tasklets sharing `batch` (the stride of this tasklet's hand).
    tasklets: usize,
}

impl<'a> ShardTasklet<'a> {
    /// The loop of tasklet `tasklet` of the `tasklets` that share `batch`
    /// this round.
    pub fn new(data: ShardData, batch: &'a ShardBatch, tasklet: usize, tasklets: usize) -> Self {
        assert!(tasklet < tasklets, "tasklet {tasklet} is not one of {tasklets}");
        let tx = ShardTx { origin: 0, reads: &[], updates: &[], probe: false };
        ShardTasklet { body: ShardTxBody { data, tx, position: 0 }, batch, next: tasklet, tasklets }
    }
}

impl<'a> TaskletLoop for ShardTasklet<'a> {
    type Body = ShardTxBody<'a>;

    fn between(&mut self, _: &mut dyn Platform) -> Next {
        if self.next >= self.batch.len() {
            return Next::Finish;
        }
        self.body.tx = self.batch.get(self.next);
        self.next += self.tasklets;
        Next::Run
    }

    fn body(&mut self) -> &mut ShardTxBody<'a> {
        &mut self.body
    }
}

/// The router this module shipped before the flat [`ShardBatch`]: one
/// owned sub-transaction with two `Vec`s per part, `Vec`-per-owner
/// splitting and a copying deal. Kept as the reference the flat router
/// and the strided [`ShardTasklet`] hands are tested against.
#[cfg(test)]
mod reference {
    use super::{GlobalTx, RoutingPolicy, ShardMap};

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ShardTx {
        pub origin: u32,
        pub reads: Vec<u32>,
        pub updates: Vec<u32>,
        pub probe: bool,
    }

    impl ShardTx {
        pub fn wire_bytes(&self) -> u64 {
            8 + 8 * (self.reads.len() as u64 + self.updates.len() as u64)
        }
    }

    #[derive(Debug, Clone, Default)]
    pub struct Routed {
        pub now: Vec<(u32, ShardTx)>,
        pub deferred: Vec<(u32, ShardTx)>,
    }

    /// Splits `origin`'s keys into per-owner sub-transactions, in
    /// ascending shard order.
    fn split(
        origin: u32,
        reads: &[u32],
        updates: &[u32],
        probe: bool,
        map: &ShardMap,
    ) -> Vec<(u32, ShardTx)> {
        let mut parts: Vec<(u32, ShardTx)> = Vec::new();
        let part = |parts: &mut Vec<(u32, ShardTx)>, shard: u32| -> usize {
            match parts.iter().position(|(s, _)| *s == shard) {
                Some(i) => i,
                None => {
                    let tx = ShardTx { origin, reads: Vec::new(), updates: Vec::new(), probe };
                    parts.push((shard, tx));
                    parts.len() - 1
                }
            }
        };
        for &key in reads {
            let i = part(&mut parts, map.owner(key));
            parts[i].1.reads.push(key);
        }
        for &key in updates {
            let i = part(&mut parts, map.owner(key));
            parts[i].1.updates.push(key);
        }
        parts.sort_by_key(|(s, _)| *s);
        parts
    }

    pub fn route(tx: &GlobalTx, map: &ShardMap, policy: RoutingPolicy) -> Routed {
        let home = map.owner(*tx.reads.first().or_else(|| tx.updates.first()).expect("empty tx"));
        let local = tx.reads.iter().chain(&tx.updates).all(|&k| map.owner(k) == home);
        let split = || split(tx.id, &tx.reads, &tx.updates, false, map);
        if local {
            let whole = ShardTx {
                origin: tx.id,
                reads: tx.reads.clone(),
                updates: tx.updates.clone(),
                probe: false,
            };
            return Routed { now: vec![(home, whole)], deferred: Vec::new() };
        }
        match policy {
            RoutingPolicy::RouteToOwner => Routed { now: split(), deferred: Vec::new() },
            RoutingPolicy::AbortAndRetry => {
                let home_reads =
                    tx.reads.iter().copied().filter(|&k| map.owner(k) == home).collect();
                let probe =
                    ShardTx { origin: tx.id, reads: home_reads, updates: Vec::new(), probe: true };
                Routed { now: vec![(home, probe)], deferred: split() }
            }
        }
    }

    /// Re-splits deferred sub-transactions under a recut map.
    pub fn reroute(deferred: Vec<(u32, ShardTx)>, map: &ShardMap) -> Vec<(u32, ShardTx)> {
        deferred
            .into_iter()
            .flat_map(|(_, tx)| split(tx.origin, &tx.reads, &tx.updates, tx.probe, map))
            .collect()
    }

    /// Deals a round batch across `tasklets` round-robin, preserving
    /// relative order within each tasklet's hand.
    pub fn deal_batch(batch: Vec<ShardTx>, tasklets: usize) -> Vec<Vec<ShardTx>> {
        let mut hands: Vec<Vec<ShardTx>> = (0..tasklets.max(1)).map(|_| Vec::new()).collect();
        for (i, tx) in batch.into_iter().enumerate() {
            let hand = i % tasklets.max(1);
            hands[hand].push(tx);
        }
        hands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{SimTasklet, TxMachine};
    use pim_sim::{Dpu, DpuConfig, Scheduler, TaskletProgram};
    use pim_stm::{AbortReason, MetadataPlacement, StmConfig, StmKind, StmShared};
    use proptest::prelude::*;

    fn local_tx(id: u32, reads: Vec<u32>, updates: Vec<u32>) -> GlobalTx {
        GlobalTx { id, reads, updates }
    }

    #[test]
    fn shard_map_partitions_the_whole_keyspace() {
        let map = ShardMap::new(1000, 7);
        let mut covered = 0;
        for s in 0..7 {
            for k in map.base(s)..map.base(s) + map.span(s) {
                assert_eq!(map.owner(k), s, "key {k}");
            }
            covered += map.span(s);
        }
        assert_eq!(covered, 1000);
        // More shards than keys: trailing shards own zero keys.
        let tiny = ShardMap::new(3, 8);
        assert_eq!((0..8).map(|s| tiny.span(s)).sum::<u32>(), 3);
    }

    #[test]
    fn rebalancing_recuts_boundaries_toward_the_load() {
        let map = ShardMap::new(100, 4);
        // All load on keys 0..10: the hot decile spreads over the shards
        // and the cold tail compresses.
        let mut load = vec![0u64; 100];
        for entry in load.iter_mut().take(10) {
            *entry = 1000;
        }
        let hot = map.rebalanced(&load);
        assert_eq!(hot.shards(), 4);
        assert_eq!(hot.total_keys(), 100);
        // Every shard still owns a contiguous range covering the keyspace.
        assert_eq!((0..4).map(|s| hot.span(s)).sum::<u32>(), 100);
        for s in 0..4 {
            for k in hot.base(s)..hot.base(s) + hot.span(s) {
                assert_eq!(hot.owner(k), s);
            }
        }
        // The hot region no longer sits on one shard: shard 0 shrank from
        // 25 keys to a handful, and per-shard load is near-balanced.
        assert!(hot.span(0) < 10, "hot shard must shrink (span {})", hot.span(0));
        let shard_load = |m: &ShardMap, s: u32| -> u64 {
            (m.base(s)..m.base(s) + m.span(s)).map(|k| load[k as usize]).sum()
        };
        let max_hot = (0..4).map(|s| shard_load(&hot, s)).max().unwrap();
        let max_static = (0..4).map(|s| shard_load(&map, s)).max().unwrap();
        assert!(max_hot * 2 < max_static, "rebalance must split the hot range");
        // Uniform load reproduces a near-equal partition.
        let flat = map.rebalanced(&vec![5u64; 100]);
        assert!((0..4).all(|s| flat.span(s) == 25));
        // Explicit bounds round-trip and bad bounds are rejected.
        let explicit = ShardMap::with_bounds(100, hot.bounds().to_vec());
        assert_eq!(explicit, hot);
        assert!(std::panic::catch_unwind(|| ShardMap::with_bounds(100, vec![1, 50])).is_err());
        assert!(std::panic::catch_unwind(|| ShardMap::with_bounds(100, vec![0, 60, 40])).is_err());
    }

    #[test]
    fn phased_streams_move_the_hot_region_and_stay_deterministic() {
        let base = ShardedWorkloadConfig::new(1024, 400).with_dist(KeyDist::Zipf { theta: 1.2 });
        let stationary = generate_stream(&base, 7);
        let phased = generate_stream(&base.with_phases(2), 7);
        assert_eq!(phased.len(), stationary.len());
        // Phase 0 is untouched; phase 1 rotates every key by half the
        // keyspace (same underlying draws).
        for (a, b) in stationary.iter().zip(&phased) {
            let keys = |t: &GlobalTx| t.reads.iter().chain(&t.updates).copied().collect::<Vec<_>>();
            if b.id < 200 {
                assert_eq!(keys(a), keys(b), "phase 0 must match the stationary stream");
            } else {
                let rotated: Vec<u32> = keys(a).iter().map(|&k| (k + 512) % 1024).collect();
                assert_eq!(keys(b), rotated, "phase 1 is the rotated mapping");
            }
        }
        assert_eq!(generate_stream(&base.with_phases(2), 7), phased, "seeded and reproducible");
        assert_eq!(generate_stream(&base.with_phases(1), 7), stationary);
    }

    #[test]
    fn stream_generation_is_shard_count_independent() {
        let config = ShardedWorkloadConfig::new(4096, 64).with_dist(KeyDist::Zipf { theta: 0.9 });
        let a = generate_stream(&config, 42);
        let b = generate_stream(&config, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|t| t.reads.len() == 2 && t.updates.len() == 2));
        assert!(a.iter().flat_map(|t| t.reads.iter().chain(&t.updates)).all(|&k| k < 4096));
    }

    #[test]
    fn a_cursor_drawn_in_uneven_chunks_is_the_generated_stream() {
        let config = ShardedWorkloadConfig {
            reads_per_tx: 3,
            updates_per_tx: 1,
            ..ShardedWorkloadConfig::new(512, 97)
        }
        .with_dist(KeyDist::Zipf { theta: 0.9 })
        .with_phases(3);
        let whole = generate_stream(&config, 5);
        assert!(whole.iter().map(|tx| tx.id).eq(0..97));
        let mut cursor = StreamCursor::new(&config, 5);
        let mut drawn: Vec<GlobalTx> = Vec::new();
        // Chunks as rounds of different sizes take them: an empty one, and
        // a last one that asks for more than is left.
        for chunk in [1usize, 0, 40, 7, 60] {
            for _ in 0..chunk {
                let Some(tx) = cursor.draw() else { break };
                drawn.push(tx.clone());
            }
            assert_eq!(cursor.remaining() as usize, 97 - drawn.len());
        }
        assert_eq!(drawn, whole);
        assert!(cursor.draw().is_none(), "an exhausted cursor stays exhausted");
    }

    #[test]
    fn zipf_streams_are_pinned_key_for_key() {
        // FNV-1a over the first 100 000 keys a cursor draws (25 000
        // transactions of 2 reads + 2 updates), for every (θ, phases,
        // keyspace) below. Pinned from the binary-search sampler, so any
        // faster rank lookup must reproduce every key.
        const PINNED: [(f64, u32, u32, u64); 12] = [
            (0.9, 1, 65_536, 0x0d06_5b5b_1da1_cc08),
            (0.9, 1, 100_003, 0xf223_8897_f76d_b857),
            (0.9, 4, 65_536, 0x5d76_5128_0da0_d188),
            (0.9, 4, 100_003, 0x28b3_4ad3_2e0f_c468),
            (0.99, 1, 65_536, 0xe3a9_d60d_3c68_afd1),
            (0.99, 1, 100_003, 0xdc6a_ff8b_7e29_3f50),
            (0.99, 4, 65_536, 0xf9c4_530f_67be_3dd1),
            (0.99, 4, 100_003, 0xe01a_f6ef_6cdd_f9f9),
            (1.2, 1, 65_536, 0xb908_bac9_f982_f6c6),
            (1.2, 1, 100_003, 0xaaa2_9590_90e2_31ef),
            (1.2, 4, 65_536, 0x50f6_87e1_2b09_bdc6),
            (1.2, 4, 100_003, 0xf892_7f6b_cb0e_8eee),
        ];
        let mut got = Vec::new();
        for &(theta, phases, keys, _) in &PINNED {
            let config = ShardedWorkloadConfig::new(keys, 25_000)
                .with_dist(KeyDist::Zipf { theta })
                .with_phases(phases);
            let mut cursor = StreamCursor::new(&config, 7);
            let mut hash = FINGERPRINT_SEED;
            let mut drawn = 0u32;
            while let Some(tx) = cursor.draw() {
                for &key in tx.reads.iter().chain(&tx.updates) {
                    for byte in key.to_le_bytes() {
                        hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                    }
                    drawn += 1;
                }
            }
            assert_eq!(drawn, 100_000);
            got.push((theta, phases, keys, hash));
        }
        for (pinned, got) in PINNED.iter().zip(&got) {
            assert_eq!(pinned, got, "(θ, phases, keys, fnv) of the first 100 000 keys");
        }
    }

    #[test]
    fn route_to_owner_splits_cross_shard_txns() {
        let map = ShardMap::new(100, 4); // shards own 25 keys each
        let tx = local_tx(7, vec![3, 30], vec![60, 4]);
        let routed = route(&tx, &map, RoutingPolicy::RouteToOwner);
        assert!(routed.deferred.is_empty());
        assert_eq!(routed.now.len(), 3);
        let total_keys: usize =
            routed.now.iter().map(|(_, t)| t.reads.len() + t.updates.len()).sum();
        assert_eq!(total_keys, 4);
        assert!(routed
            .now
            .iter()
            .all(|(s, t)| { t.reads.iter().chain(t.updates).all(|&k| map.owner(k) == s) }));
    }

    #[test]
    fn abort_retry_probes_home_and_defers_the_split() {
        let map = ShardMap::new(100, 4);
        let tx = local_tx(9, vec![3, 30], vec![60]);
        let routed = route(&tx, &map, RoutingPolicy::AbortAndRetry);
        assert_eq!(routed.now.len(), 1);
        let (home, probe) = routed.now.iter().next().unwrap();
        assert_eq!(home, 0, "home = owner of the first key");
        assert!(probe.probe);
        assert_eq!(probe.reads, [3], "probe only reads home-local keys");
        assert!(probe.updates.is_empty(), "a probe must not apply partial updates");
        assert_eq!(routed.deferred.len(), 3);
    }

    #[test]
    fn local_txns_dispatch_unchanged_under_both_policies() {
        let map = ShardMap::new(100, 4);
        let tx = local_tx(1, vec![26, 30], vec![49]);
        for policy in [RoutingPolicy::RouteToOwner, RoutingPolicy::AbortAndRetry] {
            let routed = route(&tx, &map, policy);
            assert!(routed.deferred.is_empty());
            assert_eq!(routed.now.len(), 1);
            let (shard, whole) = routed.now.iter().next().unwrap();
            assert_eq!(shard, 1);
            assert!(!whole.probe);
            assert_eq!((whole.reads, whole.updates), (&tx.reads[..], &tx.updates[..]));
        }
    }

    fn run_one_shard(batch: &ShardBatch, span: u32) -> (Dpu, ShardData, u64, u64) {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::new(StmKind::Norec, MetadataPlacement::Mram);
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        let data = ShardData::allocate(&mut dpu, 0, span);
        let tasklets = 4;
        let mut machines: Vec<TxMachine> = (0..tasklets)
            .map(|t| {
                let slot = shared.register_tasklet(&mut dpu, t).unwrap();
                TxMachine::for_shared(shared.clone(), slot)
            })
            .collect();
        let programs: Vec<Box<dyn TaskletProgram + '_>> = machines
            .iter_mut()
            .enumerate()
            .map(|(t, tm)| {
                let tasklet = ShardTasklet::new(data, batch, t, tasklets);
                Box::new(SimTasklet::new(tm, tasklet)) as Box<dyn TaskletProgram>
            })
            .collect();
        let report = Scheduler::new().run(&mut dpu, programs);
        let explicit: u64 = report
            .tasklet_stats
            .iter()
            .map(|s| s.profile.abort_codes[AbortReason::Explicit.index()])
            .sum();
        let commits = report.total_commits();
        (dpu, data, commits, explicit)
    }

    #[test]
    fn shard_program_commits_local_batches_and_conserves_increments() {
        let mut batch = ShardBatch::default();
        for i in 0..40 {
            let (reads, updates) = ([i % 16], [(i * 7) % 16, (i * 3) % 16]);
            batch.push(ShardTx { origin: i, reads: &reads, updates: &updates, probe: false });
        }
        let (dpu, data, commits, explicit) = run_one_shard(&batch, 16);
        assert_eq!(commits, 40);
        assert_eq!(explicit, 0);
        assert_eq!(data.counter_sum(&dpu), 80, "two increments per committed tx");
    }

    #[test]
    fn probes_reject_exactly_once_and_commit_nothing() {
        let mut batch = ShardBatch::default();
        for i in 0..10 {
            batch.push(ShardTx { origin: i, reads: &[i % 8], updates: &[], probe: true });
        }
        // One probe with no local reads at all: cancels on its first step.
        batch.push(ShardTx { origin: 99, reads: &[], updates: &[], probe: true });
        let (dpu, data, commits, explicit) = run_one_shard(&batch, 8);
        assert_eq!(commits, 0, "probes never commit");
        assert_eq!(explicit, 11, "every probe rejects exactly once");
        assert_eq!(data.counter_sum(&dpu), 0);
    }

    #[test]
    fn fingerprint_folding_is_partition_invariant() {
        // Hash 8 counters as one shard vs two 4-counter shards: identical.
        let mut dpu = Dpu::new(DpuConfig::small());
        let whole = ShardData::allocate(&mut dpu, 0, 8);
        for i in 0..8 {
            var::poke_var(&mut dpu, whole.array.at(i), u64::from(i) * 3);
        }
        let one = whole.fold_fingerprint(&dpu, FINGERPRINT_SEED);

        let mut dpu2 = Dpu::new(DpuConfig::small());
        let lo = ShardData::allocate(&mut dpu2, 0, 4);
        let mut dpu3 = Dpu::new(DpuConfig::small());
        let hi = ShardData::allocate(&mut dpu3, 4, 4);
        for i in 0..4 {
            var::poke_var(&mut dpu2, lo.array.at(i), u64::from(i) * 3);
            var::poke_var(&mut dpu3, hi.array.at(i), u64::from(i + 4) * 3);
        }
        let two = hi.fold_fingerprint(&dpu3, lo.fold_fingerprint(&dpu2, FINGERPRINT_SEED));
        assert_eq!(one, two);
    }

    #[test]
    fn policy_parsing_round_trips() {
        for policy in [RoutingPolicy::RouteToOwner, RoutingPolicy::AbortAndRetry] {
            assert_eq!(RoutingPolicy::parse(policy.label()).unwrap(), policy);
        }
        assert!(RoutingPolicy::parse("teleport").is_err());
    }

    #[test]
    fn deal_batch_preserves_every_transaction() {
        let batch: Vec<reference::ShardTx> = (0..13)
            .map(|i| reference::ShardTx {
                origin: i,
                reads: vec![],
                updates: vec![0],
                probe: false,
            })
            .collect();
        let hands = reference::deal_batch(batch, 4);
        assert_eq!(hands.len(), 4);
        assert_eq!(hands.iter().map(Vec::len).sum::<usize>(), 13);
        let mut origins: Vec<u32> = hands.iter().flat_map(|h| h.iter().map(|t| t.origin)).collect();
        origins.sort_unstable();
        assert_eq!(origins, (0..13).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "MAX_KEYS_PER_KIND")]
    fn an_oversized_sub_transaction_is_refused_not_truncated() {
        let reads = vec![0; MAX_KEYS_PER_KIND as usize + 1];
        ShardBatch::default().push(ShardTx {
            origin: 0,
            reads: &reads,
            updates: &[],
            probe: false,
        });
    }

    /// A flat sub-transaction as the owned reference form.
    fn owned(tx: ShardTx<'_>) -> reference::ShardTx {
        reference::ShardTx {
            origin: tx.origin,
            reads: tx.reads.to_vec(),
            updates: tx.updates.to_vec(),
            probe: tx.probe,
        }
    }

    fn owned_list(list: &RoutedBatch) -> Vec<(u32, reference::ShardTx)> {
        list.iter().map(|(shard, tx)| (shard, owned(tx))).collect()
    }

    /// Random non-decreasing boundaries starting at 0: empty shards and
    /// more shards than keys both occur.
    fn arb_cuts() -> impl Strategy<Value = Vec<u32>> {
        prop::collection::vec(0u32..48, 0..12)
    }

    fn map_from(total_keys: u32, mut cuts: Vec<u32>) -> ShardMap {
        cuts.iter_mut().for_each(|cut| *cut %= total_keys + 1);
        cuts.push(0);
        cuts.sort_unstable();
        ShardMap::with_bounds(total_keys, cuts)
    }

    /// Random transactions over a 48-key space; `clamp` folds them into a
    /// map's keyspace. At least one key each.
    fn arb_stream() -> impl Strategy<Value = Vec<(Vec<u32>, Vec<u32>)>> {
        let keys = |most| prop::collection::vec(0u32..48, 0..most);
        prop::collection::vec((keys(5), keys(5), 0u32..48), 1..40).prop_map(|txs| {
            txs.into_iter()
                .map(|(mut reads, updates, spare)| {
                    if reads.is_empty() && updates.is_empty() {
                        reads.push(spare);
                    }
                    (reads, updates)
                })
                .collect()
        })
    }

    fn clamp(stream: &[(Vec<u32>, Vec<u32>)], total_keys: u32) -> Vec<GlobalTx> {
        let fold = |keys: &[u32]| keys.iter().map(|k| k % total_keys).collect();
        stream
            .iter()
            .enumerate()
            .map(|(id, (reads, updates))| local_tx(id as u32, fold(reads), fold(updates)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One round routed in place equals the reference router's
        /// `Vec`-per-owner output: per-shard sub-transaction sequence
        /// (with last round's deferred list dispatched first), scatter
        /// bytes, every tasklet's hand, and the deferred list — before and
        /// after a recut re-routes it.
        #[test]
        fn flat_routing_matches_the_reference_router(
            total_keys in 1u32..48,
            cuts in arb_cuts(),
            recuts in arb_cuts(),
            stream in arb_stream(),
            carried in arb_stream(),
            retry in any::<bool>(),
            tasklets in 1usize..6,
        ) {
            let policy =
                if retry { RoutingPolicy::AbortAndRetry } else { RoutingPolicy::RouteToOwner };
            let map = map_from(total_keys, cuts);
            let shards = map.shards() as usize;
            for key in 0..total_keys {
                prop_assert!(map.range(map.owner(key)).contains(&key));
            }

            // A deferred list carried in from the previous round: what an
            // abort-and-retry round leaves behind, under this map.
            let mut carried_flat = RoutedBatch::default();
            let mut carried_ref = Vec::new();
            for tx in clamp(&carried, map.total_keys()) {
                let mut now = RoutedBatch::default();
                route_into(&tx, &map, RoutingPolicy::AbortAndRetry, &mut now, &mut carried_flat);
                carried_ref.extend(reference::route(&tx, &map, RoutingPolicy::AbortAndRetry).deferred);
            }
            prop_assert_eq!(owned_list(&carried_flat), carried_ref.clone());

            let mut batches = vec![ShardBatch::default(); shards];
            let mut deferred = RoutedBatch::default();
            let mut batches_ref: Vec<Vec<reference::ShardTx>> = vec![Vec::new(); shards];
            let mut deferred_ref = Vec::new();
            carried_flat.dispatch_into(&mut batches);
            for (shard, tx) in carried_ref {
                batches_ref[shard as usize].push(tx);
            }
            for tx in clamp(&stream, map.total_keys()) {
                route_into(&tx, &map, policy, &mut batches[..], &mut deferred);
                let routed = reference::route(&tx, &map, policy);
                prop_assert_eq!(owned_list(&route(&tx, &map, policy).now), routed.now.clone());
                for (shard, sub) in routed.now {
                    batches_ref[shard as usize].push(sub);
                }
                deferred_ref.extend(routed.deferred);
            }

            for (batch, batch_ref) in batches.iter().zip(&batches_ref) {
                let flat: Vec<reference::ShardTx> = batch.iter().map(owned).collect();
                prop_assert_eq!(&flat, batch_ref);
                prop_assert_eq!(batch.len(), batch_ref.len());
                prop_assert_eq!(
                    batch.wire_bytes(),
                    batch_ref.iter().map(reference::ShardTx::wire_bytes).sum::<u64>()
                );
                prop_assert_eq!(
                    batch.iter().map(|tx| tx.wire_bytes()).sum::<u64>(),
                    batch.wire_bytes()
                );
                let hands_ref = reference::deal_batch(batch_ref.clone(), tasklets);
                for (t, hand_ref) in hands_ref.iter().enumerate() {
                    let hand: Vec<reference::ShardTx> = (t..batch.len())
                        .step_by(tasklets)
                        .map(|i| owned(batch.get(i)))
                        .collect();
                    prop_assert_eq!(&hand, hand_ref);
                }
            }
            prop_assert_eq!(owned_list(&deferred), deferred_ref.clone());

            // A recut between the rounds re-splits the deferred list.
            let recut = map_from(total_keys, recuts);
            let mut rerouted = RoutedBatch::default();
            deferred.reroute_into(&recut, &mut rerouted);
            prop_assert_eq!(owned_list(&rerouted), reference::reroute(deferred_ref, &recut));
        }
    }
}
