//! The counter fleet: N simulated shard DPUs serving one sharded
//! counter-array workload behind the round driver ([`crate::round`]).
//!
//! [`run`] executes the workload on a fleet described by [`FleetConfig`]:
//!
//! 1. **Partition** — the global keyspace is range-partitioned over the N
//!    shard DPUs ([`ShardMap`]); each shard DPU holds exactly the words its
//!    slice and its STM metadata allocate in each tier (counted first, see
//!    [`pim_stm::shared::build_sized`]), so fleets of thousands of DPUs do
//!    not allocate thousands of 64 MB MRAM banks or 64 KB scratchpads.
//! 2. **Rounds** — [`run_rounds`] drives the job below through the round
//!    model stated once in [`crate::round`]. What is specific here:
//!    * *Routing.* A round takes up to [`FleetConfig::txns_per_round`]
//!      transactions off the global stream and routes them
//!      ([`RoutingPolicy`]) *in place* into one flat [`ShardBatch`] per
//!      shard — fixed-size descriptors over one key array, the scatter
//!      payload in the layout the ledger prices. Under `abort-retry` a
//!      cross-shard transaction is dispatched home as a probe, rejected by
//!      the DPU via an explicit abort, and its split parts wait on a
//!      deferred list that enters at the head of the *next* round — which
//!      therefore consumed this round's outputs and cannot overlap it.
//!    * *A shard's round.* Tasklet `t` of `T` executes sub-transactions
//!      `t, t + T, …` of the shared batch on that shard's simulator, on
//!      the transaction machine the shard keeps for that tasklet: its
//!      staging buffers carry over, its contention bookkeeping starts
//!      every round from zero. The round reads and writes only that
//!      shard's state.
//!    * *A recut.* Only the shards whose slice changed are rebuilt (counter
//!      values move with their keys, accumulators stay), every moved key
//!      is charged, and the deferred list is re-split under the new map.
//! 3. **Report** — per-shard stats, the driver's per-round stats, ledger
//!    and pipeline/rebalance panels, the merged cycle-domain
//!    [`pim_stm::ExecProfile`] and the partition-invariant fingerprint
//!    land in one [`FleetReport`].
//!
//! Determinism: shard simulators are deterministic, the stream is seeded,
//! and all host costs are modeled (never measured) — so the report is
//! bit-identical regardless of `host_workers` and of the machine it runs
//! on.

use pim_sim::{Dpu, DpuConfig, Scheduler, TaskletProgram};
use pim_stm::profile::TimeDomain;
use pim_stm::shared::build_sized;
use pim_stm::{var, AbortReason, ExecProfile, MetadataPlacement, StmConfig, StmKind, StmShared};
use pim_workloads::sharded::{
    route_into, RoutedBatch, ShardBatch, ShardData, ShardTasklet, StreamCursor, FINGERPRINT_SEED,
    MAX_KEYS_PER_KIND,
};
use pim_workloads::{RoutingPolicy, ShardMap, ShardedWorkloadConfig, SimTasklet, TxMachine};

use crate::rebalance::{RebalancePolicy, Rebalancer};
use crate::report::{FleetReport, Imbalance, RoundStats, ShardStats};
pub use crate::round::MIGRATION_BYTES_PER_KEY;
use crate::round::{migration_bytes, run_rounds, RoundLog, ShardJob, ShardRound};

/// Everything that defines one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Shard DPUs in the fleet.
    pub n_dpus: usize,
    /// Tasklets per shard DPU.
    pub tasklets: usize,
    /// STM design every shard runs.
    pub kind: StmKind,
    /// Metadata placement on every shard.
    pub placement: MetadataPlacement,
    /// The global workload (keyspace, stream length, skew) — shard-count
    /// independent by construction.
    pub workload: ShardedWorkloadConfig,
    /// Cross-shard routing policy.
    pub routing: RoutingPolicy,
    /// Global transactions the host dispatches per round (the round
    /// granularity of the barrier).
    pub txns_per_round: usize,
    /// Seed of the global stream.
    pub seed: u64,
    /// Host worker threads simulating shards in parallel; `0` = one per
    /// available core. Affects wall-clock speed only, never results.
    pub host_workers: usize,
    /// When to recut the range partition between rounds (default `Off` —
    /// the static partition of every previous fleet).
    pub rebalance: RebalancePolicy,
    /// Double-buffered round pipeline: model round *k+1*'s pre-work as
    /// overlapping round *k*'s compute (default `false` — the serial
    /// round structure of every previous fleet).
    pub overlap: bool,
}

impl FleetConfig {
    /// A fleet of `n_dpus` over `workload`, with the defaults the `--fleet`
    /// sweep uses: 8 tasklets, NOrec with MRAM metadata, route-to-owner,
    /// four dispatch rounds.
    pub fn new(n_dpus: usize, workload: ShardedWorkloadConfig) -> Self {
        FleetConfig {
            n_dpus,
            tasklets: 8,
            kind: StmKind::Norec,
            placement: MetadataPlacement::Mram,
            workload,
            routing: RoutingPolicy::RouteToOwner,
            txns_per_round: (workload.total_txns as usize).div_ceil(4).max(1),
            seed: 42,
            host_workers: 0,
            rebalance: RebalancePolicy::Off,
            overlap: false,
        }
    }

    /// Replaces the routing policy.
    pub fn with_routing(mut self, routing: RoutingPolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Replaces the stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the rebalance policy.
    pub fn with_rebalance(mut self, rebalance: RebalancePolicy) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Enables or disables the double-buffered round pipeline.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Caps the host worker threads that simulate shards in parallel
    /// (`0` = one per available core). Results never depend on it, so an
    /// outer experiment runner holding a machine-wide thread budget (e.g.
    /// `pim_exp::pool::WorkerPool::inner_budget`) plants its per-job quota
    /// here to keep `outer jobs × shard workers` within that budget.
    pub fn with_host_workers(mut self, host_workers: usize) -> Self {
        self.host_workers = host_workers;
        self
    }

    /// The STM configuration every shard allocates, with transaction-set
    /// capacities sized to the workload.
    pub fn stm_config(&self) -> StmConfig {
        StmConfig::new(self.kind, self.placement)
            .with_read_set_capacity((self.workload.keys_per_tx() + 8).next_power_of_two())
            .with_write_set_capacity((self.workload.updates_per_tx + 8).next_power_of_two())
    }

    fn validate(&self) {
        assert!(self.n_dpus > 0, "a fleet needs at least one DPU");
        let max_tasklets = DpuConfig::default().max_tasklets;
        assert!(
            (1..=max_tasklets).contains(&self.tasklets),
            "tasklets per shard must lie in 1..={max_tasklets}, got {}",
            self.tasklets
        );
        assert!(self.txns_per_round > 0, "txns_per_round must be positive");
        assert!(self.workload.total_txns > 0, "the global stream must be non-empty");
        assert!(self.workload.keys_per_tx() > 0, "transactions must touch at least one key");
        let ShardedWorkloadConfig { reads_per_tx, updates_per_tx, .. } = self.workload;
        assert!(
            reads_per_tx.max(updates_per_tx) <= MAX_KEYS_PER_KIND,
            "reads_per_tx ({reads_per_tx}) and updates_per_tx ({updates_per_tx}) must each \
             fit a batch descriptor's count field (at most {MAX_KEYS_PER_KIND})"
        );
    }
}

/// One shard's simulator: what a recut rebuilds when the shard's slice
/// changes.
struct ShardSim {
    dpu: Dpu,
    data: ShardData,
    /// One transaction machine per tasklet, each over the slot registered
    /// for it, for as long as the shard keeps this slice.
    machines: Vec<TxMachine>,
}

impl ShardSim {
    /// Builds the STM instance, the counter slice and one transaction
    /// machine per tasklet on a DPU with exactly the words they allocate in
    /// each tier ([`build_sized`]): a tier the shard never allocates from
    /// costs no host memory, and one it does costs its own words.
    ///
    /// # Panics
    ///
    /// Panics if the shard would not fit a stock UPMEM DPU (64 KB WRAM,
    /// 64 MB MRAM).
    fn new(config: &FleetConfig, base: u32, span: u32) -> Self {
        let stm_cfg = config.stm_config();
        // One vector for both runs of the layout, so a recut's rebuild
        // allocates no more than the shard's machines.
        let mut machines = Vec::with_capacity(config.tasklets);
        let (dpu, data) = build_sized(|dpu| {
            machines.clear();
            let shared = StmShared::allocate(dpu, stm_cfg)?;
            let data = ShardData::allocate(dpu, base, span);
            for t in 0..config.tasklets {
                let slot = shared.register_tasklet(dpu, t)?;
                machines.push(TxMachine::for_shared(shared.clone(), slot));
            }
            Ok(data)
        })
        .unwrap_or_else(|e| panic!("a shard must fit a UPMEM DPU: {e}"));
        ShardSim { dpu, data, machines }
    }
}

/// One shard's persistent state across rounds: its simulator plus the
/// cumulative accumulators, which survive a recut.
struct CounterShard {
    sim: ShardSim,
    profile: ExecProfile,
    dispatched: u64,
    commits: u64,
    aborts: u64,
    rejected: u64,
    busy_cycles: u64,
}

impl CounterShard {
    fn new(config: &FleetConfig, base: u32, span: u32) -> Self {
        CounterShard {
            sim: ShardSim::new(config, base, span),
            profile: ExecProfile::new(TimeDomain::Cycles),
            dispatched: 0,
            commits: 0,
            aborts: 0,
            rejected: 0,
            busy_cycles: 0,
        }
    }

    fn stats(&self, shard: u32) -> ShardStats {
        ShardStats {
            shard,
            keys: self.sim.data.span(),
            dispatched: self.dispatched,
            commits: self.commits,
            aborts: self.aborts,
            rejected: self.rejected,
            busy_cycles: self.busy_cycles,
        }
    }
}

/// Applies a recut: rebuilds every shard whose slice changed (counter
/// values move with their keys; the shard's cumulative accumulators are
/// carried over) and returns `(moved_keys, gather_bytes, scatter_bytes)` —
/// the per-shard byte vectors the driver charges through the ledger
/// ([`migration_bytes`]; every key of a moved range holds a counter).
/// Shards that keep their slice are not touched.
fn migrate(
    config: &FleetConfig,
    shards: &mut [CounterShard],
    old: &ShardMap,
    new: &ShardMap,
) -> (u64, Vec<u64>, Vec<u64>) {
    let changed: Vec<u32> = (0..old.shards()).filter(|&s| old.range(s) != new.range(s)).collect();
    // Every other shard kept its range, so the changed shards own the
    // same keys before and after, all of them between the first changed
    // shard's first key and the last one's end: snapshot that stretch
    // host-side, then rebuild the shards and replay the values into the
    // new owners.
    let first = changed.first().map_or(0, |&s| old.range(s).start);
    let end = changed.last().map_or(0, |&s| old.range(s).end);
    let mut counters = vec![0u64; (end - first) as usize];
    for &s in &changed {
        let state = &shards[s as usize];
        for key in old.range(s) {
            counters[(key - first) as usize] =
                var::peek_var(&state.sim.dpu, state.sim.data.counter(key));
        }
    }
    for &s in &changed {
        let state = &mut shards[s as usize];
        state.sim = ShardSim::new(config, new.base(s), new.span(s));
        for key in new.range(s) {
            let value = counters[(key - first) as usize];
            var::poke_var(&mut state.sim.dpu, state.sim.data.counter(key), value);
        }
    }
    migration_bytes(old, new, |_, _, keys| u64::from(keys.end - keys.start))
}

/// The shard-worker thread count a `host_workers` setting resolves to:
/// itself, or one per available core for `0`. This — not the raw field —
/// is what [`run`] spawns at most per round, and what budget-holding
/// callers audit against their quota.
pub fn resolve_host_workers(host_workers: usize) -> usize {
    if host_workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        host_workers
    }
}

/// The counter workload as the round driver sees it: the unrouted rest of
/// the global stream plus the abort-and-retry re-dispatch lists, which
/// live for the whole run and are cleared and refilled in place.
struct CounterJob<'a> {
    config: &'a FleetConfig,
    pending: StreamCursor,
    /// Split parts of probed transactions waiting for the next round.
    deferred: RoutedBatch,
    /// Scratch a recut re-splits the deferred list into.
    rerouted: RoutedBatch,
}

impl ShardJob for CounterJob<'_> {
    type Batch = ShardBatch;
    type Shard = CounterShard;

    fn batch_len(batch: &ShardBatch) -> usize {
        batch.len()
    }

    fn batch_wire_bytes(batch: &ShardBatch) -> u64 {
        batch.wire_bytes()
    }

    fn more_work(&self) -> bool {
        self.pending.remaining() > 0 || !self.deferred.is_empty()
    }

    /// Deferred re-dispatches first, then the stream — whose own deferred
    /// parts refill the list just emptied.
    fn route(
        &mut self,
        map: &ShardMap,
        rebalancer: &mut Rebalancer,
        batches: &mut [ShardBatch],
    ) -> bool {
        batches.iter_mut().for_each(ShardBatch::clear);
        let deferred_in = self.deferred.len();
        self.deferred.dispatch_into(batches);
        self.deferred.clear();
        for _ in 0..self.config.txns_per_round {
            let Some(tx) = self.pending.draw() else { break };
            rebalancer.note(tx.reads.iter().chain(tx.updates).copied());
            route_into(tx, map, self.config.routing, batches, &mut self.deferred);
        }
        deferred_in > 0
    }

    /// Runs the batch to completion on the shard's simulator and folds the
    /// results into the shard accumulators; a counter shard's round does
    /// not depend on when it starts.
    fn run_shard(&self, shard: &mut CounterShard, batch: &ShardBatch, _start: f64) -> ShardRound {
        shard.dispatched += batch.len() as u64;
        let ShardSim { dpu, data, machines } = &mut shard.sim;
        let tasklets = machines.len();
        let programs: Vec<Box<dyn TaskletProgram + '_>> = machines
            .iter_mut()
            .enumerate()
            .map(|(t, machine)| {
                // What a round leaves behind — a rejected probe's abort
                // streak, the abort histogram the adaptive retry policy
                // reads — must not reach the next one.
                machine.reset_host_state();
                let tasklet = ShardTasklet::new(*data, batch, t, tasklets);
                Box::new(SimTasklet::new(machine, tasklet)) as Box<dyn TaskletProgram + '_>
            })
            .collect();
        let report = Scheduler::new().run(dpu, programs);
        let mut rejected = 0;
        for stats in &report.tasklet_stats {
            rejected += stats.profile.abort_codes[AbortReason::Explicit.index()];
            shard.profile.merge(&ExecProfile::from_sim(stats));
        }
        shard.commits += report.total_commits();
        shard.aborts += report.total_aborts();
        shard.rejected += rejected;
        shard.busy_cycles += report.makespan_cycles;
        ShardRound { seconds: report.makespan_seconds(), commits: report.total_commits(), rejected }
    }

    fn recut(
        &mut self,
        shards: &mut [CounterShard],
        old: &ShardMap,
        new: &ShardMap,
    ) -> (u64, Vec<u64>, Vec<u64>) {
        self.deferred.reroute_into(new, &mut self.rerouted);
        std::mem::swap(&mut self.deferred, &mut self.rerouted);
        self.rerouted.clear();
        migrate(self.config, shards, old, new)
    }
}

/// Builds the fleet and drives the stream through it: every shard as the
/// last round left it, and the driver's log.
fn run_to_completion(config: &FleetConfig) -> (Vec<CounterShard>, RoundLog) {
    config.validate();
    let map = ShardMap::new(config.workload.total_keys, config.n_dpus as u32);
    let mut shards: Vec<CounterShard> = (0..config.n_dpus as u32)
        .map(|s| CounterShard::new(config, map.base(s), map.span(s)))
        .collect();
    let mut job = CounterJob {
        config,
        pending: StreamCursor::new(&config.workload, config.seed),
        deferred: RoutedBatch::default(),
        rerouted: RoutedBatch::default(),
    };
    let workers = resolve_host_workers(config.host_workers);
    let log = run_rounds(&mut job, &mut shards, map, config.rebalance, config.overlap, workers);
    (shards, log)
}

/// Runs the fleet to completion and returns its report.
///
/// # Panics
///
/// Panics on an inconsistent configuration (zero DPUs, zero-length
/// stream, more tasklets than the hardware supports) or if a shard's STM
/// metadata does not fit the DPU the sizing formula produced — both are
/// configuration bugs, not runtime conditions.
pub fn run(config: &FleetConfig) -> FleetReport {
    let (shards, log) = run_to_completion(config);

    // --- Fold the fleet report.
    let shard_stats: Vec<ShardStats> =
        shards.iter().enumerate().map(|(i, s)| s.stats(i as u32)).collect();
    let fingerprint = shards
        .iter()
        .fold(FINGERPRINT_SEED, |hash, s| s.sim.data.fold_fingerprint(&s.sim.dpu, hash));
    let total_increments: u64 = shards.iter().map(|s| s.sim.data.counter_sum(&s.sim.dpu)).sum();
    let profile = ExecProfile::merged(shards.iter().map(|s| &s.profile))
        .unwrap_or_else(|| ExecProfile::new(TimeDomain::Cycles));
    let imbalance = Imbalance::from_shards(&shard_stats);

    FleetReport {
        n_dpus: config.n_dpus,
        tasklets: config.tasklets,
        routing: config.routing,
        global_txns: u64::from(config.workload.total_txns),
        dispatched_subtxns: shard_stats.iter().map(|s| s.dispatched).sum(),
        total_commits: shard_stats.iter().map(|s| s.commits).sum(),
        total_aborts: shard_stats.iter().map(|s| s.aborts).sum(),
        total_rejected: shard_stats.iter().map(|s| s.rejected).sum(),
        total_increments,
        fingerprint,
        makespan_seconds: log.rounds.iter().map(RoundStats::pipelined_seconds).sum(),
        rounds: log.rounds,
        shards: shard_stats,
        imbalance,
        profile,
        ledger: log.ledger,
        pipeline: log.pipeline,
        rebalance: log.rebalance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{KeyDist, Tier};
    use proptest::prelude::*;

    fn small_workload() -> ShardedWorkloadConfig {
        ShardedWorkloadConfig::new(256, 96)
    }

    #[test]
    fn a_fleet_run_commits_every_transaction_exactly_once() {
        let config = FleetConfig::new(4, small_workload());
        let report = run(&config);
        // Route-to-owner: every global transaction's updates land exactly
        // once, so increments are conserved against the stream.
        assert_eq!(
            report.total_increments,
            u64::from(config.workload.updates_per_tx) * report.global_txns
        );
        assert!(report.total_commits >= report.global_txns, "splits add commits");
        assert_eq!(report.total_rejected, 0, "route-to-owner never probes");
        assert!(report.makespan_seconds > 0.0);
        assert!(report.throughput_tx_per_sec() > 0.0);
        assert_eq!(report.rounds.len(), 4);
        assert_eq!(report.shards.len(), 4);
    }

    /// The four corners of the host-side mechanisms on one two-phase zipf
    /// stream: {route-to-owner, abort-retry} × {static, threshold
    /// rebalance + overlap}.
    fn corner_configs() -> Vec<FleetConfig> {
        let stream = ShardedWorkloadConfig::new(512, 320)
            .with_dist(KeyDist::Zipf { theta: 0.99 })
            .with_phases(2);
        let mut configs = Vec::new();
        for routing in [RoutingPolicy::RouteToOwner, RoutingPolicy::AbortAndRetry] {
            let fixed = FleetConfig::new(8, stream).with_routing(routing).with_seed(11);
            let mut adaptive = fixed
                .with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.25 })
                .with_overlap(true);
            adaptive.txns_per_round = 40;
            configs.extend([fixed, adaptive]);
        }
        configs
    }

    #[test]
    fn results_are_independent_of_host_worker_count() {
        for config in corner_configs() {
            let serial = run(&config.with_host_workers(1));
            for host_workers in [2, 3, 5, config.n_dpus + 1] {
                assert_eq!(
                    run(&config.with_host_workers(host_workers)),
                    serial,
                    "{host_workers} host workers changed the report ({} / {})",
                    config.routing,
                    config.rebalance
                );
            }
        }
    }

    /// Recorded on the commit before the flat-batch router, the shared
    /// worker cursor and the range-walk recut: none of them may move a
    /// commit, an abort, a cycle or a transferred byte.
    #[test]
    fn corner_reports_match_the_pinned_panel() {
        // Commits, aborts, makespan bits, ledger bytes, ledger seconds
        // bits, migrated keys, rounds — in `corner_configs` order.
        let pinned: [[u64; 7]; 4] = [
            [689, 235, 0x3f828edf59acf8f6, 17032, 0x3f37c76c3501b9b9, 0, 4],
            [847, 219, 0x3f73d7544061a63e, 30600, 0x3f52c2e5c33dd7d2, 691, 8],
            [689, 464, 0x3f83f34b3877e236, 21968, 0x3f3dbb2c97128670, 0, 5],
            [901, 518, 0x3f739c3652167f9a, 36936, 0x3f553c78e85a5822, 703, 9],
        ];
        for (config, pinned) in corner_configs().iter().zip(pinned) {
            let r = run(config);
            assert_eq!(r.fingerprint, 0xddd0_0825_142c_3f8b, "one stream, one final state");
            let row = [
                r.total_commits,
                r.total_aborts,
                r.makespan_seconds.to_bits(),
                r.ledger.total_bytes(),
                r.ledger.total_seconds().to_bits(),
                r.rebalance.migrated_keys,
                r.rounds.len() as u64,
            ];
            assert_eq!(row, pinned, "{} / {}", config.routing, config.rebalance);
        }
    }

    #[test]
    fn rebalancing_pays_for_itself_and_preserves_results() {
        let workload = small_workload().with_dist(KeyDist::Zipf { theta: 1.2 });
        let static_run = run(&FleetConfig::new(8, workload));
        let adaptive = run(&FleetConfig::new(8, workload)
            .with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.25 }));
        assert!(adaptive.rebalance.rebalances > 0, "skewed stream must trigger a recut");
        assert!(adaptive.rebalance.migrated_keys > 0);
        assert_eq!(
            adaptive.rebalance.migration_bytes,
            2 * MIGRATION_BYTES_PER_KEY * adaptive.rebalance.migrated_keys
        );
        // Results are partition-invariant: same fingerprint and increments.
        assert_eq!(adaptive.fingerprint, static_run.fingerprint);
        assert_eq!(adaptive.total_increments, static_run.total_increments);
        // The recut spreads later rounds' load off the head shard.
        assert!(
            adaptive.imbalance.max_over_mean_busy < static_run.imbalance.max_over_mean_busy,
            "recut must flatten busy-cycle imbalance ({} vs {})",
            adaptive.imbalance.max_over_mean_busy,
            static_run.imbalance.max_over_mean_busy
        );
    }

    #[test]
    fn overlap_changes_only_the_cost_accounting() {
        let base = FleetConfig::new(8, small_workload());
        let serial = run(&base);
        let pipelined = run(&base.with_overlap(true));
        assert!(pipelined.pipeline.enabled);
        assert!(!serial.pipeline.enabled);
        assert_eq!(serial.pipeline.hidden_seconds, 0.0);
        assert!(pipelined.pipeline.hidden_seconds > 0.0, "some pre-work must hide");
        assert!(pipelined.pipeline.overlapped_rounds > 0);
        assert!(pipelined.makespan_seconds < serial.makespan_seconds);
        assert!(
            (serial.makespan_seconds
                - pipelined.makespan_seconds
                - pipelined.pipeline.hidden_seconds)
                .abs()
                < 1e-12,
            "makespan shrinks by exactly the hidden seconds"
        );
        // Execution results are untouched: only the cost model changed.
        assert_eq!(pipelined.fingerprint, serial.fingerprint);
        assert_eq!(pipelined.total_commits, serial.total_commits);
        assert_eq!(pipelined.ledger, serial.ledger);
    }

    #[test]
    fn abort_and_retry_probes_then_commits_the_same_state() {
        let owner = run(&FleetConfig::new(4, small_workload()));
        let retry =
            run(&FleetConfig::new(4, small_workload()).with_routing(RoutingPolicy::AbortAndRetry));
        assert!(retry.total_rejected > 0, "cross-shard txns must probe under abort-retry");
        assert_eq!(
            retry.profile.aborts_for(AbortReason::Explicit),
            retry.total_rejected,
            "every rejection is an Explicit abort in the merged histogram"
        );
        // Both policies apply the same global increments.
        assert_eq!(owner.fingerprint, retry.fingerprint);
        assert_eq!(owner.total_increments, retry.total_increments);
        // The probe round costs extra dispatches and rounds.
        assert!(retry.dispatched_subtxns > owner.dispatched_subtxns);
        assert!(retry.rounds.len() > owner.rounds.len());
    }

    #[test]
    fn skew_concentrates_load_on_the_head_shard() {
        let workload = small_workload().with_dist(KeyDist::Zipf { theta: 1.2 });
        let uniform = run(&FleetConfig::new(8, small_workload()));
        let skewed = run(&FleetConfig::new(8, workload));
        assert_eq!(skewed.imbalance.hottest_shard, 0, "zipf head keys live on shard 0");
        assert!(
            skewed.imbalance.cv_commits > uniform.imbalance.cv_commits,
            "skew must raise commit imbalance ({} vs {})",
            skewed.imbalance.cv_commits,
            uniform.imbalance.cv_commits
        );
    }

    /// The recut this module shipped before the range walk: two owner
    /// lookups per key for the byte vectors, a snapshot of every counter
    /// in the fleet, and a per-key replay into each rebuilt shard.
    fn reference_migrate(
        config: &FleetConfig,
        shards: &mut [CounterShard],
        old: &ShardMap,
        new: &ShardMap,
    ) -> (u64, Vec<u64>, Vec<u64>) {
        let mut moved = 0u64;
        let mut gather_bytes = vec![0u64; shards.len()];
        let mut scatter_bytes = vec![0u64; shards.len()];
        for key in 0..old.total_keys() {
            let from = old.owner(key);
            let to = new.owner(key);
            if from != to {
                moved += 1;
                gather_bytes[from as usize] += MIGRATION_BYTES_PER_KEY;
                scatter_bytes[to as usize] += MIGRATION_BYTES_PER_KEY;
            }
        }
        let mut counters = vec![0u64; old.total_keys() as usize];
        for (s, state) in shards.iter().enumerate() {
            let s = s as u32;
            for key in old.base(s)..old.base(s) + old.span(s) {
                counters[key as usize] = var::peek_var(&state.sim.dpu, state.sim.data.counter(key));
            }
        }
        for (s, state) in shards.iter_mut().enumerate() {
            let s = s as u32;
            if new.base(s) == old.base(s) && new.span(s) == old.span(s) {
                continue;
            }
            state.sim = ShardSim::new(config, new.base(s), new.span(s));
            for key in new.base(s)..new.base(s) + new.span(s) {
                let counter = state.sim.data.counter(key);
                var::poke_var(&mut state.sim.dpu, counter, counters[key as usize]);
            }
        }
        (moved, gather_bytes, scatter_bytes)
    }

    /// `shards` boundaries over `total_keys` from arbitrary cut points:
    /// empty shards and more shards than keys both occur.
    fn map_from(total_keys: u32, shards: usize, cuts: &[u32]) -> ShardMap {
        let mut bounds: Vec<u32> =
            cuts[..shards - 1].iter().map(|cut| cut % (total_keys + 1)).collect();
        bounds.push(0);
        bounds.sort_unstable();
        ShardMap::with_bounds(total_keys, bounds)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The range-walk recut moves what the per-key recut moved: same
        /// moved-key count, same per-shard gather and scatter bytes, and
        /// every counter readable from its new owner with its old value;
        /// accumulators stay with their shard.
        #[test]
        fn range_walk_recut_matches_the_per_key_recut(
            total_keys in 1u32..40,
            shards in 1usize..7,
            old_cuts in prop::collection::vec(0u32..40, 6..7),
            new_cuts in prop::collection::vec(0u32..40, 6..7),
            values in prop::collection::vec(0u64..1000, 40..41),
        ) {
            let old = map_from(total_keys, shards, &old_cuts);
            let new = map_from(total_keys, shards, &new_cuts);
            let mut config = FleetConfig::new(shards, ShardedWorkloadConfig::new(total_keys, 1));
            config.tasklets = 2;
            let build = || -> Vec<CounterShard> {
                (0..shards as u32)
                    .map(|s| {
                        let mut state = CounterShard::new(&config, old.base(s), old.span(s));
                        for key in old.range(s) {
                            let counter = state.sim.data.counter(key);
                            var::poke_var(&mut state.sim.dpu, counter, values[key as usize]);
                        }
                        state.commits = u64::from(s) + 1;
                        state
                    })
                    .collect()
            };
            let (mut walked, mut per_key) = (build(), build());
            prop_assert_eq!(
                migrate(&config, &mut walked, &old, &new),
                reference_migrate(&config, &mut per_key, &old, &new)
            );
            for fleet in [&walked, &per_key] {
                for (s, state) in fleet.iter().enumerate() {
                    let owned = new.range(s as u32);
                    prop_assert_eq!(state.sim.data.base(), owned.start);
                    prop_assert_eq!(state.sim.data.span(), owned.end - owned.start);
                    prop_assert_eq!(state.commits, s as u64 + 1);
                    for key in owned {
                        let counter = state.sim.data.counter(key);
                        prop_assert_eq!(var::peek_var(&state.sim.dpu, counter), values[key as usize]);
                    }
                }
            }
        }
    }

    /// A shard pays host memory for the words it allocates, through every
    /// recut: its counter slice and its STM metadata, each in its tier, and
    /// nothing for a tier it never uses.
    #[test]
    fn a_shard_backs_only_the_tiers_it_uses() {
        let mut config = FleetConfig::new(16, small_workload())
            .with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.25 });
        config.workload.dist = KeyDist::Zipf { theta: 0.99 };
        let stm = config.stm_config();
        let metadata =
            stm.shared_metadata_words() + stm.per_tasklet_metadata_words() * config.tasklets as u32;
        let check = |config: &FleetConfig, wram: u32, mram: u32| {
            let (shards, log) = run_to_completion(config);
            assert!(log.rounds.iter().all(|r| r.active_shards > 0));
            assert!(log.rebalance.rebalances > 0, "the test wants rebuilt shards too");
            for state in &shards {
                let slice = state.sim.data.span().max(1);
                let backed = Tier::ALL.map(|tier| state.sim.dpu.backed_words(tier));
                assert_eq!(backed, [wram, slice + mram], "{} metadata", config.placement);
            }
        };
        check(&config, 0, metadata);
        config.placement = MetadataPlacement::Wram;
        check(&config, metadata, 0);
    }

    /// Every design, placement and tasklet count builds a shard whose tiers
    /// hold exactly what it allocates: no free word in a tier it uses, no
    /// host memory behind a tier it does not.
    #[test]
    fn a_fresh_shard_fits_its_words_exactly() {
        for kind in StmKind::ALL {
            for placement in [MetadataPlacement::Mram, MetadataPlacement::Wram] {
                for tasklets in [1, 8, 24] {
                    let mut config = FleetConfig::new(4, small_workload());
                    (config.kind, config.placement, config.tasklets) = (kind, placement, tasklets);
                    let dpu = ShardSim::new(&config, 64, 64).dpu;
                    let uses_wram = placement == MetadataPlacement::Wram;
                    for (tier, used) in [(Tier::Wram, uses_wram), (Tier::Mram, true)] {
                        let cell = format!("{kind} {placement} {tasklets}t {tier}");
                        let capacity = dpu.memory(tier).capacity_words();
                        assert_eq!(capacity > 0, used, "{cell}: capacity {capacity}");
                        assert_eq!(dpu.free_words(tier), 0, "{cell}");
                        assert_eq!(dpu.backed_words(tier), capacity, "{cell}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "a shard must fit a UPMEM DPU: allocation of")]
    fn a_shard_larger_than_a_dpu_panics() {
        let mram_words = DpuConfig::default().mram_words;
        ShardSim::new(&FleetConfig::new(1, small_workload()), 0, mram_words);
    }

    #[test]
    #[should_panic(expected = "tasklets per shard must lie in 1..=24, got 25")]
    fn too_many_tasklets_name_the_real_bound() {
        let mut config = FleetConfig::new(2, small_workload());
        config.tasklets = 25;
        run(&config);
    }

    #[test]
    #[should_panic(expected = "fit a batch descriptor's count field")]
    fn an_oversized_transaction_is_a_configuration_panic() {
        let mut config = FleetConfig::new(2, small_workload());
        config.workload.reads_per_tx = MAX_KEYS_PER_KIND + 1;
        run(&config);
    }

    #[test]
    fn more_shards_than_keys_still_conserves() {
        let workload = ShardedWorkloadConfig::new(16, 24);
        let report = run(&FleetConfig::new(32, workload));
        assert_eq!(report.total_increments, 2 * 24);
        assert!(report.shards.iter().filter(|s| s.keys == 0).count() > 0);
    }
}
