//! Fleet service runs: the open-loop stream routed across sharded DPUs.
//!
//! One global request stream, the same as a single DPU's but drawn a round
//! at a time rather than held whole, is served by the `pim-fleet` round driver ([`pim_fleet::round`], which
//! states the round model and charges every host primitive). This module
//! is the service's [`ShardJob`]: each round's requests are **routed by
//! key ownership** ([`ShardMap::owner`]) into per-shard batches priced at
//! [`REQUEST_WIRE_BYTES`] each, and each shard serves its batch through the
//! same admission + [`ServiceTasklet`](crate::single) machinery as the
//! single-DPU driver. A shard's local cycle 0 is anchored at the global
//! tick the driver hands it as the round's compute start, so queueing delay
//! includes time spent waiting for the owning shard's round to begin — the
//! round-barrier penalty the latency-vs-load curve is supposed to expose.
//! A round's shards run on one host worker per available core
//! ([`pim_fleet::resolve_host_workers`]); the worker count changes only the
//! wall clock, never the report.
//!
//! Two deliberate simplifications keep the service fleet inside the measured
//! runtime's scope:
//!
//! * **Owner-local transfers** — a transfer whose destination key lives on a
//!   different shard is remapped into the owner's key range (deterministic
//!   fold, same stream position). Cross-shard two-phase service transactions
//!   stay with the roadmap's open 2PC item.
//! * **Authoritative copy at the owner** — every shard's hashmap covers the
//!   full keyspace; a rebalance boundary copies the populated keys of every
//!   moved range from the old owner to the new one (host-side, charged at
//!   [`MIGRATION_BYTES_PER_KEY`](pim_fleet::MIGRATION_BYTES_PER_KEY) in each
//!   direction). Stale copies on former owners are unreachable (requests
//!   route to the current owner) and are overwritten if ownership ever
//!   returns.

use pim_stm::TimeDomain;
use pim_workloads::ShardMap;

use pim_fleet::{
    migration_bytes, run_rounds, RebalancePolicy, Rebalancer, RoundLog, ShardJob, ShardRound,
};

use crate::arrival::ArrivalProcess;
use crate::latency::LatencyPanel;
use crate::request::{Request, RequestOp};
use crate::single::{PanelComponent, ServiceConfig, SimService};

/// Wire bytes of one routed request descriptor (arrival stamp + packed
/// op/keys/value), for scatter accounting.
pub const REQUEST_WIRE_BYTES: u64 = 32;

/// Configuration of a fleet service run.
#[derive(Debug, Clone)]
pub struct ServiceFleetConfig {
    /// The per-shard service configuration (STM design, tasklets, keyspace,
    /// stream length, arrivals, mix, skew, seed). `keys` is the *global*
    /// keyspace, partitioned over the shards.
    pub service: ServiceConfig,
    /// Number of shards (DPUs).
    pub shards: u32,
    /// Requests dispatched per round.
    pub round_requests: u32,
    /// Skew-adaptive rebalancing policy between rounds.
    pub rebalance: RebalancePolicy,
    /// Whether a round's host pre-work may overlap the previous round's
    /// compute (the fleet pipeline).
    pub overlap: bool,
}

impl ServiceFleetConfig {
    /// A fleet of `shards` DPUs serving `service`, 256 requests per round,
    /// no rebalancing, serial host.
    pub fn new(service: ServiceConfig, shards: u32) -> Self {
        ServiceFleetConfig {
            service,
            shards,
            round_requests: 256,
            rebalance: RebalancePolicy::Off,
            overlap: false,
        }
    }

    /// Replaces the rebalancing policy.
    pub fn with_rebalance(mut self, rebalance: RebalancePolicy) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Enables or disables the host/compute pipeline.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    fn validate(&self) {
        assert!(self.shards >= 1, "a fleet needs at least one shard");
        assert!(self.round_requests >= 1, "rounds must dispatch at least one request");
        assert!(
            self.service.keys <= 1 << 20,
            "fleet service keyspace capped at 2^20 keys (got {})",
            self.service.keys
        );
        assert!(
            u64::from(self.shards) <= self.service.keys,
            "more shards than keys cannot be partitioned"
        );
    }
}

/// One shard of the service fleet: a persistent simulated DPU with its own
/// STM instance and service tables (full-keyspace map, see the
/// [module documentation](self)), plus what it has served so far.
struct ServiceShard {
    sim: SimService,
    completed: u64,
    aborts: u64,
    map_full: u64,
    panel: LatencyPanel,
}

impl ServiceShard {
    /// A shard on a DPU holding exactly the words its STM instance, tables
    /// and slots allocate in each tier (see `SimService::new`).
    fn new(config: &ServiceConfig) -> Self {
        ServiceShard {
            sim: SimService::new(config),
            completed: 0,
            aborts: 0,
            map_full: 0,
            panel: LatencyPanel::new(TimeDomain::Cycles),
        }
    }
}

/// Report of one fleet service run. Latencies are global simulator cycles.
#[derive(Debug, Clone)]
pub struct ServiceFleetReport {
    /// Shard count.
    pub shards: u32,
    /// Rounds dispatched.
    pub rounds: u64,
    /// Requests served to commit.
    pub completed: u64,
    /// Committed transactions across all shards.
    pub commits: u64,
    /// Aborted attempts across all shards.
    pub aborts: u64,
    /// Served requests whose put or transfer found a shard's hashmap full
    /// and so committed without effect (counted in `completed`).
    pub map_full: u64,
    /// End-to-end pipelined makespan in seconds (compute + exposed host).
    pub makespan_seconds: f64,
    /// Per-round max shard compute, summed (includes open-loop idle waits).
    pub dpu_seconds: f64,
    /// Host pre/post work actually exposed on the critical path.
    pub host_seconds: f64,
    /// Host pre-work hidden by the pipeline.
    pub hidden_seconds: f64,
    /// Rebalance recuts taken.
    pub rebalances: u64,
    /// Keys copied across shards at rebalance boundaries.
    pub migrated_keys: u64,
    /// Requests served per shard (by final routing).
    pub per_shard_completed: Vec<u64>,
    /// Ticks per second of the panel's (cycle) domain.
    pub ticks_per_second: f64,
    /// The arrival process that offered the load.
    pub arrival: ArrivalProcess,
    /// Merged queueing / service / sojourn panel, global clock.
    pub panel: LatencyPanel,
    /// The round driver's log: per-round accounting in dispatch order, the
    /// transfer ledger, and what the recuts and the pipeline did.
    pub log: RoundLog,
}

impl ServiceFleetReport {
    /// Offered load in requests/second (0 for closed-loop).
    pub fn offered_rate(&self) -> f64 {
        self.arrival.offered_rate()
    }

    /// Achieved throughput in requests/second.
    pub fn achieved_rate(&self) -> f64 {
        if self.makespan_seconds > 0.0 {
            self.completed as f64 / self.makespan_seconds
        } else {
            0.0
        }
    }

    /// Abort rate in `[0, 1]`.
    pub fn abort_rate(&self) -> f64 {
        if self.commits + self.aborts == 0 {
            0.0
        } else {
            self.aborts as f64 / (self.commits + self.aborts) as f64
        }
    }

    /// A latency quantile of `which` panel component, in seconds.
    pub fn quantile_seconds(&self, which: PanelComponent, q: f64) -> f64 {
        self.panel.quantile_seconds(which, q, self.ticks_per_second)
    }
}

/// Folds a transfer destination into the owning shard's key range (see the
/// module notes on owner-local transfers).
fn localize(request: &Request, map: &ShardMap, shard: u32) -> Request {
    let owned = map.range(shard);
    if request.op != RequestOp::Transfer || owned.contains(&request.key2) {
        return *request;
    }
    let span = (owned.end - owned.start).max(1);
    Request { key2: owned.start + request.key2 % span, ..*request }
}

/// The service workload as the round driver sees it: the unrouted rest of
/// the request stream, drawn as it is routed.
struct ServiceJob<'a, I> {
    config: &'a ServiceFleetConfig,
    pending: I,
}

impl<I: ExactSizeIterator<Item = Request> + Sync> ShardJob for ServiceJob<'_, I> {
    type Batch = Vec<Request>;
    type Shard = ServiceShard;

    fn batch_len(batch: &Vec<Request>) -> usize {
        batch.len()
    }

    fn batch_wire_bytes(batch: &Vec<Request>) -> u64 {
        batch.len() as u64 * REQUEST_WIRE_BYTES
    }

    fn more_work(&self) -> bool {
        self.pending.len() > 0
    }

    /// Routes by current ownership; no round needs the previous one's
    /// results.
    fn route(
        &mut self,
        map: &ShardMap,
        rebalancer: &mut Rebalancer,
        batches: &mut [Vec<Request>],
    ) -> bool {
        batches.iter_mut().for_each(Vec::clear);
        for request in self.pending.by_ref().take(self.config.round_requests as usize) {
            let transfer_to = (request.op == RequestOp::Transfer).then_some(request.key2);
            rebalancer.note([request.key].into_iter().chain(transfer_to));
            let shard = map.owner(request.key);
            batches[shard as usize].push(localize(&request, map, shard));
        }
        false
    }

    /// Serves the batch with local cycle 0 anchored at the global tick the
    /// round's compute starts at, so latencies compose across rounds.
    fn run_shard(&self, shard: &mut ServiceShard, batch: &Vec<Request>, start: f64) -> ShardRound {
        let closed_loop = self.config.service.arrival.is_closed_loop();
        let base_ticks = (start * shard.sim.dpu.latency().clock_hz as f64) as u64;
        let round = shard.sim.run_round(batch, closed_loop, base_ticks);
        shard.completed += batch.len() as u64;
        shard.aborts += round.report.total_aborts();
        shard.map_full += round.map_full;
        shard.panel.merge(&round.panel);
        ShardRound {
            seconds: round.report.makespan_seconds(),
            commits: round.report.total_commits(),
            rejected: 0,
        }
    }

    /// Copies the populated keys of every moved range old owner → new
    /// owner, in key order.
    fn recut(
        &mut self,
        shards: &mut [ServiceShard],
        old: &ShardMap,
        new: &ShardMap,
    ) -> (u64, Vec<u64>, Vec<u64>) {
        migration_bytes(old, new, |from, to, keys| {
            let mut copied = 0;
            for key in keys.map(u64::from) {
                let donor = &shards[from as usize].sim;
                if let Some(value) = donor.tables.map.host_get(&donor.dpu, key) {
                    let receiver = &mut shards[to as usize].sim;
                    receiver
                        .tables
                        .map
                        .host_put(&mut receiver.dpu, key, value)
                        .expect("full-keyspace shard maps cannot fill");
                    copied += 1;
                }
            }
            copied
        })
    }
}

/// Runs the service fleet to stream exhaustion.
///
/// # Panics
///
/// Panics when the configuration is infeasible (see
/// `ServiceFleetConfig::validate` assertions and per-shard allocation).
pub fn run_service_fleet(config: &ServiceFleetConfig) -> ServiceFleetReport {
    config.validate();
    let mut shards: Vec<ServiceShard> =
        (0..config.shards).map(|_| ServiceShard::new(&config.service)).collect();
    serve(config, &mut shards)
}

/// Drives the stream of `config` through `shards` to exhaustion and folds
/// the report.
fn serve(config: &ServiceFleetConfig, shards: &mut [ServiceShard]) -> ServiceFleetReport {
    let service = &config.service;
    let map = ShardMap::new(service.keys as u32, config.shards);
    let clock_hz = shards[0].sim.dpu.latency().clock_hz as f64;
    let mut job = ServiceJob { config, pending: service.stream(clock_hz) };
    let workers = pim_fleet::resolve_host_workers(0);
    let log = run_rounds(&mut job, shards, map, config.rebalance, config.overlap, workers);

    let mut panel = LatencyPanel::new(TimeDomain::Cycles);
    shards.iter().for_each(|shard| panel.merge(&shard.panel));
    // Host work on the critical path, in the order the clock paid for it.
    let mut host_seconds = 0.0f64;
    for round in &log.rounds {
        host_seconds += round.pre_seconds() - round.hidden_seconds;
        host_seconds += round.gather_seconds + round.host_merge_seconds;
        host_seconds += round.migration_seconds;
    }
    ServiceFleetReport {
        shards: config.shards,
        rounds: log.rounds.len() as u64,
        completed: panel.completed(),
        commits: log.rounds.iter().map(|r| r.commits).sum(),
        aborts: shards.iter().map(|s| s.aborts).sum(),
        map_full: shards.iter().map(|s| s.map_full).sum(),
        makespan_seconds: log.clock_seconds,
        dpu_seconds: log.rounds.iter().map(|r| r.dpu_seconds).sum(),
        host_seconds,
        hidden_seconds: log.pipeline.hidden_seconds,
        rebalances: log.rebalance.rebalances,
        migrated_keys: log.rebalance.migrated_keys,
        per_shard_completed: shards.iter().map(|s| s.completed).collect(),
        ticks_per_second: clock_hz,
        arrival: service.arrival,
        panel,
        log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::panel_fingerprint;
    use pim_sim::KeyDist;

    fn fleet_config() -> ServiceFleetConfig {
        let service = ServiceConfig::new(ArrivalProcess::Poisson { rate: 4_000_000.0 })
            .with_tasklets(3)
            .with_keys(256)
            .with_requests(600)
            .with_seed(11);
        ServiceFleetConfig { round_requests: 128, ..ServiceFleetConfig::new(service, 4) }
    }

    #[test]
    fn fleet_serves_the_whole_stream_across_shards() {
        let report = run_service_fleet(&fleet_config());
        assert_eq!(report.completed, 600);
        assert_eq!(report.commits, 600);
        assert_eq!(report.shards, 4);
        assert_eq!(report.rounds, 5, "600 requests at 128/round");
        assert_eq!(report.per_shard_completed.iter().sum::<u64>(), 600);
        assert!(
            report.per_shard_completed.iter().filter(|&&c| c > 0).count() >= 2,
            "uniform traffic must reach multiple shards: {:?}",
            report.per_shard_completed
        );
        assert!(report.makespan_seconds > 0.0);
        assert!(report.host_seconds > 0.0, "host primitives must be charged");
        assert!(report.panel.sojourn.quantile(0.99) >= report.panel.sojourn.quantile(0.50));
    }

    #[test]
    fn fleet_runs_are_deterministic_per_seed() {
        let a = run_service_fleet(&fleet_config());
        let b = run_service_fleet(&fleet_config());
        assert_eq!(a.panel, b.panel);
        assert_eq!(a.makespan_seconds, b.makespan_seconds);
        assert_eq!(a.per_shard_completed, b.per_shard_completed);
    }

    #[test]
    fn fleet_closed_loop_queueing_is_zero() {
        let mut config = fleet_config();
        config.service.arrival = ArrivalProcess::ClosedLoop;
        let report = run_service_fleet(&config);
        assert_eq!(report.completed, 600);
        assert_eq!(report.panel.queueing.hist.max(), 0);
    }

    #[test]
    fn skewed_traffic_with_rebalancing_recuts_and_migrates() {
        let mut config = fleet_config();
        config.service =
            config.service.with_dist(KeyDist::Zipf { theta: 0.99 }).with_requests(1000);
        let config = ServiceFleetConfig {
            round_requests: 200,
            ..config.with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.2 })
        };
        let report = run_service_fleet(&config);
        assert_eq!(report.completed, 1000);
        assert!(report.rebalances > 0, "zipf 0.99 must trigger a threshold recut");
        assert!(report.migrated_keys > 0, "a recut must move populated keys");
        // Served counts must balance better than the static cut would under
        // this skew (weak check: nobody serves everything).
        let max = report.per_shard_completed.iter().max().copied().unwrap_or(0);
        assert!(max < 1000, "rebalancing must spread the load: {:?}", report.per_shard_completed);
    }

    #[test]
    fn overlap_hides_prework_without_changing_service_results() {
        let serial = run_service_fleet(&fleet_config());
        let pipelined = run_service_fleet(&fleet_config().with_overlap(true));
        assert_eq!(serial.panel.service, pipelined.panel.service, "compute must be unchanged");
        assert_eq!(serial.completed, pipelined.completed);
        assert_eq!(serial.hidden_seconds, 0.0);
        assert!(pipelined.hidden_seconds > 0.0, "some pre-work must hide");
        let shrink = serial.makespan_seconds - pipelined.makespan_seconds;
        assert!(
            (shrink - pipelined.hidden_seconds).abs() < 1e-12,
            "makespan shrinks by exactly the hidden seconds"
        );
    }

    #[test]
    fn transfer_destinations_are_owner_local() {
        let service = ServiceConfig::new(ArrivalProcess::Poisson { rate: 4_000_000.0 })
            .with_keys(256)
            .with_requests(400)
            .with_mix(crate::request::RequestMix { get: 0, put: 1, transfer: 1 })
            .with_tasklets(2);
        let report = run_service_fleet(&ServiceFleetConfig::new(service, 4));
        assert_eq!(report.completed, 400, "remapped transfers must still all commit");
    }

    /// Every design, placement and tasklet count builds a shard whose tiers
    /// hold exactly what it allocates: no free word in a tier it uses, no
    /// host memory behind a tier it does not. The tables always live in
    /// MRAM.
    #[test]
    fn a_fresh_shard_fits_its_words_exactly() {
        use pim_sim::Tier;
        use pim_stm::{MetadataPlacement, StmConfig, StmKind};
        let service = fleet_config().service;
        for kind in StmKind::ALL {
            for placement in [MetadataPlacement::Mram, MetadataPlacement::Wram] {
                for tasklets in [1, 8, 24] {
                    let stm = StmConfig { kind, placement, ..service.stm };
                    let config = service.clone().with_stm(stm).with_tasklets(tasklets);
                    let dpu = ServiceShard::new(&config).sim.dpu;
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

    /// Uniform keys, every shard active in every round (asserted), no
    /// rebalancing, request counts a multiple of the round size: the
    /// configurations neither accounting rule of the shared round driver
    /// (gather from this round's active shards only; a recut charged in
    /// both directions) can reach. Open-loop serial, open-loop pipelined,
    /// closed-loop, a transfer-heavy mix, and a wider pipelined bursty
    /// fleet.
    fn pinned_configs() -> Vec<ServiceFleetConfig> {
        let base = |arrival| {
            let service = ServiceConfig::new(arrival)
                .with_tasklets(3)
                .with_keys(256)
                .with_requests(640)
                .with_seed(11);
            ServiceFleetConfig { round_requests: 128, ..ServiceFleetConfig::new(service, 4) }
        };
        let poisson = ArrivalProcess::Poisson { rate: 1_500_000.0 };
        let mut transfers = base(poisson);
        transfers.service =
            transfers.service.with_mix(crate::request::RequestMix { get: 1, put: 2, transfer: 5 });
        let mut wide =
            base(ArrivalProcess::parse("bursty", 2_000_000.0).unwrap()).with_overlap(true);
        wide.service = wide.service.with_keys(512).with_requests(1024).with_tasklets(5);
        wide.shards = 8;
        wide.round_requests = 256;
        vec![
            base(poisson),
            base(poisson).with_overlap(true),
            base(ArrivalProcess::ClosedLoop),
            transfers,
            wide,
        ]
    }

    /// Recorded on the commit before the service fleet moved onto
    /// `pim_fleet::run_rounds`: the merge may not move a commit, an abort,
    /// a latency sample or a bit of any modeled clock.
    #[test]
    fn reports_match_the_panel_pinned_before_the_round_loops_merged() {
        // Completed, commits, aborts, rounds, makespan / dpu / host /
        // hidden seconds bits, panel fingerprint; then per-shard completed
        // — in `pinned_configs` order.
        #[rustfmt::skip]
        let pinned: [([u64; 9], &[u64]); 5] = [
            ([640, 640, 47, 5, 0x3f4b7601496cb49b, 0x3f383a026cb584c4, 0x3f3eb2002623e472, 0x0, 0x7975f964ba5f2b8b], &[160, 179, 141, 160]),
            ([640, 640, 47, 5, 0x3f44e9236561e1bd, 0x3f383a026cb584c4, 0x3f3198445e0e3eb6, 0x3f2a3377902b4b72, 0x81620d8f84368a66], &[160, 179, 141, 160]),
            ([640, 640, 47, 5, 0x3f4add17ba4d8aeb, 0x3f37082f4e773164, 0x3f3eb2002623e472, 0x0, 0x16704ef38ac9fb61], &[160, 179, 141, 160]),
            ([640, 640, 184, 5, 0x3f54c942f54a21ad, 0x3f4a3985d7825122, 0x3f3eb2002623e472, 0x0, 0x9f407962c268cf8b], &[164, 163, 149, 164]),
            ([1024, 1024, 131, 4, 0x3f44b9b274a52a7d, 0x3f3b20db4e200c1c, 0x3f2ca513365491bf, 0x3f26637fe853cd18, 0x98490fb9c4eb92bd], &[129, 132, 146, 129, 108, 112, 135, 133]),
        ];
        for (i, (config, (row, per_shard))) in pinned_configs().iter().zip(pinned).enumerate() {
            let r = run_service_fleet(config);
            assert!(
                r.log.rounds.iter().all(|round| round.active_shards == u64::from(config.shards)),
                "config {i}: a round idled a shard, so the panel does not pin it"
            );
            assert_eq!(r.log.rebalance.rebalances, 0);
            let got = [
                r.completed,
                r.commits,
                r.aborts,
                r.rounds,
                r.makespan_seconds.to_bits(),
                r.dpu_seconds.to_bits(),
                r.host_seconds.to_bits(),
                r.hidden_seconds.to_bits(),
                panel_fingerprint(&r.panel),
            ];
            assert_eq!(got, row, "config {i}");
            assert_eq!(r.per_shard_completed, per_shard, "config {i}");
        }
    }

    /// A put that finds its shard's map full still completes; the fleet
    /// report sums what each shard counted.
    #[test]
    fn fleet_counts_requests_that_find_a_shard_map_full() {
        let mut config = fleet_config();
        config.service =
            config.service.with_mix(crate::request::RequestMix { get: 0, put: 1, transfer: 0 });
        // Every shard's tables sized for 2 keys (8 slots) against the 64
        // keys it owns.
        let small = config.service.clone().with_keys(2);
        let mut shards: Vec<ServiceShard> =
            (0..config.shards).map(|_| ServiceShard::new(&small)).collect();
        let report = serve(&config, &mut shards);
        assert_eq!(report.completed, 600, "a put on a full map still completes");
        // No key ever leaves a map, so a put found its owner's map full
        // exactly when its key is not in that map at the end.
        let map = ShardMap::new(config.service.keys as u32, config.shards);
        let stored = |key: u32| {
            let sim = &shards[map.owner(key) as usize].sim;
            sim.tables.map.host_get(&sim.dpu, u64::from(key)).is_some()
        };
        let dropped = config.service.stream(1e9).filter(|r| !stored(r.key)).count() as u64;
        assert!(dropped > 0);
        assert_eq!(report.map_full, dropped);
    }

    fn skewed_config() -> ServiceFleetConfig {
        let mut config = fleet_config();
        config.service =
            config.service.with_dist(KeyDist::Zipf { theta: 0.99 }).with_requests(1000);
        config
    }

    /// A summary is gathered from the shards active this round, not from
    /// every shard that has ever served a request.
    #[test]
    fn an_idle_shard_gathers_nothing_that_round() {
        // Eight requests a round under zipf 0.99: the tail shards sit out
        // most rounds, after having served some.
        let config = ServiceFleetConfig { round_requests: 8, ..skewed_config() };
        let report = run_service_fleet(&config);
        assert_eq!(report.completed, 1000);
        // Fewer active shards than some earlier round had: one of that
        // round's shards has served before and sits this one out.
        let (mut most_active_so_far, mut idle_after_serving) = (0, false);
        for round in &report.log.rounds {
            assert_eq!(
                round.bytes_from_dpus,
                pim_fleet::GATHER_SUMMARY_BYTES * round.active_shards,
                "round {}: only the shards that ran report back",
                round.round
            );
            idle_after_serving |= round.active_shards < most_active_so_far;
            most_active_so_far = most_active_so_far.max(round.active_shards);
        }
        assert!(idle_after_serving, "the test needs a round that idles a shard that served before");
        let active: u64 = report.log.rounds.iter().map(|r| r.active_shards).sum();
        assert_eq!(report.log.ledger.gather.bytes, pim_fleet::GATHER_SUMMARY_BYTES * active);
        assert_eq!(report.log.ledger.gather.calls, report.rounds);
    }

    /// A moved key costs its 8 bytes in each direction: gathered off the
    /// old owner, scattered onto the new one.
    #[test]
    fn a_recut_is_charged_in_both_directions() {
        let config = ServiceFleetConfig {
            round_requests: 200,
            ..skewed_config().with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.2 })
        };
        let report = run_service_fleet(&config);
        assert!(report.log.rebalance.rebalances > 0 && report.log.rebalance.migrated_keys > 0);
        assert_eq!(report.log.rebalance.rebalances, report.rebalances);
        assert_eq!(report.log.rebalance.migrated_keys, report.migrated_keys);
        assert_eq!(
            report.log.rebalance.migration_bytes,
            2 * pim_fleet::MIGRATION_BYTES_PER_KEY * report.migrated_keys
        );
        // Each recut is one more gather and one more scatter in the ledger.
        assert_eq!(report.log.ledger.gather.calls, report.rounds + report.rebalances);
        assert_eq!(report.log.ledger.scatter.calls, report.rounds + report.rebalances);
        let gathered: u64 = report.log.rounds.iter().map(|r| r.bytes_from_dpus).sum();
        assert_eq!(report.log.ledger.gather.bytes, gathered);
    }
}
