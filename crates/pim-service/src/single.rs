//! Single-DPU service runs: admission in front of the tasklet pool, on both
//! executors.
//!
//! The request stream is generated up front (see [`crate::request`]); the
//! **admission queue** sits between it and the tasklets. Each tasklet is one
//! [`TaskletLoop`] on both executors: between transactions it asks
//! admission for the next due request, and a not-yet-due front request
//! parks it ([`Next::Park`]) until the arrival:
//!
//! * on the **simulator** ([`SimTasklet`]), virtual time advances to the
//!   arrival without charging busy cycles, which is what makes open-loop
//!   offered loads below capacity cheap to simulate;
//! * on the **threaded executor** ([`run_loop`]), the thread waits for the
//!   wall clock. Arrivals are wall-clock nanoseconds ([`wall_clock_nanos`]),
//!   the platform clock's own unit, so the tasklet's `base` is 0.
//!
//! Dispatch stamps the queueing delay (`dispatch − arrival`); the STM engine
//! stamps first-attempt and commit (see `pim_stm::txslot::TxStamps`), so
//! queueing time is separable from STM service time per request, not just in
//! aggregate.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use pim_sim::{AllocError, Dpu, DpuRunReport, KeyDist, Scheduler, TaskletProgram, Tier};
use pim_stm::shared::build_sized;
use pim_stm::threaded::{wall_clock_nanos, ThreadedDpu};
use pim_stm::{MetadataPlacement, Platform, StmConfig, StmKind, StmShared, TimeDomain, TxStamps};
use pim_workloads::driver::run_loop;
use pim_workloads::{Executor, Next, SimTasklet, TaskletLoop, TxMachine};

use crate::arrival::ArrivalProcess;
use crate::latency::LatencyPanel;
use crate::request::{request_stream, Request, RequestBody, RequestMix, ServiceTables, MAX_KEYS};

/// Configuration of one service run (shared by both executors and reused
/// per-shard by the fleet driver).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// STM design and metadata placement serving the requests.
    pub stm: StmConfig,
    /// Tasklets serving the request queue (1..=24; 11 fills the pipeline).
    pub tasklets: usize,
    /// Keyspace size: requests draw keys from `0..keys`.
    pub keys: u64,
    /// Requests in the generated stream.
    pub requests: u64,
    /// The arrival process offering the load.
    pub arrival: ArrivalProcess,
    /// Operation mix.
    pub mix: RequestMix,
    /// Key skew.
    pub dist: KeyDist,
    /// Seed for arrivals and payloads.
    pub seed: u64,
    /// Transfer-journal ring capacity.
    pub journal_capacity: u32,
}

impl ServiceConfig {
    /// A small, WRAM-metadata default configuration offering `arrival`
    /// traffic: 11 tasklets, 1024 keys, 2048 requests, read-mostly mix.
    ///
    /// The per-tasklet log capacities (64 reads / 32 writes) are sized so
    /// that even a full 24-tasklet pool fits WRAM alongside the lock table;
    /// the ¼-load-factor tables keep probe chains far below the read-set
    /// capacity (see [`ServiceTables::allocate`]).
    pub fn new(arrival: ArrivalProcess) -> Self {
        ServiceConfig {
            stm: StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
                .with_lock_table_entries(256)
                .with_read_set_capacity(64)
                .with_write_set_capacity(32),
            tasklets: 11,
            keys: 1024,
            requests: 2048,
            arrival,
            mix: RequestMix::read_mostly(),
            dist: KeyDist::Uniform,
            seed: 42,
            journal_capacity: 64,
        }
    }

    /// Replaces the STM configuration.
    pub fn with_stm(mut self, stm: StmConfig) -> Self {
        self.stm = stm;
        self
    }

    /// Replaces the tasklet count.
    pub fn with_tasklets(mut self, tasklets: usize) -> Self {
        self.tasklets = tasklets;
        self
    }

    /// Replaces the keyspace size.
    pub fn with_keys(mut self, keys: u64) -> Self {
        self.keys = keys;
        self
    }

    /// Replaces the request count.
    pub fn with_requests(mut self, requests: u64) -> Self {
        self.requests = requests;
        self
    }

    /// Replaces the operation mix.
    pub fn with_mix(mut self, mix: RequestMix) -> Self {
        self.mix = mix;
        self
    }

    /// Replaces the key distribution.
    pub fn with_dist(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configured request stream, stamped at `ticks_per_second`.
    pub(crate) fn stream(
        &self,
        ticks_per_second: f64,
    ) -> impl ExactSizeIterator<Item = Request> + Sync {
        request_stream(
            self.arrival,
            self.mix,
            self.dist,
            self.keys,
            self.requests,
            self.seed,
            ticks_per_second,
        )
    }

    fn validate(&self) {
        assert!(self.tasklets >= 1, "a service run needs at least one tasklet");
        assert!(self.requests >= 1, "a service run needs at least one request");
        assert!(self.keys >= 1, "the keyspace must not be empty");
        assert!(
            self.keys <= MAX_KEYS,
            "a service keyspace holds at most 2^32 keys (got {})",
            self.keys
        );
    }
}

/// Unified report of one service run, in the executor's native time domain.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Which executor produced it.
    pub executor: Executor,
    /// The arrival process that offered the load.
    pub arrival: ArrivalProcess,
    /// Requests served to commit.
    pub completed: u64,
    /// Committed transactions (= `completed`).
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Served requests whose put or transfer found the hashmap full and so
    /// committed without effect (counted in `completed`).
    pub map_full: u64,
    /// End-to-end run time in seconds (virtual on the simulator, wall-clock
    /// on threads).
    pub makespan_seconds: f64,
    /// Ticks per second of the panel's time domain (`clock_hz` for cycles,
    /// `1e9` for wall-nanoseconds).
    pub ticks_per_second: f64,
    /// The queueing / service / sojourn latency panel.
    pub panel: LatencyPanel,
}

impl ServiceReport {
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

/// Selects one histogram of a [`LatencyPanel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelComponent {
    /// `dispatch − arrival`.
    Queueing,
    /// `commit − first attempt`.
    Service,
    /// `commit − arrival`.
    Sojourn,
}

/// What admission hands a tasklet asking for work.
pub(crate) enum Pop {
    /// A due request (closed-loop: arrival rewritten to the dispatch
    /// instant, making queueing delay identically zero).
    Ready(Request),
    /// Nothing due yet; the front request arrives at this global tick.
    Park(u64),
    /// The stream is exhausted.
    Drained,
}

/// The shared admission queue: a borrowed, arrival-ordered request slice,
/// the index of its first request not yet admitted, and the closed-loop
/// flag. Timestamps are *global* ticks; simulator callers pass their local
/// `base + now`, threaded callers wall-clock nanoseconds with `base = 0`.
///
/// The index is an atomic, so the queue is shared without a lock: a pop
/// that finds nothing due only reads it, and most pops find nothing due
/// (every idle tasklet wakes at the front request's arrival, and one wins
/// it). A `Mutex` there made low-load simulated runs about a tenth slower
/// on a 2-core x86-64 host.
pub(crate) struct Admission<'a> {
    queue: &'a [Request],
    next: AtomicUsize,
    closed_loop: bool,
}

impl<'a> Admission<'a> {
    pub(crate) fn new(requests: &'a [Request], closed_loop: bool) -> Self {
        Admission { queue: requests, next: AtomicUsize::new(0), closed_loop }
    }

    pub(crate) fn pop_due(&self, now: u64) -> Pop {
        // The index publishes no data (the slice is immutable), so
        // `Relaxed` suffices: the compare-exchange alone admits each
        // request once.
        loop {
            let i = self.next.load(Ordering::Relaxed);
            let Some(front) = self.queue.get(i) else { return Pop::Drained };
            if !self.closed_loop && front.arrival > now {
                return Pop::Park(front.arrival);
            }
            if self.next.compare_exchange(i, i + 1, Ordering::Relaxed, Ordering::Relaxed).is_ok() {
                let arrival = if self.closed_loop { now } else { front.arrival };
                return Pop::Ready(Request { arrival, ..*front });
            }
        }
    }
}

/// One service tasklet on either executor, a [`TaskletLoop`]: between
/// transactions it asks the shared admission queue for the next due request
/// — handing it over to a [`RequestBody`], parking until the front request
/// arrives, or ending once the stream is drained — and on each commit it
/// records the request's three-way latency split in the shared panel, and
/// counts it in the shared `map_full` tally if it found the map full.
pub(crate) struct ServiceTasklet<'a> {
    admission: &'a Admission<'a>,
    panel: &'a Mutex<LatencyPanel>,
    map_full: &'a AtomicU64,
    tables: ServiceTables,
    /// Global tick of this DPU's local cycle 0 (0 for single-DPU runs; the
    /// round start for fleet shards).
    base: u64,
    /// The request in flight: its arrival and dispatch ticks, and its body.
    arrival: u64,
    dispatch: u64,
    body: Option<RequestBody>,
}

impl<'a> ServiceTasklet<'a> {
    pub(crate) fn new(
        admission: &'a Admission<'a>,
        panel: &'a Mutex<LatencyPanel>,
        map_full: &'a AtomicU64,
        tables: ServiceTables,
        base: u64,
    ) -> Self {
        let (arrival, dispatch, body) = (0, 0, None);
        ServiceTasklet { admission, panel, map_full, tables, base, arrival, dispatch, body }
    }
}

impl TaskletLoop for ServiceTasklet<'_> {
    type Body = RequestBody;

    fn between(&mut self, p: &mut dyn Platform) -> Next {
        let now = self.base + p.timestamp();
        match self.admission.pop_due(now) {
            Pop::Ready(request) => {
                self.arrival = request.arrival;
                self.dispatch = now;
                self.body = Some(RequestBody::new(self.tables, &request));
                Next::Run
            }
            // Park targets are global ticks; the platform clock is local.
            // `Park` implies the target is past `base + now`.
            Pop::Park(at) => Next::Park(at.saturating_sub(self.base)),
            Pop::Drained => Next::Finish,
        }
    }

    fn body(&mut self) -> &mut RequestBody {
        self.body.as_mut().expect("a request was handed over")
    }

    fn committed(&mut self, p: &mut dyn Platform, stamps: TxStamps) -> Next {
        let committed = self.base + stamps.committed.unwrap_or_else(|| p.timestamp());
        self.panel.lock().expect("panel lock").record(
            self.dispatch.saturating_sub(self.arrival),
            stamps.service_time().unwrap_or(0),
            committed.saturating_sub(self.arrival),
        );
        if self.body().found_map_full() {
            // A statistic that publishes no other data.
            self.map_full.fetch_add(1, Ordering::Relaxed);
        }
        Next::Between
    }
}

/// Outcome of one simulated service round (also the fleet's per-shard
/// building block).
pub(crate) struct SimRound {
    pub(crate) report: DpuRunReport,
    pub(crate) panel: LatencyPanel,
    /// Requests served without effect on a full map.
    pub(crate) map_full: u64,
}

/// One simulated DPU set up to serve requests: its STM instance, the
/// service tables and one transaction machine per tasklet, each over the
/// slot registered for it, kept for the DPU's whole life. A single-DPU run
/// builds one; every fleet shard keeps one for the whole run.
pub(crate) struct SimService {
    pub(crate) dpu: Dpu,
    machines: Vec<TxMachine>,
    pub(crate) tables: ServiceTables,
}

impl SimService {
    /// Allocates the STM instance, the tables and the slots on a DPU with
    /// exactly the words they take in each tier ([`build_sized`]), so a
    /// tier costs the host what the service allocates from it and nothing
    /// for a tier it never uses.
    ///
    /// # Panics
    ///
    /// Panics if they would not fit a stock UPMEM DPU (64 KB WRAM, 64 MB
    /// MRAM).
    pub(crate) fn new(config: &ServiceConfig) -> Self {
        let (dpu, (tables, machines)) = build_sized(|dpu| {
            let shared = StmShared::allocate(dpu, config.stm)?;
            let tables =
                ServiceTables::allocate(dpu, Tier::Mram, config.keys, config.journal_capacity)?;
            let machines = (0..config.tasklets)
                .map(|t| {
                    Ok(TxMachine::for_shared(shared.clone(), shared.register_tasklet(dpu, t)?))
                })
                .collect::<Result<Vec<_>, AllocError>>()?;
            Ok((tables, machines))
        })
        .unwrap_or_else(|e| panic!("the service must fit a UPMEM DPU: {e}"));
        SimService { dpu, machines, tables }
    }

    /// Serves `requests` to drain: one [`ServiceTasklet`] per machine behind
    /// a shared admission queue. `base` is the global tick of local cycle 0.
    pub(crate) fn run_round(
        &mut self,
        requests: &[Request],
        closed_loop: bool,
        base: u64,
    ) -> SimRound {
        let admission = Admission::new(requests, closed_loop);
        let panel = Mutex::new(LatencyPanel::new(TimeDomain::Cycles));
        let map_full = AtomicU64::new(0);
        let tables = self.tables;
        let programs: Vec<Box<dyn TaskletProgram + '_>> = self
            .machines
            .iter_mut()
            .map(|machine| {
                // No round inherits another's host-side bookkeeping.
                machine.reset_host_state();
                let tasklet = ServiceTasklet::new(&admission, &panel, &map_full, tables, base);
                Box::new(SimTasklet::new(machine, tasklet)) as Box<dyn TaskletProgram + '_>
            })
            .collect();
        let report = Scheduler::new().run(&mut self.dpu, programs);
        let panel = panel.into_inner().expect("panel lock");
        SimRound { report, panel, map_full: map_full.into_inner() }
    }
}

/// Runs the service on the deterministic simulator. Latencies are in cycles.
///
/// # Panics
///
/// Panics when the configuration is infeasible (empty stream/keyspace, STM
/// metadata that does not fit the DPU).
pub fn run_service_sim(config: &ServiceConfig) -> ServiceReport {
    config.validate();
    let mut sim = SimService::new(config);
    let clock_hz = sim.dpu.latency().clock_hz;
    let requests: Vec<Request> = config.stream(clock_hz as f64).collect();
    let round = sim.run_round(&requests, config.arrival.is_closed_loop(), 0);
    ServiceReport {
        executor: Executor::Simulator,
        arrival: config.arrival,
        completed: round.panel.completed(),
        commits: round.report.total_commits(),
        aborts: round.report.total_aborts(),
        map_full: round.map_full,
        makespan_seconds: round.report.makespan_seconds(),
        ticks_per_second: clock_hz as f64,
        panel: round.panel,
    }
}

/// Runs the service on the threaded executor: one [`ServiceTasklet`] per
/// thread under [`run_loop`]. Latencies are in wall-clock nanoseconds (same
/// process-wide epoch as the engine's commit stamps).
fn run_service_threaded(config: &ServiceConfig) -> ServiceReport {
    config.validate();
    let mut dpu = ThreadedDpu::new(config.stm).expect("threaded DPU must build");
    let tables =
        ServiceTables::allocate(&mut dpu, Tier::Mram, config.keys, config.journal_capacity)
            .expect("service tables must fit");
    let mut requests: Vec<Request> = config.stream(1e9).collect();
    let start = wall_clock_nanos();
    // Anchor the stream slightly in the future so early arrivals are not
    // already late before the tasklet threads exist.
    let base = start + 200_000;
    for request in &mut requests {
        request.arrival = request.arrival.saturating_add(base);
    }
    let admission = Admission::new(&requests, config.arrival.is_closed_loop());
    let panel = Mutex::new(LatencyPanel::new(TimeDomain::WallNanos));
    let map_full = AtomicU64::new(0);
    let report = dpu
        .run(config.tasklets, |mut tasklet| {
            run_loop(&mut tasklet, ServiceTasklet::new(&admission, &panel, &map_full, tables, 0))
        })
        .expect("threaded service run");
    let makespan_seconds = (wall_clock_nanos() - start) as f64 / 1e9;
    let panel = panel.into_inner().expect("panel lock");
    ServiceReport {
        executor: Executor::Threaded,
        arrival: config.arrival,
        completed: panel.completed(),
        commits: report.commits,
        aborts: report.aborts,
        map_full: map_full.into_inner(),
        makespan_seconds,
        ticks_per_second: 1e9,
        panel,
    }
}

/// Runs the service on `executor`. Latencies are in cycles on the simulator
/// and in wall-clock nanoseconds on threads.
///
/// # Panics
///
/// Panics when the configuration is infeasible (empty stream/keyspace, too
/// many tasklets, STM metadata that does not fit the DPU).
pub fn run_service(config: &ServiceConfig, executor: Executor) -> ServiceReport {
    match executor {
        Executor::Simulator => run_service_sim(config),
        Executor::Threaded => run_service_threaded(config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{generate_requests, RequestOp};

    fn poisson_config() -> ServiceConfig {
        ServiceConfig::new(ArrivalProcess::Poisson { rate: 2_000_000.0 })
            .with_tasklets(4)
            .with_keys(128)
            .with_requests(400)
            .with_seed(7)
    }

    #[test]
    fn default_config_fits_the_dpu_even_with_a_full_tasklet_pool() {
        // Regression: the default log capacities once exceeded WRAM past
        // eight tasklets. The stock 11-tasklet default and a full 24-tasklet
        // pool must both allocate and serve traffic.
        for tasklets in [11, 24] {
            let config = ServiceConfig::new(ArrivalProcess::Poisson { rate: 1_000_000.0 })
                .with_tasklets(tasklets)
                .with_requests(200);
            let report = run_service_sim(&config);
            assert_eq!(report.completed, 200, "{tasklets} tasklets must serve the stream");
        }
    }

    #[test]
    fn sim_service_completes_the_stream_with_sane_latencies() {
        let report = run_service_sim(&poisson_config());
        assert_eq!(report.completed, 400);
        assert_eq!(report.commits, 400, "every request commits exactly once");
        assert_eq!(report.panel.queueing.count(), 400);
        assert!(report.makespan_seconds > 0.0);
        let p50 = report.quantile_seconds(PanelComponent::Sojourn, 0.50);
        let p99 = report.quantile_seconds(PanelComponent::Sojourn, 0.99);
        assert!(p99 >= p50 && p50 > 0.0, "p99 {p99} must dominate p50 {p50}");
        // Sojourn dominates both components per the stamp protocol.
        assert!(
            report.panel.sojourn.hist.max()
                >= report.panel.service.hist.max().max(report.panel.queueing.hist.max())
        );
    }

    #[test]
    fn sim_service_is_deterministic_per_seed() {
        let a = run_service_sim(&poisson_config());
        let b = run_service_sim(&poisson_config());
        assert_eq!(a.panel, b.panel, "same seed must give bit-identical histograms");
        assert_eq!(a.makespan_seconds, b.makespan_seconds);
        let c = run_service_sim(&poisson_config().with_seed(8));
        assert_ne!(a.panel, c.panel, "a different seed must change the run");
    }

    #[test]
    fn closed_loop_has_identically_zero_queueing_delay() {
        let config = ServiceConfig::new(ArrivalProcess::ClosedLoop)
            .with_tasklets(4)
            .with_keys(64)
            .with_requests(300);
        let report = run_service_sim(&config);
        assert_eq!(report.completed, 300);
        assert_eq!(report.panel.queueing.hist.max(), 0, "closed loop must never queue");
        assert_eq!(report.panel.queueing.count(), 300);
        assert!(report.panel.service.hist.max() > 0);
    }

    #[test]
    fn overload_shows_up_as_queueing_delay() {
        // Offered load far above a single DPU's capacity: queueing must
        // dominate service time at the tail.
        let over = run_service_sim(
            &poisson_config().with_requests(600).with_seed(3).with_arrival_rate(50_000_000.0),
        );
        // Very low load: queueing stays near zero.
        let under = run_service_sim(
            &poisson_config().with_requests(200).with_seed(3).with_arrival_rate(1_000.0),
        );
        assert!(
            over.panel.queueing.quantile(0.95) > under.panel.queueing.quantile(0.95),
            "overload p95 queueing {} must exceed underload {}",
            over.panel.queueing.quantile(0.95),
            under.panel.queueing.quantile(0.95)
        );
        assert_eq!(under.panel.queueing.quantile(0.50), 0, "underload median queueing is zero");
    }

    /// Recorded before the threaded service moved onto `run_loop` and
    /// `ServiceTasklet` onto shared references: that refactor may not move
    /// a commit, an abort, a latency sample or a bit of the modeled clock.
    #[test]
    fn sim_reports_match_the_panel_pinned_before_the_service_loops_merged() {
        // Completed, commits, aborts, makespan bits, panel fingerprint.
        let configs = [
            poisson_config(),
            ServiceConfig::new(ArrivalProcess::ClosedLoop)
                .with_tasklets(4)
                .with_keys(64)
                .with_requests(300),
            poisson_config().with_requests(600).with_seed(3).with_arrival_rate(50_000_000.0),
        ];
        #[rustfmt::skip]
        let pinned: [[u64; 5]; 3] = [
            [400, 400, 46, 0x3f2e74096731e85a, 0x73d53a5abdd25964],
            [300, 300, 34, 0x3f25a8703fd2e635, 0xd6c9517e28abc890],
            [600, 600, 43, 0x3f3757ff145a1dd3, 0x6e7e1f113ba23fab],
        ];
        for (i, (config, row)) in configs.iter().zip(pinned).enumerate() {
            let r = run_service_sim(config);
            let got = [
                r.completed,
                r.commits,
                r.aborts,
                r.makespan_seconds.to_bits(),
                crate::latency::panel_fingerprint(&r.panel),
            ];
            assert_eq!(got, row, "config {i}");
        }
    }

    impl ServiceConfig {
        /// Test helper: swap the open-loop rate in place.
        fn with_arrival_rate(mut self, rate: f64) -> Self {
            self.arrival = ArrivalProcess::Poisson { rate };
            self
        }
    }

    #[test]
    fn threaded_service_serves_the_same_stream() {
        let config = ServiceConfig::new(ArrivalProcess::Poisson { rate: 500_000.0 })
            .with_tasklets(3)
            .with_keys(64)
            .with_requests(150);
        let report = run_service(&config, Executor::Threaded);
        assert_eq!(report.completed, 150);
        assert_eq!(report.commits, 150);
        assert_eq!(report.panel.queueing.time_domain, TimeDomain::WallNanos);
        assert!(report.makespan_seconds > 0.0);
        assert!(report.panel.sojourn.quantile(0.99) >= report.panel.sojourn.quantile(0.50));
    }

    #[test]
    fn threaded_closed_loop_queueing_is_zero() {
        let config = ServiceConfig::new(ArrivalProcess::ClosedLoop)
            .with_tasklets(2)
            .with_keys(64)
            .with_requests(100);
        let report = run_service(&config, Executor::Threaded);
        assert_eq!(report.completed, 100);
        assert_eq!(report.panel.queueing.hist.max(), 0);
    }

    #[test]
    fn threaded_open_loop_waits_for_every_arrival() {
        let config = ServiceConfig::new(ArrivalProcess::Poisson { rate: 50_000.0 })
            .with_tasklets(2)
            .with_keys(64)
            .with_requests(100);
        let report = run_service(&config, Executor::Threaded);
        assert_eq!(report.completed, 100);
        let arrivals = generate_requests(
            config.arrival,
            config.mix,
            config.dist,
            config.keys,
            config.requests,
            config.seed,
            1e9,
        );
        let span = arrivals.last().unwrap().arrival - arrivals[0].arrival;
        assert!(
            report.makespan_seconds >= span as f64 / 1e9,
            "{} s cannot serve arrivals spread over {span} ns",
            report.makespan_seconds
        );
    }

    #[test]
    fn service_preserves_balance_conservation_across_transfers() {
        // Pure transfer mix on a seeded map: puts first (to fund), then
        // transfers only — total balance must be conserved by construction
        // of the transactional transfer. We check via the journal being
        // populated and every commit accounted.
        let config = ServiceConfig::new(ArrivalProcess::Poisson { rate: 1_000_000.0 })
            .with_tasklets(4)
            .with_keys(32)
            .with_requests(300)
            .with_mix(RequestMix { get: 0, put: 1, transfer: 1 });
        let report = run_service_sim(&config);
        assert_eq!(report.completed, 300);
        assert!(report.aborts > 0 || report.commits == 300, "accounting must close");
    }

    /// A put that finds the map full still completes; the report counts
    /// it.
    #[test]
    fn requests_that_find_the_map_full_are_counted() {
        let config = poisson_config().with_mix(RequestMix { get: 0, put: 1, transfer: 0 });
        // Tables sized for 2 keys (8 slots) serving puts over 128.
        let mut sim = SimService::new(&config.clone().with_keys(2));
        let clock_hz = sim.dpu.latency().clock_hz as f64;
        let requests: Vec<Request> = config.stream(clock_hz).collect();
        let round = sim.run_round(&requests, false, 0);
        assert_eq!(round.panel.completed(), 400, "a put on a full map still completes");
        // No key ever leaves the map, so a put found it full exactly when
        // its key is not in the final map.
        let stored: Vec<bool> =
            (0..config.keys).map(|k| sim.tables.map.host_get(&sim.dpu, k).is_some()).collect();
        assert_eq!(stored.iter().filter(|&&s| s).count(), 8);
        let dropped = requests.iter().filter(|r| !stored[r.key as usize]).count() as u64;
        assert!(dropped > 0);
        assert_eq!(round.map_full, dropped);
    }

    #[test]
    #[should_panic(expected = "at most 2^32 keys")]
    fn a_keyspace_beyond_u32_keys_is_refused() {
        run_service_sim(&poisson_config().with_keys((1 << 32) + 1));
    }

    #[test]
    fn mix_generation_obeys_the_requested_shape() {
        let requests = generate_requests(
            ArrivalProcess::ClosedLoop,
            RequestMix { get: 1, put: 0, transfer: 0 },
            KeyDist::Uniform,
            16,
            64,
            1,
            1e9,
        );
        assert!(requests.iter().all(|r| r.op == RequestOp::Get));
    }
}
