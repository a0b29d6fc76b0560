//! The `--service` mode: latency under offered load.
//!
//! Every other pim-exp mode measures *capacity* — closed-loop tasklets that
//! fire the next transaction the moment the previous one commits. This
//! module drives the [`pim_service`] layer instead: an open-loop arrival
//! process offers a fixed request rate, and the report is the latency the
//! client sees at that rate, split into queueing delay (waiting for a free
//! tasklet) and STM service time (including every aborted retry).
//!
//! The sweep runs one service cell per offered rate of the `--rate` ladder:
//!
//! * **single-DPU** — on each requested executor (simulator cycles and/or
//!   threaded wall-clock), via [`run_service`];
//! * **fleet** (`--fleet`) — the same stream sharded across `--dpus` DPUs
//!   with arrivals routed by key ownership, via [`run_service_fleet`];
//!   `--rebalance` and `--overlap` exercise the shard-rebalancing and
//!   round-pipelining machinery under open-loop load.
//!
//! `--repeat N` runs every cell through [`repeat_cells`], the one repeat
//! loop of `pim-exp`, under `repeat_seed(seed, i)`; it keeps the run with
//! the **lower-median sojourn p99** and reports the [`Spread`] of the p99
//! sojourn and of the achieved rate over the runs. Cells run serially:
//! threaded cells time real OS threads.

use pim_fleet::RebalancePolicy;
use pim_service::{
    run_service, run_service_fleet, ArrivalProcess, PanelComponent, RequestMix, ServiceConfig,
    ServiceFleetConfig, ServiceFleetReport, ServiceReport,
};
use pim_sim::KeyDist;
use pim_stm::{MetadataPlacement, StmConfig, StmKind};
use pim_workloads::spec::Executor;

use crate::design_space::{lower_median_index, repeat_cells, Spread};
use crate::pool::WorkerPool;
use crate::report::{fmt_f64, render_table};

/// The default offered-rate ladder (requests/second) when `--rate` is not
/// given: from comfortably below a single DPU's capacity to above it, so
/// the latency-vs-load curve shows both the flat region and the knee.
pub const DEFAULT_SERVICE_RATES: [f64; 4] = [25_000.0, 50_000.0, 100_000.0, 200_000.0];

/// The panel component a repeated cell keeps its lower-median run by.
const SOJOURN: PanelComponent = PanelComponent::Sojourn;

/// Knobs of one `--service` sweep (shared by the single-DPU and fleet
/// variants).
#[derive(Debug, Clone)]
pub struct ServiceSweepOptions {
    /// Arrival-process shape text (`poisson`, `bursty[:burst[:duty]]`,
    /// `closed-loop`), instantiated per rate via [`ArrivalProcess::parse`].
    pub arrival: String,
    /// Offered rates in requests/second (ignored for closed-loop).
    pub rates: Vec<f64>,
    /// Get/put/transfer weights.
    pub mix: RequestMix,
    /// Key skew of the request stream.
    pub dist: KeyDist,
    /// STM design serving the requests.
    pub kind: StmKind,
    /// STM metadata placement.
    pub placement: MetadataPlacement,
    /// Tasklets serving the admission queue.
    pub tasklets: usize,
    /// Stream-size multiplier (scales the 2048-request default stream).
    pub scale: f64,
    /// Base PRNG seed; repeat iteration `i` runs under
    /// `repeat_seed(seed, i)`.
    pub seed: u64,
    /// Runs per cell (lower-median collapse, CI95 spread).
    pub repeat: usize,
    /// Executors of the single-DPU variant (the fleet always runs on the
    /// simulator).
    pub executors: Vec<Executor>,
}

impl Default for ServiceSweepOptions {
    fn default() -> Self {
        ServiceSweepOptions {
            arrival: "poisson".to_string(),
            rates: DEFAULT_SERVICE_RATES.to_vec(),
            mix: RequestMix::read_mostly(),
            dist: KeyDist::Uniform,
            kind: StmKind::TinyEtlWb,
            placement: MetadataPlacement::Wram,
            tasklets: 11,
            scale: 0.25,
            seed: 42,
            repeat: 1,
            executors: vec![Executor::Simulator],
        }
    }
}

impl ServiceSweepOptions {
    /// Requests per stream: the 2048-request default scaled by `--scale`,
    /// floored so even tiny scales exercise the queue.
    pub fn requests(&self) -> u64 {
        ((2048.0 * self.scale) as u64).max(64)
    }

    /// The per-rate service configuration (seed applied per repeat).
    fn config(&self, arrival: ArrivalProcess) -> ServiceConfig {
        ServiceConfig::new(arrival)
            .with_stm(
                StmConfig::new(self.kind, self.placement)
                    .with_lock_table_entries(256)
                    .with_read_set_capacity(64)
                    .with_write_set_capacity(32),
            )
            .with_tasklets(self.tasklets)
            .with_mix(self.mix)
            .with_dist(self.dist)
            .with_requests(self.requests())
    }

    /// Keyspace size of every cell's service configuration: a fleet
    /// cannot have more shards than keys.
    pub fn keys(&self) -> u64 {
        self.config(ArrivalProcess::ClosedLoop).keys
    }

    /// The effective rate ladder: closed-loop arrivals have no offered
    /// rate, so the ladder degenerates to one unconstrained point.
    pub(crate) fn effective_rates(&self) -> Vec<f64> {
        if self.arrival.trim() == "closed-loop" {
            vec![0.0]
        } else {
            self.rates.clone()
        }
    }
}

/// Fleet-variant knobs of a `--service --fleet` sweep.
#[derive(Debug, Clone)]
pub struct ServiceFleetKnobs {
    /// Number of shard DPUs.
    pub shards: u32,
    /// Shard-rebalancing policy.
    pub rebalance: RebalancePolicy,
    /// Whether rounds are double-buffered (scatter hidden behind compute).
    pub overlap: bool,
}

/// One single-DPU cell of the sweep: the lower-median run plus its spread.
#[derive(Debug, Clone)]
pub struct ServicePoint {
    /// The kept (lower-median by sojourn p99) run, which names its executor.
    pub report: ServiceReport,
    /// Spread of the p99 sojourn over the repeats, in seconds (`None` for
    /// one run).
    pub p99_sojourn_spread: Option<Spread>,
    /// Spread of the achieved rate over the repeats, in requests/second.
    pub achieved_rate_spread: Option<Spread>,
}

/// One fleet cell of the sweep.
#[derive(Debug, Clone)]
pub struct ServiceFleetPoint {
    /// The kept (lower-median by sojourn p99) run.
    pub report: ServiceFleetReport,
    /// Spread of the p99 sojourn over the repeats, in seconds (`None` for
    /// one run).
    pub p99_sojourn_spread: Option<Spread>,
    /// Spread of the achieved rate over the repeats, in requests/second.
    pub achieved_rate_spread: Option<Spread>,
}

/// The full `--service` sweep: one latency-under-load curve per executor
/// (single-DPU) or one for the fleet.
#[derive(Debug, Clone)]
pub struct ServiceSweep {
    /// The options that produced the sweep.
    pub options: ServiceSweepOptions,
    /// The fleet knobs, when this is a `--fleet` service sweep.
    pub fleet: Option<ServiceFleetKnobs>,
    /// Single-DPU cells, rate-major then executor order (empty on fleet
    /// sweeps).
    pub points: Vec<ServicePoint>,
    /// Fleet cells, one per rate (empty on single-DPU sweeps).
    pub fleet_points: Vec<ServiceFleetPoint>,
}

impl ServiceSweep {
    /// Runs the sweep. With `fleet` knobs the stream is sharded across the
    /// fleet (simulator only); otherwise every executor in the options runs
    /// the single-DPU service loop.
    ///
    /// # Errors
    ///
    /// Returns a message when the arrival shape does not parse at a rate of
    /// the ladder.
    pub fn run(
        options: ServiceSweepOptions,
        fleet: Option<ServiceFleetKnobs>,
    ) -> Result<ServiceSweep, String> {
        let arrivals = options
            .effective_rates()
            .into_iter()
            .map(|rate| ArrivalProcess::parse(&options.arrival, rate))
            .collect::<Result<Vec<_>, _>>()?;
        let (repeat, serial) = (options.repeat, WorkerPool::serial());
        let (mut points, mut fleet_points) = (Vec::new(), Vec::new());
        if let Some(knobs) = &fleet {
            let runs = repeat_cells(
                &arrivals,
                repeat,
                &serial,
                |_| options.seed,
                |cell, seed, _| {
                    let service = options.config(arrivals[cell]).with_seed(seed);
                    let config = ServiceFleetConfig::new(service, knobs.shards)
                        .with_rebalance(knobs.rebalance)
                        .with_overlap(knobs.overlap);
                    run_service_fleet(&config)
                },
            );
            for mut runs in runs {
                let p99: Vec<f64> =
                    runs.iter().map(|r| r.quantile_seconds(SOJOURN, 0.99)).collect();
                let rates: Vec<f64> = runs.iter().map(ServiceFleetReport::achieved_rate).collect();
                fleet_points.push(ServiceFleetPoint {
                    report: runs.swap_remove(lower_median_index(&p99)),
                    p99_sojourn_spread: Spread::of(&p99),
                    achieved_rate_spread: Spread::of(&rates),
                });
            }
        } else {
            let cells: Vec<(ArrivalProcess, Executor)> = arrivals
                .iter()
                .flat_map(|&arrival| options.executors.iter().map(move |&e| (arrival, e)))
                .collect();
            let runs = repeat_cells(
                &cells,
                repeat,
                &serial,
                |_| options.seed,
                |cell, seed, _| {
                    let (arrival, executor) = cells[cell];
                    run_service(&options.config(arrival).with_seed(seed), executor)
                },
            );
            for mut runs in runs {
                let p99: Vec<f64> =
                    runs.iter().map(|r| r.quantile_seconds(SOJOURN, 0.99)).collect();
                let rates: Vec<f64> = runs.iter().map(ServiceReport::achieved_rate).collect();
                points.push(ServicePoint {
                    report: runs.swap_remove(lower_median_index(&p99)),
                    p99_sojourn_spread: Spread::of(&p99),
                    achieved_rate_spread: Spread::of(&rates),
                });
            }
        }
        Ok(ServiceSweep { options, fleet, points, fleet_points })
    }

    /// Whether any cell carries a `--repeat` spread.
    pub fn has_spread(&self) -> bool {
        self.points.iter().any(|p| p.p99_sojourn_spread.is_some())
            || self.fleet_points.iter().any(|p| p.p99_sojourn_spread.is_some())
    }

    /// The single-DPU latency-vs-offered-load table (µs quantiles).
    pub fn latency_table(&self) -> String {
        let header = [
            "executor",
            "offered/s",
            "achieved/s",
            "abort%",
            "done",
            "queue p50",
            "queue p99",
            "svc p50",
            "svc p99",
            "sojourn p50",
            "sojourn p99",
            "sojourn max",
        ]
        .map(str::to_string)
        .to_vec();
        let rows = self
            .points
            .iter()
            .map(|p| {
                let r = &p.report;
                let micros = |which, q| fmt_f64(r.quantile_seconds(which, q) * 1e6);
                let sojourn_max =
                    r.panel.sojourn.seconds(r.panel.sojourn.hist.max(), r.ticks_per_second);
                vec![
                    r.executor.name().to_string(),
                    fmt_f64(r.offered_rate()),
                    fmt_f64(r.achieved_rate()),
                    format!("{:.1}", r.abort_rate() * 100.0),
                    r.completed.to_string(),
                    micros(PanelComponent::Queueing, 0.50),
                    micros(PanelComponent::Queueing, 0.99),
                    micros(PanelComponent::Service, 0.50),
                    micros(PanelComponent::Service, 0.99),
                    micros(PanelComponent::Sojourn, 0.50),
                    micros(PanelComponent::Sojourn, 0.99),
                    fmt_f64(sojourn_max * 1e6),
                ]
            })
            .collect::<Vec<_>>();
        format!("latency under load (quantiles in µs)\n{}", render_table(&header, &rows))
    }

    /// The fleet latency-under-load table (µs quantiles).
    pub fn fleet_table(&self) -> String {
        let header = [
            "shards",
            "offered/s",
            "achieved/s",
            "abort%",
            "done",
            "rounds",
            "rebal",
            "moved",
            "queue p99",
            "svc p99",
            "sojourn p99",
        ]
        .map(str::to_string)
        .to_vec();
        let rows = self
            .fleet_points
            .iter()
            .map(|p| {
                let r = &p.report;
                let micros = |which, q| fmt_f64(r.quantile_seconds(which, q) * 1e6);
                vec![
                    r.shards.to_string(),
                    fmt_f64(r.offered_rate()),
                    fmt_f64(r.achieved_rate()),
                    format!("{:.1}", r.abort_rate() * 100.0),
                    r.completed.to_string(),
                    r.rounds.to_string(),
                    r.rebalances.to_string(),
                    r.migrated_keys.to_string(),
                    micros(PanelComponent::Queueing, 0.99),
                    micros(PanelComponent::Service, 0.99),
                    micros(PanelComponent::Sojourn, 0.99),
                ]
            })
            .collect::<Vec<_>>();
        format!("fleet latency under load (quantiles in µs)\n{}", render_table(&header, &rows))
    }

    /// The `--repeat` spread table: mean ± CI95 of the p99 sojourn and the
    /// achieved rate per cell.
    pub fn spread_table(&self) -> String {
        let header =
            ["cell", "offered/s", "runs", "p99 sojourn µs (mean±ci95)", "achieved/s (mean±ci95)"]
                .map(str::to_string)
                .to_vec();
        let mut rows = Vec::new();
        for p in &self.points {
            if let Some(s) = p.p99_sojourn_spread.zip(p.achieved_rate_spread) {
                rows.push(spread_row(p.report.executor.name(), p.report.offered_rate(), s));
            }
        }
        for p in &self.fleet_points {
            if let Some(s) = p.p99_sojourn_spread.zip(p.achieved_rate_spread) {
                rows.push(spread_row("fleet", p.report.offered_rate(), s));
            }
        }
        format!(
            "repeat spread over {} run(s)\n{}",
            self.options.repeat,
            render_table(&header, &rows)
        )
    }
}

/// One row of the spread table from a cell's p99 sojourn and achieved
/// rate spreads.
fn spread_row(cell: &str, offered: f64, (p99, rate): (Spread, Spread)) -> Vec<String> {
    vec![
        cell.to_string(),
        fmt_f64(offered),
        p99.runs.to_string(),
        format!("{} ± {}", fmt_f64(p99.mean * 1e6), fmt_f64(p99.ci95 * 1e6)),
        format!("{} ± {}", fmt_f64(rate.mean), fmt_f64(rate.ci95)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> ServiceSweepOptions {
        ServiceSweepOptions {
            rates: vec![50_000.0],
            tasklets: 4,
            scale: 0.05,
            ..ServiceSweepOptions::default()
        }
    }

    #[test]
    fn single_sweep_produces_one_point_per_rate_and_executor() {
        let sweep = ServiceSweep::run(
            ServiceSweepOptions { rates: vec![25_000.0, 100_000.0], ..tiny_options() },
            None,
        )
        .unwrap();
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.fleet_points.is_empty());
        for point in &sweep.points {
            let r = &point.report;
            assert!(r.completed > 0);
            assert!(
                r.quantile_seconds(PanelComponent::Sojourn, 0.99)
                    >= r.quantile_seconds(PanelComponent::Sojourn, 0.50)
            );
            assert!(point.p99_sojourn_spread.is_none(), "--repeat 1 has no spread");
        }
        // Deeper queues at 4× the offered load: p99 sojourn is monotone
        // non-decreasing in the rate for the same stream.
        let slow = sweep.points[0].report.panel.sojourn.quantile(0.99);
        let fast = sweep.points[1].report.panel.sojourn.quantile(0.99);
        assert!(fast >= slow, "higher offered load cannot shrink sojourn p99 ({slow} -> {fast})");
        assert!(sweep.latency_table().contains("sojourn p99"));
    }

    #[test]
    fn closed_loop_collapses_the_ladder_and_zeroes_queueing() {
        let sweep = ServiceSweep::run(
            ServiceSweepOptions { arrival: "closed-loop".into(), ..tiny_options() },
            None,
        )
        .unwrap();
        assert_eq!(sweep.points.len(), 1, "closed-loop has no offered-rate ladder");
        let r = &sweep.points[0].report;
        assert_eq!(r.offered_rate(), 0.0);
        assert_eq!(r.panel.queueing.hist.max(), 0, "closed-loop queueing is identically zero");
    }

    #[test]
    fn repeat_collapses_to_the_lower_median_and_reports_spread() {
        let sweep =
            ServiceSweep::run(ServiceSweepOptions { repeat: 3, ..tiny_options() }, None).unwrap();
        let point = &sweep.points[0];
        let spread = point.p99_sojourn_spread.expect("3 runs must carry a spread");
        assert_eq!(spread.runs, 3);
        assert!(spread.mean > 0.0);
        assert!(spread.ci95 >= 0.0);
        assert!(sweep.has_spread());
        assert!(sweep.spread_table().contains("±"));
        // The simulator repeats differ only by seed; the kept run is one of
        // them, so its p99 is within the observed min..=max.
        assert!(point.report.completed > 0);
    }

    #[test]
    fn fleet_sweep_runs_per_shard_and_routes_every_request() {
        let knobs = ServiceFleetKnobs { shards: 4, rebalance: RebalancePolicy::Off, overlap: true };
        let sweep = ServiceSweep::run(tiny_options(), Some(knobs)).unwrap();
        assert!(sweep.points.is_empty());
        assert_eq!(sweep.fleet_points.len(), 1);
        let r = &sweep.fleet_points[0].report;
        assert_eq!(r.shards, 4);
        assert_eq!(r.completed, sweep.options.requests(), "every request must commit somewhere");
        assert_eq!(r.per_shard_completed.iter().sum::<u64>(), r.completed);
        assert!(r.rounds > 0);
        assert!(sweep.fleet_table().contains("shards"));
    }

    #[test]
    fn bad_arrival_shapes_are_reported() {
        let err = ServiceSweep::run(
            ServiceSweepOptions { arrival: "fractal".into(), ..tiny_options() },
            None,
        )
        .unwrap_err();
        assert!(err.contains("fractal"), "{err}");
    }
}
