//! `service-load`: the open-loop service on the simulator.
//!
//! A Poisson ladder from well below to above the knee (≈ 1.2–1.3 M req/s
//! on 11 tasklets), two operation mixes, one bursty cell, the closed-loop
//! capacity baseline and a 16-shard service fleet. Latency is the modeled
//! sojourn from the request's arrival stamp, so the queueing a stall
//! imposes on later requests is counted.

use super::scaled;
use crate::harness::{Checks, Workload};
use crate::metric::MetricSet;
use crate::probes;
use crate::stats::geomean;
use crate::trace::{self, Span, Tracer};
use pim_service::{
    generate_requests, run_service_fleet, run_service_sim, ArrivalProcess, PanelComponent,
    RequestMix, ServiceConfig, ServiceFleetConfig, ServiceFleetReport, ServiceReport,
};
use pim_sim::{KeyDist, LatencyModel};

/// The offered-rate ladder, requests per second.
const LADDER: [(&str, f64); 7] = [
    ("r400k", 400e3),
    ("r600k", 600e3),
    ("r800k", 800e3),
    ("r1000k", 1000e3),
    ("r1200k", 1200e3),
    ("r1400k", 1400e3),
    ("r1600k", 1600e3),
];
/// A rate "meets the limit" when p99 sojourn stays within this many
/// microseconds and the backlog does not grow (achieved ≥ 98 % of offered).
const SOJOURN_LIMIT_US: f64 = 100.0;
const ACHIEVED_SHARE: f64 = 0.98;
const FLEET_SHARDS: u32 = 16;

struct Cell {
    name: String,
    config: ServiceConfig,
}

pub struct Service {
    /// The uniform read-mostly ladder first (indices `0..LADDER.len()`),
    /// then the skewed write-heavy ladder, the bursty cell and the two
    /// closed-loop cells.
    cells: Vec<Cell>,
    fleet: ServiceFleetConfig,
}

pub fn new(seed: u64, size: f64) -> Service {
    let requests = scaled(40_000, size, 256);
    let base = |arrival| {
        ServiceConfig::new(arrival)
            .with_tasklets(11)
            .with_keys(4096)
            .with_requests(requests)
            .with_seed(seed)
    };
    let write_heavy = RequestMix { get: 50, put: 30, transfer: 20 };
    let skewed = KeyDist::Zipf { theta: 0.99 };
    let mut cells = Vec::new();
    for (name, rate) in LADDER {
        cells.push(Cell {
            name: format!("uniform/{name}"),
            config: base(ArrivalProcess::Poisson { rate }),
        });
    }
    for (name, rate) in LADDER {
        let config = base(ArrivalProcess::Poisson { rate }).with_mix(write_heavy).with_dist(skewed);
        cells.push(Cell { name: format!("zipf/{name}"), config });
    }
    let bursty = ArrivalProcess::Bursty { rate: 800e3, burst: 64.0, duty: 0.2 };
    cells.push(Cell { name: "uniform/bursty-r800k".into(), config: base(bursty) });
    cells.push(Cell {
        name: "uniform/closed-loop".into(),
        config: base(ArrivalProcess::ClosedLoop),
    });
    cells.push(Cell {
        name: "zipf/closed-loop".into(),
        config: base(ArrivalProcess::ClosedLoop).with_mix(write_heavy).with_dist(skewed),
    });
    let fleet_service = base(ArrivalProcess::Poisson { rate: 8e6 }).with_requests(4 * requests);
    Service { cells, fleet: ServiceFleetConfig::new(fleet_service, FLEET_SHARDS) }
}

pub struct Output {
    /// Requests the generator produced per cell, fleet last.
    generated: Vec<u64>,
    reports: Vec<ServiceReport>,
    fleet: ServiceFleetReport,
}

impl Service {
    fn report<'o>(&self, output: &'o Output, name: &str) -> &'o ServiceReport {
        let index =
            self.cells.iter().position(|c| c.name == name).expect("a cell of this workload");
        &output.reports[index]
    }
}

fn p99_us(report: &ServiceReport, which: PanelComponent) -> f64 {
    report.quantile_seconds(which, 0.99) * 1e6
}

impl Workload for Service {
    type Prepared = Vec<u64>;
    type Output = Output;

    fn cells(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.name.clone()).chain(["fleet/16-shards".to_string()]).collect()
    }

    /// The request streams, through the public generator (the run
    /// functions draw the same streams again from the same seed).
    fn prepare(&self, tracer: &Tracer) -> Vec<u64> {
        let ticks_per_second = LatencyModel::default().clock_hz as f64;
        let configs = self.cells.iter().map(|c| &c.config).chain([&self.fleet.service]);
        configs
            .enumerate()
            .map(|(i, c)| {
                tracer.span("pim-service/generate_requests", i as u32, || {
                    generate_requests(
                        c.arrival,
                        c.mix,
                        c.dist,
                        c.keys,
                        c.requests,
                        c.seed,
                        ticks_per_second,
                    )
                    .len() as u64
                })
            })
            .collect()
    }

    fn run(&self, generated: Vec<u64>, tracer: &Tracer) -> Output {
        let reports = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                tracer
                    .span("pim-service/run_service_sim", i as u32, || run_service_sim(&cell.config))
            })
            .collect();
        let fleet = tracer.span("pim-service/run_service_fleet", self.cells.len() as u32, || {
            run_service_fleet(&self.fleet)
        });
        Output { generated, reports, fleet }
    }

    /// The closed-loop capacity: in an open loop below the knee the
    /// throughput is just the offered rate.
    fn model_tx_per_s(&self, output: &Output) -> f64 {
        geomean(
            ["uniform/closed-loop", "zipf/closed-loop"]
                .map(|n| self.report(output, n).achieved_rate()),
        )
    }

    fn digest(&self, output: &Output) -> Vec<u64> {
        let cells = output.reports.iter().flat_map(|r| {
            [r.commits, r.aborts, r.makespan_seconds.to_bits(), r.panel.sojourn.quantile(0.99)]
        });
        cells.chain([output.fleet.commits, output.fleet.makespan_seconds.to_bits()]).collect()
    }

    fn verify(&self, output: &Output, checks: &mut Checks) {
        for ((cell, report), generated) in
            self.cells.iter().zip(&output.reports).zip(&output.generated)
        {
            checks.same(
                &format!("service {}: completed == requests", cell.name),
                report.completed,
                cell.config.requests,
            );
            checks.same(
                &format!("service {}: generated == requests", cell.name),
                *generated,
                cell.config.requests,
            );
        }
        checks.same(
            "service fleet: completed == requests",
            output.fleet.completed,
            self.fleet.service.requests,
        );
        checks.same(
            "service fleet: every shard's completions add up",
            output.fleet.per_shard_completed.iter().sum::<u64>(),
            output.fleet.completed,
        );
    }

    fn layers(&self, output: &Output, spans: &[Span], metrics: &mut MetricSet<'_>) {
        let requests: u64 = output.generated.iter().sum();
        let single: u64 = self.cells.iter().map(|c| c.config.requests).sum();
        metrics.wall(
            "pim-service.gen_ns_per_req",
            trace::total_s(spans, "pim-service/generate_requests") * 1e9 / requests as f64,
        );
        metrics.wall(
            "pim-service.run_ns_per_req",
            trace::total_s(spans, "pim-service/run_service_sim") * 1e9 / single as f64,
        );
        metrics.wall(
            "pim-service.fleet_run_s",
            trace::total_s(spans, "pim-service/run_service_fleet"),
        );

        let mut max_rate = 0.0f64;
        for (i, (name, rate)) in LADDER.iter().enumerate() {
            let report = &output.reports[i];
            let sojourn = p99_us(report, PanelComponent::Sojourn);
            metrics.exact(&format!("pim-service.model_p99_sojourn_us.{name}"), sojourn);
            if sojourn <= SOJOURN_LIMIT_US && report.achieved_rate() >= ACHIEVED_SHARE * rate {
                max_rate = max_rate.max(*rate);
            }
        }
        metrics.exact("pim-service.model_max_rate_rps", max_rate);
        let knee = self.report(output, "uniform/r1200k");
        metrics.exact(
            "pim-service.model_p99_queueing_us.r1200k",
            p99_us(knee, PanelComponent::Queueing),
        );
        metrics.exact("pim-service.model_abort_rate.r1200k", knee.abort_rate());
        let over = self.report(output, "uniform/r1600k");
        metrics
            .exact("pim-service.backlog_ratio.r1600k", over.offered_rate() / over.achieved_rate());
        for dist in ["uniform", "zipf"] {
            let closed = self.report(output, &format!("{dist}/closed-loop"));
            metrics.exact(
                &format!("pim-service.closed_loop_capacity_rps.{dist}"),
                closed.achieved_rate(),
            );
        }
        metrics.exact("pim-service.fleet_achieved_rps", output.fleet.achieved_rate());

        let commits: u64 =
            output.reports.iter().map(|r| r.commits).sum::<u64>() + output.fleet.commits;
        let aborts: u64 =
            output.reports.iter().map(|r| r.aborts).sum::<u64>() + output.fleet.aborts;
        metrics.exact("pim-stm.commits", commits as f64);
        metrics.exact("pim-stm.aborts", aborts as f64);
        metrics.exact("pim-stm.attempts", (commits + aborts) as f64);
        metrics.exact("pim-stm.useful_ratio", commits as f64 / (commits + aborts) as f64);
        probes::histogram(metrics);
    }
}
