//! `fleet-rounds`: `pim_fleet::runtime::run` with two host workers.
//!
//! Every round is hundreds of tiny shard simulations plus host routing,
//! merge, transfer ledger and (in one configuration) rebalance and round
//! overlap — the loop a merged fleet dispatcher has to keep as fast and
//! bit-identical. Two global streams, each run under two configurations
//! that must end in the same state.

use super::{scaled, stm_profile_metrics};
use crate::harness::{Checks, Workload};
use crate::metric::MetricSet;
use crate::probes;
use crate::stats::geomean;
use crate::trace::{self, Span, Tracer};
use pim_fleet::{run, FleetConfig, FleetReport, RebalancePolicy};
use pim_sim::KeyDist;
use pim_workloads::sharded::{generate_stream, RoutingPolicy, ShardedWorkloadConfig};
use std::time::Instant;

const HOST_WORKERS: usize = 2;

/// One fleet configuration; `stream` indexes the global stream it runs.
struct Config {
    name: &'static str,
    stream: usize,
    fleet: FleetConfig,
}

pub struct Fleet {
    streams: [ShardedWorkloadConfig; 2],
    configs: Vec<Config>,
    seed: u64,
}

pub fn new(seed: u64, size: f64) -> Fleet {
    let keys = 64 * 1024;
    let txns = scaled(56 * 1024, size, 1024) as u32;
    let uniform = ShardedWorkloadConfig::new(keys, txns);
    let zipf = ShardedWorkloadConfig::new(keys, txns)
        .with_dist(KeyDist::Zipf { theta: 0.9 })
        .with_phases(4);
    let fleet = |shards, stream: ShardedWorkloadConfig| {
        FleetConfig::new(shards, stream).with_seed(seed).with_host_workers(HOST_WORKERS)
    };
    // Sixteen rounds, not the default four: with a recut at every one of
    // four boundaries no round is ever eligible to overlap.
    let mut rebalanced = fleet(256, zipf)
        .with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.25 })
        .with_overlap(true);
    rebalanced.txns_per_round = (txns as usize).div_ceil(16);
    let configs = vec![
        Config { name: "64", stream: 0, fleet: fleet(64, uniform) },
        // Overlap only re-prices the rounds; with no recut every round after
        // the first is eligible, so this is the cell `hidden_share` reads.
        Config { name: "256", stream: 0, fleet: fleet(256, uniform).with_overlap(true) },
        Config { name: "256-rebalance", stream: 1, fleet: rebalanced },
        Config {
            name: "64-retry",
            stream: 1,
            fleet: fleet(64, zipf).with_routing(RoutingPolicy::AbortAndRetry),
        },
    ];
    Fleet { streams: [uniform, zipf], configs, seed }
}

/// What the streams say the fleet must have done, from the generator alone.
pub struct Expected {
    /// Increments in each global stream.
    increments: [u64; 2],
}

pub struct Output {
    expected: Expected,
    reports: Vec<FleetReport>,
}

impl Workload for Fleet {
    type Prepared = Expected;
    type Output = Output;

    fn cells(&self) -> Vec<String> {
        self.configs.iter().map(|c| c.name.to_string()).collect()
    }

    fn prepare(&self, tracer: &Tracer) -> Expected {
        let increments = self.streams.map(|config| {
            let stream = tracer.span("pim-workloads/generate_stream", trace::NO_CELL, || {
                generate_stream(&config, self.seed)
            });
            stream.iter().map(|tx| tx.updates.len() as u64).sum()
        });
        Expected { increments }
    }

    fn run(&self, expected: Expected, tracer: &Tracer) -> Output {
        let reports = self
            .configs
            .iter()
            .enumerate()
            .map(|(i, config)| tracer.span("pim-fleet/run", i as u32, || run(&config.fleet)))
            .collect();
        Output { expected, reports }
    }

    fn model_tx_per_s(&self, output: &Output) -> f64 {
        geomean(output.reports.iter().map(FleetReport::throughput_tx_per_sec))
    }

    fn digest(&self, output: &Output) -> Vec<u64> {
        output
            .reports
            .iter()
            .flat_map(|r| {
                [r.total_commits, r.total_aborts, r.fingerprint, r.makespan_seconds.to_bits()]
            })
            .collect()
    }

    fn verify(&self, output: &Output, checks: &mut Checks) {
        for (config, report) in self.configs.iter().zip(&output.reports) {
            let name = config.name;
            checks.same(
                &format!("fleet {name}: increments conserved against the stream"),
                report.total_increments,
                output.expected.increments[config.stream],
            );
            checks.same(
                &format!("fleet {name}: every global transaction dispatched"),
                report.global_txns,
                u64::from(self.streams[config.stream].total_txns),
            );
        }
        // One stream, two partitions/routings: the merged state is the same.
        for (a, b) in [(0, 1), (2, 3)] {
            checks.same(
                &format!("fleet {} vs {}: fingerprint", self.configs[a].name, self.configs[b].name),
                output.reports[a].fingerprint,
                output.reports[b].fingerprint,
            );
        }
    }

    fn layers(&self, output: &Output, spans: &[Span], metrics: &mut MetricSet<'_>) {
        let run_spans: Vec<&Span> = spans.iter().filter(|s| s.name == "pim-fleet/run").collect();
        for ((config, report), span) in self.configs.iter().zip(&output.reports).zip(&run_spans) {
            let name = config.name;
            metrics.wall(&format!("pim-fleet.run_s.{name}"), span.seconds());
            metrics
                .exact(&format!("pim-fleet.model_tx_per_s.{name}"), report.throughput_tx_per_sec());
            if config.fleet.rebalance == RebalancePolicy::Off
                && config.fleet.routing == RoutingPolicy::RouteToOwner
            {
                let per_round = span.seconds() * 1e3 / report.rounds.len() as f64;
                metrics.wall(&format!("pim-fleet.wall_ms_per_round.{name}"), per_round);
            }
        }
        let reports = &output.reports;
        let shard_runs: u64 = reports.iter().flat_map(|r| &r.rounds).map(|r| r.active_shards).sum();
        metrics.exact("pim-fleet.shard_runs", shard_runs as f64);
        let bytes: u64 = reports.iter().map(|r| r.ledger.total_bytes()).sum();
        metrics.exact("pim-fleet.transfer_bytes", bytes as f64);
        let piped = &reports[1];
        metrics.exact(
            "pim-fleet.hidden_share",
            piped.pipeline.hidden_seconds
                / (piped.makespan_seconds + piped.pipeline.hidden_seconds),
        );
        let rebalanced = &reports[2];
        metrics
            .exact("pim-fleet.imbalance_max_over_mean", rebalanced.imbalance.max_over_mean_commits);
        metrics.exact("pim-fleet.migrated_keys", rebalanced.rebalance.migrated_keys as f64);
        let retry = &reports[3];
        metrics.exact(
            "pim-fleet.rejected_share",
            retry.total_rejected as f64 / retry.dispatched_subtxns as f64,
        );

        // The same 256-shard run on one host worker: how much the second
        // worker buys (1.0 on a one-core machine).
        let start = Instant::now();
        let serial = run(&self.configs[1].fleet.with_host_workers(1));
        let serial_s = start.elapsed().as_secs_f64();
        assert_eq!(serial.fingerprint, reports[1].fingerprint, "host workers never change results");
        metrics.wall("pim-fleet.host_workers_speedup", serial_s / run_spans[1].seconds());

        let mut profile = reports[0].profile;
        for report in &reports[1..] {
            profile.merge(&report.profile);
        }
        stm_profile_metrics(&profile, metrics);
        metrics.exact("pim-sim.dma_setups", profile.dma_setups() as f64);
        metrics.exact("pim-sim.dma_words", profile.dma_words() as f64);
        let busy: u64 = reports.iter().flat_map(|r| &r.shards).map(|s| s.busy_cycles).sum();
        metrics.exact("pim-sim.sim_cycles", busy as f64);
        metrics.wall(
            "pim-workloads.stream_gen_s",
            trace::total_s(spans, "pim-workloads/generate_stream"),
        );
        probes::fleet(metrics);
    }
}
