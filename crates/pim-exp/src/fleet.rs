//! The `--fleet` experiment: a *measured* multi-DPU scaling study on the
//! [`pim_fleet`] sharded runtime.
//!
//! Where `--figure fig7` extrapolates one simulated DPU through the
//! analytic [`pim_sim::MultiDpuPlan`], this sweep actually runs N shard
//! simulators behind the fleet's host dispatcher and reports what they
//! measured:
//!
//! * **Scaling curve** — a weak-scaling sweep over DPU counts: every DPU
//!   owns the same keyspace slice and receives the same expected number of
//!   transactions, so the total workload grows with N and ideal throughput
//!   grows linearly. Each point carries the merged fleet
//!   [`pim_stm::ExecProfile`], the per-shard imbalance summary, the
//!   per-primitive transfer ledger and the analytic cross-check total.
//! * **Skew sweep** — the largest fleet of the curve re-run under
//!   increasingly skewed key popularity ([`KeyDist::Zipf`]); because a
//!   round ends when its slowest shard does, the hottest shard's commit
//!   share translates directly into lost fleet throughput, which the
//!   imbalance columns quantify. With `--rebalance` each skew point also
//!   runs the static-partition baseline, so the table shows the
//!   throughput the recut *recovered*; with `--overlap` the pipeline
//!   panel shows the barrier seconds the double-buffered rounds hid.
//!
//! `--repeat N` runs every fleet through [`repeat_cells`], the one repeat
//! loop single-DPU cells and `--service` use: seeds `seed..seed+N`, the
//! (lower-)median-makespan run kept as the representative, and mean ± 95 %
//! CI spread columns from the same [`Spread`].

use pim_fleet::{run, FleetConfig, FleetReport, RebalancePolicy};
use pim_sim::KeyDist;
use pim_stm::{MetadataPlacement, StmKind};
use pim_workloads::{RoutingPolicy, ShardedWorkloadConfig};

use crate::design_space::{lower_median_index, repeat_cells, Spread};
use crate::pool::WorkerPool;
use crate::report::{fmt_f64, render_table};

/// DPU counts of the default scaling curve (three points minimum, up to
/// 256 DPUs).
pub const DEFAULT_FLEET_DPUS: [usize; 4] = [4, 16, 64, 256];

/// Zipfian `theta` values of the default skew sweep (`0.0` = uniform).
pub const DEFAULT_SKEW_THETAS: [f64; 4] = [0.0, 0.6, 0.9, 1.2];

/// Keys every DPU owns at `--scale 1.0` (weak scaling: the keyspace grows
/// with the fleet).
const KEYS_PER_DPU_AT_FULL_SCALE: f64 = 1024.0;

/// Keys every DPU owns at `scale`: a fleet of `n` DPUs spans `n` times as
/// many.
pub fn keys_per_dpu(scale: f64) -> u32 {
    (KEYS_PER_DPU_AT_FULL_SCALE * scale).round().max(32.0) as u32
}

/// Transactions dispatched per DPU at `--scale 1.0`.
const TXNS_PER_DPU_AT_FULL_SCALE: f64 = 256.0;

/// Knobs of one `--fleet` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSweepOptions {
    /// STM design every shard runs.
    pub kind: StmKind,
    /// Metadata placement on every shard.
    pub placement: MetadataPlacement,
    /// Cross-shard routing policy.
    pub routing: RoutingPolicy,
    /// Workload scale factor (`--scale`), shrinking the per-DPU work.
    pub scale: f64,
    /// Stream seed (`--seed`).
    pub seed: u64,
    /// Zipfian `theta` values of the skew sweep; empty skips it.
    pub thetas: Vec<f64>,
    /// Rebalance policy every fleet runs under (`--rebalance`).
    pub rebalance: RebalancePolicy,
    /// Double-buffered round pipeline (`--overlap`).
    pub overlap: bool,
    /// Runs per point under consecutive seeds (`--repeat`); the
    /// median-makespan run is kept as the representative.
    pub repeat: usize,
    /// Phases of the skewed stream (`--skew-phases`): with more than one,
    /// the hot region rotates through the keyspace mid-stream, which is
    /// the moving target rebalancing exists to chase.
    pub phases: u32,
}

impl Default for FleetSweepOptions {
    fn default() -> Self {
        FleetSweepOptions {
            kind: StmKind::Norec,
            placement: MetadataPlacement::Mram,
            routing: RoutingPolicy::RouteToOwner,
            scale: 0.25,
            seed: 42,
            thetas: DEFAULT_SKEW_THETAS.to_vec(),
            rebalance: RebalancePolicy::Off,
            overlap: false,
            repeat: 1,
            phases: 1,
        }
    }
}

/// One point of the scaling curve: a full fleet report at one DPU count.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScalingPoint {
    /// DPUs in this fleet.
    pub n_dpus: usize,
    /// The measured fleet report (median-makespan run under `--repeat`).
    pub report: FleetReport,
    /// Makespan spread over the repeats, in seconds; `None` for a single
    /// run.
    pub makespan_spread: Option<Spread>,
    /// Throughput spread over the repeats, in committed tx/s.
    pub throughput_spread: Option<Spread>,
}

/// One point of the skew sweep: the largest fleet under one `theta`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSkewPoint {
    /// Zipfian skew parameter (`0.0` = uniform).
    pub theta: f64,
    /// The measured fleet report (median-makespan run under `--repeat`).
    pub report: FleetReport,
    /// Makespan spread over the repeats, in seconds; `None` for a single
    /// run.
    pub makespan_spread: Option<Spread>,
    /// Throughput spread over the repeats, in committed tx/s.
    pub throughput_spread: Option<Spread>,
    /// The static-partition baseline of the same point, run only when
    /// rebalancing is enabled — the "recovered throughput" reference.
    pub baseline: Option<FleetReport>,
}

impl FleetSkewPoint {
    /// Committed tx/s this point gained over its static baseline
    /// (`None` without a baseline).
    pub(crate) fn recovered_tx_per_sec(&self) -> Option<f64> {
        self.baseline
            .as_ref()
            .map(|b| self.report.throughput_tx_per_sec() - b.throughput_tx_per_sec())
    }

    /// First round whose cumulative throughput overtakes the static
    /// baseline's — the round where the migration paid for itself.
    /// `None` without a baseline or if the adaptive run never catches up.
    pub(crate) fn break_even_round(&self) -> Option<usize> {
        let baseline = self.baseline.as_ref()?;
        let adaptive = self.report.cumulative_throughput_series();
        let static_ = baseline.cumulative_throughput_series();
        adaptive.iter().zip(&static_).position(|(a, s)| a >= s)
    }
}

/// The full `--fleet` sweep: scaling curve plus skew sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSweep {
    /// The knobs this sweep ran with.
    pub options: FleetSweepOptions,
    /// Keys each DPU owns (after scaling).
    pub keys_per_dpu: u32,
    /// Expected transactions per DPU (after scaling).
    pub txns_per_dpu: u32,
    /// Throughput-vs-DPU-count curve, in ascending DPU order.
    pub scaling: Vec<FleetScalingPoint>,
    /// Skew sweep at the curve's largest DPU count, in ascending `theta`
    /// order.
    pub skew: Vec<FleetSkewPoint>,
}

impl FleetSweep {
    /// Runs the scaling curve over `dpus` and the skew sweep at
    /// `dpus.iter().max()`.
    ///
    /// # Panics
    ///
    /// Panics if `dpus` is empty or contains a zero.
    pub fn run(dpus: &[usize], options: FleetSweepOptions) -> Self {
        Self::run_with(dpus, options, &WorkerPool::default())
    }

    /// Runs the sweep on an explicit worker pool (the `--workers` entry
    /// point): every fleet run — each scaling point, each skew point, the
    /// static baselines, every `--repeat` iteration — fans out as one
    /// independent job, and results regroup in enumeration order, so the
    /// sweep is bit-identical for any worker count.
    ///
    /// The pool's thread budget is shared with the shard workers *inside*
    /// each point: every job's [`FleetConfig::with_host_workers`] quota is
    /// [`WorkerPool::inner_budget`], so concurrent points × shard workers
    /// never exceed `pool.workers()` (`host_workers` affects wall-clock
    /// only, never results).
    ///
    /// # Panics
    ///
    /// Panics as [`FleetSweep::run`] does.
    pub fn run_with(dpus: &[usize], options: FleetSweepOptions, pool: &WorkerPool) -> Self {
        assert!(!dpus.is_empty(), "--fleet needs at least one DPU count");
        let keys_per_dpu = keys_per_dpu(options.scale);
        let txns_per_dpu = (TXNS_PER_DPU_AT_FULL_SCALE * options.scale).round().max(16.0) as u32;
        let mut counts = dpus.to_vec();
        counts.sort_unstable();
        counts.dedup();
        let config = |n: usize, dist: KeyDist| {
            let workload =
                ShardedWorkloadConfig::new(keys_per_dpu * n as u32, txns_per_dpu * n as u32)
                    .with_dist(dist)
                    .with_phases(options.phases);
            FleetConfig {
                kind: options.kind,
                placement: options.placement,
                seed: options.seed,
                ..FleetConfig::new(n, workload)
            }
            .with_routing(options.routing)
            .with_rebalance(options.rebalance)
            .with_overlap(options.overlap)
        };
        let repeat = options.repeat.max(1);
        let largest = *counts.last().expect("counts is non-empty");
        // The cells: scaling points, then per-theta adaptive runs and (with
        // rebalancing) their static baselines.
        let mut cells: Vec<FleetConfig> =
            counts.iter().map(|&n| config(n, KeyDist::Uniform)).collect();
        for &theta in &options.thetas {
            let dist = if theta == 0.0 { KeyDist::Uniform } else { KeyDist::Zipf { theta } };
            let adaptive = config(largest, dist);
            cells.push(adaptive);
            if options.rebalance.is_enabled() {
                cells.push(adaptive.with_rebalance(RebalancePolicy::Off));
            }
        }
        // One thread budget: concurrent points × per-point shard workers
        // stays within the pool.
        let host_workers = pool.inner_budget(cells.len() * repeat);
        let runs = repeat_cells(
            &cells,
            repeat,
            pool,
            |cell| cell.seed,
            |cell, seed, _| {
                run(&FleetConfig { seed, ..cells[cell] }.with_host_workers(host_workers))
            },
        );
        // Each cell keeps its lower-median-makespan run, plus the spreads.
        let mut points = runs.into_iter().map(|mut runs| {
            let makespans: Vec<f64> = runs.iter().map(|r| r.makespan_seconds).collect();
            let rates: Vec<f64> = runs.iter().map(FleetReport::throughput_tx_per_sec).collect();
            let report = runs.swap_remove(lower_median_index(&makespans));
            (report, Spread::of(&makespans), Spread::of(&rates))
        });
        let scaling = counts
            .iter()
            .map(|&n_dpus| {
                let (report, makespan_spread, throughput_spread) =
                    points.next().expect("one point per cell");
                FleetScalingPoint { n_dpus, report, makespan_spread, throughput_spread }
            })
            .collect();
        let skew = options
            .thetas
            .iter()
            .map(|&theta| {
                let (report, makespan_spread, throughput_spread) =
                    points.next().expect("one point per cell");
                let baseline =
                    options.rebalance.is_enabled().then(|| points.next().expect("a baseline").0);
                FleetSkewPoint { theta, report, makespan_spread, throughput_spread, baseline }
            })
            .collect();
        FleetSweep { options, keys_per_dpu, txns_per_dpu, scaling, skew }
    }

    /// Whether the sweep carries repeat spreads.
    pub fn has_spread(&self) -> bool {
        self.scaling.iter().any(|p| p.makespan_spread.is_some())
            || self.skew.iter().any(|p| p.makespan_spread.is_some())
    }

    /// The throughput-vs-DPU-count curve with the imbalance summary and
    /// the analytic cross-check column. With `--repeat`, mean ± 95 % CI
    /// spread columns are appended.
    pub fn scaling_table(&self) -> String {
        let mut header: Vec<String> = [
            "DPUs",
            "txns",
            "sub-txns",
            "commits",
            "rejected",
            "rounds",
            "makespan [s]",
            "tx/s",
            "analytic [s]",
            "max/mean commits",
            "cv busy",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if self.has_spread() {
            header.extend(
                ["mean tx/s", "ci95 tx/s", "mean makespan [s]", "ci95 [s]"]
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
        let rows: Vec<Vec<String>> = self
            .scaling
            .iter()
            .map(|p| {
                let r = &p.report;
                let mut row = vec![
                    p.n_dpus.to_string(),
                    r.global_txns.to_string(),
                    r.dispatched_subtxns.to_string(),
                    r.total_commits.to_string(),
                    r.total_rejected.to_string(),
                    r.rounds.len().to_string(),
                    fmt_f64(r.makespan_seconds),
                    fmt_f64(r.throughput_tx_per_sec()),
                    fmt_f64(r.analytic_total_seconds()),
                    fmt_f64(r.imbalance.max_over_mean_commits),
                    fmt_f64(r.imbalance.cv_busy),
                ];
                if self.has_spread() {
                    match p.throughput_spread.zip(p.makespan_spread) {
                        Some((tx, makespan)) => row.extend([
                            fmt_f64(tx.mean),
                            fmt_f64(tx.ci95),
                            fmt_f64(makespan.mean),
                            fmt_f64(makespan.ci95),
                        ]),
                        None => row.extend(["-"; 4].map(String::from)),
                    }
                }
                row
            })
            .collect();
        format!(
            "fleet scaling ({}, {}, {} keys + {} txns per DPU, seed {}{})\n{}",
            self.options.kind.name(),
            self.options.routing,
            self.keys_per_dpu,
            self.txns_per_dpu,
            self.options.seed,
            if self.options.repeat > 1 {
                format!(", repeat {}", self.options.repeat)
            } else {
                String::new()
            },
            render_table(&header, &rows)
        )
    }

    /// The merged fleet execution profile at every DPU count (same schema
    /// as a single-DPU profile table, summed over the fleet).
    pub fn profile_table(&self) -> String {
        let header: Vec<String> = [
            "DPUs",
            "commits",
            "aborts",
            "abort rate",
            "DMA setups",
            "DMA words",
            "total [cyc]",
            "barrier [s]",
            "transfer [s]",
            "host [s]",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let rows: Vec<Vec<String>> = self
            .scaling
            .iter()
            .map(|p| {
                let r = &p.report;
                vec![
                    p.n_dpus.to_string(),
                    r.profile.commits().to_string(),
                    r.profile.aborts().to_string(),
                    fmt_f64(r.profile.abort_rate()),
                    r.profile.dma_setups().to_string(),
                    r.profile.dma_words().to_string(),
                    r.profile.total_time().to_string(),
                    fmt_f64(r.dpu_barrier_seconds()),
                    fmt_f64(r.ledger.total_seconds()),
                    fmt_f64(r.host_seconds()),
                ]
            })
            .collect();
        format!("fleet merged profiles\n{}", render_table(&header, &rows))
    }

    /// The skew sweep at the largest fleet: how zipfian key popularity
    /// concentrates commits and stretches the barrier. With `--rebalance`
    /// each row also shows the static-partition baseline and the
    /// throughput the recut recovered; with `--repeat`, the tx/s
    /// mean ± 95 % CI.
    pub fn skew_table(&self) -> String {
        let n = self.scaling.last().map_or(0, |p| p.n_dpus);
        let rebalancing = self.options.rebalance.is_enabled();
        let mut header: Vec<String> = [
            "theta",
            "commits",
            "rejected",
            "makespan [s]",
            "tx/s",
            "hottest shard",
            "hottest share",
            "max/mean commits",
            "cv commits",
            "cv busy",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if rebalancing {
            header.extend(
                ["rebalances", "migrated keys", "static tx/s", "recovered tx/s", "break-even rnd"]
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
        if self.has_spread() {
            header.extend(["mean tx/s", "ci95 tx/s"].iter().map(|s| s.to_string()));
        }
        let rows: Vec<Vec<String>> =
            self.skew
                .iter()
                .map(|p| {
                    let r = &p.report;
                    let mut row = vec![
                        fmt_f64(p.theta),
                        r.total_commits.to_string(),
                        r.total_rejected.to_string(),
                        fmt_f64(r.makespan_seconds),
                        fmt_f64(r.throughput_tx_per_sec()),
                        r.imbalance.hottest_shard.to_string(),
                        fmt_f64(r.imbalance.hottest_commit_share),
                        fmt_f64(r.imbalance.max_over_mean_commits),
                        fmt_f64(r.imbalance.cv_commits),
                        fmt_f64(r.imbalance.cv_busy),
                    ];
                    if rebalancing {
                        row.push(r.rebalance.rebalances.to_string());
                        row.push(r.rebalance.migrated_keys.to_string());
                        row.push(p.baseline.as_ref().map_or_else(
                            || "-".to_string(),
                            |b| fmt_f64(b.throughput_tx_per_sec()),
                        ));
                        row.push(p.recovered_tx_per_sec().map_or_else(|| "-".to_string(), fmt_f64));
                        row.push(
                            p.break_even_round().map_or_else(|| "-".to_string(), |r| r.to_string()),
                        );
                    }
                    if self.has_spread() {
                        match &p.throughput_spread {
                            Some(tx) => row.extend([fmt_f64(tx.mean), fmt_f64(tx.ci95)]),
                            None => row.extend(["-"; 2].map(String::from)),
                        }
                    }
                    row
                })
                .collect();
        format!("fleet skew sweep ({n} DPUs)\n{}", render_table(&header, &rows))
    }

    /// The pipeline panel: per scaling point, how many rounds overlapped
    /// and how many transfer seconds the double buffering hid vs exposed.
    pub fn pipeline_table(&self) -> String {
        let header: Vec<String> = [
            "DPUs",
            "rounds",
            "overlapped",
            "stalled",
            "hidden [s]",
            "exposed pre [s]",
            "makespan [s]",
            "analytic [s]",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let rows: Vec<Vec<String>> = self
            .scaling
            .iter()
            .map(|p| {
                let r = &p.report;
                vec![
                    p.n_dpus.to_string(),
                    r.rounds.len().to_string(),
                    r.pipeline.overlapped_rounds.to_string(),
                    r.pipeline.stalled_rounds.to_string(),
                    fmt_f64(r.pipeline.hidden_seconds),
                    fmt_f64(r.pipeline.exposed_pre_seconds),
                    fmt_f64(r.makespan_seconds),
                    fmt_f64(r.analytic_total_seconds()),
                ]
            })
            .collect();
        format!("fleet round pipeline (overlap on)\n{}", render_table(&header, &rows))
    }

    /// The rebalance break-even panel: the per-round cumulative
    /// throughput of the most skewed point, adaptive vs static — making
    /// the round where the migration paid for itself visible.
    pub fn rebalance_rounds_table(&self) -> Option<String> {
        let point = self
            .skew
            .iter()
            .filter(|p| p.baseline.is_some())
            .max_by(|a, b| a.theta.partial_cmp(&b.theta).expect("thetas are finite"))?;
        let baseline = point.baseline.as_ref()?;
        let adaptive = point.report.cumulative_throughput_series();
        let static_ = baseline.cumulative_throughput_series();
        let header: Vec<String> = ["round", "migrated keys", "adaptive tx/s", "static tx/s"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = adaptive
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                vec![
                    i.to_string(),
                    point.report.rounds[i].migrated_keys.to_string(),
                    fmt_f64(a),
                    static_.get(i).map_or_else(|| "-".to_string(), |&s| fmt_f64(s)),
                ]
            })
            .collect();
        Some(format!(
            "rebalance break-even at theta {} ({} migrations, {} keys, {} bytes; break-even round {})\n{}",
            point.theta,
            point.report.rebalance.rebalances,
            point.report.rebalance.migrated_keys,
            point.report.rebalance.migration_bytes,
            point.break_even_round().map_or_else(|| "-".to_string(), |r| r.to_string()),
            render_table(&header, &rows)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> FleetSweepOptions {
        FleetSweepOptions { scale: 0.05, thetas: vec![0.0, 1.2], ..FleetSweepOptions::default() }
    }

    #[test]
    fn weak_scaling_grows_throughput_with_the_fleet() {
        let sweep = FleetSweep::run(&[2, 8], tiny_options());
        assert_eq!(sweep.scaling.len(), 2);
        let small = &sweep.scaling[0].report;
        let large = &sweep.scaling[1].report;
        // Weak scaling: four times the DPUs, four times the stream.
        assert_eq!(large.global_txns, 4 * small.global_txns);
        assert!(
            large.throughput_tx_per_sec() > small.throughput_tx_per_sec(),
            "more DPUs must commit more per modeled second ({} vs {})",
            large.throughput_tx_per_sec(),
            small.throughput_tx_per_sec()
        );
    }

    #[test]
    fn skew_points_run_at_the_largest_fleet() {
        let sweep = FleetSweep::run(&[8, 2], tiny_options());
        assert_eq!(sweep.skew.len(), 2);
        for point in &sweep.skew {
            assert_eq!(point.report.n_dpus, 8, "skew sweeps the largest count");
        }
        let uniform = &sweep.skew[0].report;
        let skewed = &sweep.skew[1].report;
        assert!(skewed.imbalance.cv_commits > uniform.imbalance.cv_commits);
    }

    /// The `--workers` acceptance check for the fleet: the whole sweep
    /// — scaling points, skew points, repeats — is equal report for report
    /// under any worker count, even though the inner per-shard host-worker
    /// quota differs between the two pools.
    #[test]
    fn fleet_sweeps_are_bit_identical_for_any_worker_count() {
        let options = FleetSweepOptions { repeat: 2, ..tiny_options() };
        let serial = FleetSweep::run_with(&[2, 4], options.clone(), &WorkerPool::serial());
        let wide = FleetSweep::run_with(&[2, 4], options, &WorkerPool::new(8));
        assert_eq!(serial, wide, "worker count must never change a measured fleet number");
    }

    /// The oversubscription regression: a fleet point running as one of
    /// the pool's jobs must get a shard-worker quota that keeps
    /// `concurrent points × shard workers ≤ pool budget` — the arithmetic
    /// `run_with` applies, pinned here against every awkward shape,
    /// including the quota's pass-through into [`pim_fleet`]'s resolver.
    #[test]
    fn fleet_points_under_the_pool_never_oversubscribe_the_budget() {
        for (workers, jobs) in [(8, 3), (8, 16), (4, 1), (1, 5), (6, 4), (16, 2)] {
            let pool = WorkerPool::new(workers);
            let inner = pool.inner_budget(jobs);
            assert!(inner >= 1, "every point gets at least one shard worker");
            let concurrent = pool.workers().min(jobs);
            assert!(
                concurrent * inner <= pool.workers(),
                "{workers} workers × {jobs} jobs: {concurrent} concurrent points × \
                 {inner} shard workers would oversubscribe"
            );
            // The quota reaches the fleet runtime verbatim — an explicit
            // (non-zero) host_workers is never re-widened to all cores.
            assert_eq!(pim_fleet::resolve_host_workers(inner), inner);
        }
        // The unpooled default stays "all cores".
        assert!(pim_fleet::resolve_host_workers(0) >= 1);
    }

    #[test]
    fn tables_render_every_point() {
        let sweep = FleetSweep::run(&[2, 4], tiny_options());
        let scaling = sweep.scaling_table();
        assert!(scaling.contains("fleet scaling"));
        assert!(scaling.contains("analytic [s]"));
        let profile = sweep.profile_table();
        assert!(profile.contains("DMA setups"));
        let skew = sweep.skew_table();
        assert!(skew.contains("hottest share"));
        assert!(skew.contains("4 DPUs"));
    }

    #[test]
    #[should_panic(expected = "at least one DPU count")]
    fn an_empty_curve_is_rejected() {
        FleetSweep::run(&[], tiny_options());
    }

    #[test]
    fn repeat_produces_spread_columns_and_a_median_representative() {
        let sweep = FleetSweep::run(&[2], FleetSweepOptions { repeat: 3, ..tiny_options() });
        assert!(sweep.has_spread());
        let point = &sweep.scaling[0];
        let spread = point.makespan_spread.expect("repeat > 1 must carry a spread");
        assert_eq!(spread.runs, 3);
        assert!(spread.min <= spread.mean);
        assert!(spread.mean <= spread.max);
        assert!(spread.ci95 >= 0.0);
        // The representative is one of the actual runs (its makespan lies
        // inside the spread).
        assert!(point.report.makespan_seconds >= spread.min);
        assert!(point.report.makespan_seconds <= spread.max);
        assert!(sweep.scaling_table().contains("ci95 tx/s"));
        assert!(sweep.skew_table().contains("mean tx/s"));
        // A single-run sweep has no spread and no spread columns.
        let single = FleetSweep::run(&[2], tiny_options());
        assert!(!single.has_spread());
        assert!(single.scaling[0].makespan_spread.is_none());
        assert!(!single.scaling_table().contains("ci95"));
    }

    #[test]
    fn rebalancing_skew_points_carry_a_baseline_and_recovery() {
        let sweep = FleetSweep::run(
            &[8],
            FleetSweepOptions {
                rebalance: RebalancePolicy::Threshold { max_over_mean: 1.25 },
                ..tiny_options()
            },
        );
        let skewed = sweep.skew.last().expect("theta 1.2 point");
        let baseline = skewed.baseline.as_ref().expect("rebalance points run a static baseline");
        assert_eq!(baseline.rebalance.rebalances, 0);
        assert!(skewed.report.rebalance.rebalances > 0);
        assert_eq!(skewed.report.fingerprint, baseline.fingerprint, "same results either way");
        assert!(
            skewed.recovered_tx_per_sec().expect("baseline present") > 0.0,
            "recut must beat the static partition under skew"
        );
        assert!(sweep.skew_table().contains("recovered tx/s"));
        let rounds = sweep.rebalance_rounds_table().expect("baseline present");
        assert!(rounds.contains("break-even"));
        // Without rebalancing there is no baseline and no rounds panel.
        let plain = FleetSweep::run(&[2], tiny_options());
        assert!(plain.skew.iter().all(|p| p.baseline.is_none()));
        assert!(plain.rebalance_rounds_table().is_none());
        assert!(!plain.skew_table().contains("recovered"));
    }

    #[test]
    fn overlap_fills_the_pipeline_panel() {
        let sweep = FleetSweep::run(&[4], FleetSweepOptions { overlap: true, ..tiny_options() });
        let report = &sweep.scaling[0].report;
        assert!(report.pipeline.enabled);
        assert!(report.pipeline.hidden_seconds > 0.0);
        let panel = sweep.pipeline_table();
        assert!(panel.contains("hidden [s]"));
        assert!(panel.contains("overlapped"));
    }

    #[test]
    fn phased_streams_move_the_hot_shard() {
        let options = FleetSweepOptions { thetas: vec![1.2], ..tiny_options() };
        let stationary = FleetSweep::run(&[8], options.clone());
        let phased = FleetSweep::run(&[8], FleetSweepOptions { phases: 2, ..options });
        // Phase 1 rotates the zipf head to mid-keyspace, so the commit
        // mass no longer concentrates on shard 0 alone.
        assert_eq!(stationary.skew[0].report.imbalance.hottest_shard, 0);
        assert!(
            phased.skew[0].report.imbalance.hottest_commit_share
                < stationary.skew[0].report.imbalance.hottest_commit_share,
            "rotating the hot region must spread commits over more shards"
        );
    }
}
