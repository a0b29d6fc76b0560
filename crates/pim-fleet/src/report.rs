//! The fleet-level report: merged execution profiles, per-shard load
//! statistics, per-round accounting, and the analytic cross-check hook.
//!
//! A fleet run produces one [`FleetReport`]. Its relationship to the
//! single-DPU instrumentation is strictly compositional:
//!
//! * every shard DPU's tasklets produce ordinary cycle-domain
//!   [`ExecProfile`]s, exactly as a single-DPU run would;
//! * the shard accumulates them across rounds, and the fleet merges the
//!   shard accumulators with [`ExecProfile::merged`] — so
//!   [`FleetReport::profile`] has the same schema (abort histogram keyed by
//!   `AbortReason`, per-phase cycles, DMA setup/word counters) as any
//!   single-DPU profile, just summed over the whole fleet;
//! * what a merged profile *cannot* express — which shard did the work —
//!   lives in [`ShardStats`] and the derived [`Imbalance`] summary.
//!
//! [`FleetReport::analytic_plan`] rebuilds the measured run as a
//! [`MultiDpuPlan`], the analytic model `pim-exp --fig7` uses, from the
//! per-round stats. See the method docs for the exact (small, documented)
//! divergence between the two accountings — the cross-check regression
//! test in the repository root pins it.

use pim_sim::{MultiDpuPlan, RoundPlan};
use pim_stm::ExecProfile;
use pim_workloads::RoutingPolicy;

use crate::host::TransferLedger;
use crate::rebalance::RebalancePolicy;

/// Per-shard totals over a whole fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStats {
    /// Shard (= DPU) index.
    pub shard: u32,
    /// Global keys this shard owns.
    pub keys: u32,
    /// Sub-transactions dispatched to this shard (probes included).
    pub dispatched: u64,
    /// Transactions this shard committed.
    pub commits: u64,
    /// Aborted attempts (probe rejections included).
    pub aborts: u64,
    /// Probe transactions rejected back to the host
    /// (`AbortReason::Explicit`).
    pub rejected: u64,
    /// Cycles this shard's DPU spent across all its rounds.
    pub busy_cycles: u64,
}

/// Per-round accounting: what was dispatched and where the time went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: usize,
    /// Sub-transactions dispatched this round (probes included).
    pub dispatched_subtxns: u64,
    /// Shards that received work this round.
    pub active_shards: u64,
    /// Commits this round, fleet-wide.
    pub commits: u64,
    /// Probe rejections this round, fleet-wide.
    pub rejected: u64,
    /// Seconds in the round-descriptor broadcast.
    pub broadcast_seconds: f64,
    /// Seconds scattering transaction descriptors to the shards.
    pub scatter_seconds: f64,
    /// Slowest shard's DPU compute this round, in seconds — the barrier
    /// waits for it.
    pub dpu_seconds: f64,
    /// Mean DPU compute over the *active* shards this round, in seconds.
    pub dpu_mean_seconds: f64,
    /// Seconds gathering per-shard result summaries.
    pub gather_seconds: f64,
    /// Modeled host routing seconds this round (pre-barrier work).
    pub host_route_seconds: f64,
    /// Modeled host merge seconds this round (post-barrier work).
    pub host_merge_seconds: f64,
    /// Bytes attributable to this round, host→DPUs. Broadcast + scatter,
    /// plus — when the *previous* round boundary migrated keys — the
    /// migration's scatter bytes (the recut state arrives with this
    /// round's inputs, so the analytic plan charges it here).
    pub bytes_to_dpus: u64,
    /// Bytes attributable to this round, DPUs→host. Gather, plus the
    /// migration gather bytes when this round's boundary migrated keys.
    pub bytes_from_dpus: u64,
    /// Keys whose owner changed at this round's trailing boundary.
    pub migrated_keys: u64,
    /// Seconds spent migrating those keys (gather + scatter of 8 bytes
    /// per key each way), charged at this round's trailing boundary.
    pub migration_seconds: f64,
    /// True when the pipeline overlapped this round's pre-work with the
    /// previous round's compute (never true for round 0, for a round
    /// consuming deferred cross-shard work, or directly after a
    /// migration).
    pub overlapped: bool,
    /// Pre-work seconds the pipeline hid behind the previous round's
    /// compute: `min(pre_seconds, previous dpu_seconds)` when
    /// [`RoundStats::overlapped`], else 0.
    pub hidden_seconds: f64,
}

impl RoundStats {
    /// Pre-barrier seconds: the work the host does *before* this round's
    /// shards can start (descriptor broadcast + payload scatter + host
    /// routing). This is exactly the portion the pipeline may overlap
    /// with the previous round's compute.
    pub fn pre_seconds(&self) -> f64 {
        self.broadcast_seconds + self.scatter_seconds + self.host_route_seconds
    }

    /// Post-barrier seconds: result gather + host merge + any migration
    /// at this round's trailing boundary. Never hideable — it depends on
    /// this round's own outputs.
    pub(crate) fn post_seconds(&self) -> f64 {
        self.gather_seconds + self.host_merge_seconds + self.migration_seconds
    }

    /// Modeled host CPU seconds (routing + merge) this round.
    pub fn host_seconds(&self) -> f64 {
        self.host_route_seconds + self.host_merge_seconds
    }

    /// End-to-end serial seconds of this round: transfers + the DPU
    /// barrier + host work + migration, with no pipeline credit.
    pub fn total_seconds(&self) -> f64 {
        self.pre_seconds() + self.dpu_seconds + self.post_seconds()
    }

    /// Seconds this round contributes to the pipelined makespan:
    /// [`RoundStats::total_seconds`] minus the pre-work hidden behind the
    /// previous round's compute.
    pub fn pipelined_seconds(&self) -> f64 {
        self.total_seconds() - self.hidden_seconds
    }
}

/// What the double-buffered round pipeline achieved over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Whether pipelining was enabled for the run.
    pub enabled: bool,
    /// Rounds whose pre-work overlapped the previous round's compute.
    pub overlapped_rounds: u64,
    /// Rounds that paid their pre-work on the critical path (round 0,
    /// rounds consuming deferred cross-shard work, rounds directly after
    /// a migration — and every round when the pipeline is off).
    pub stalled_rounds: u64,
    /// Pre-work seconds hidden behind compute, summed over all rounds.
    pub hidden_seconds: f64,
    /// Pre-work seconds that stayed on the critical path
    /// (`Σ pre_seconds − hidden_seconds`).
    pub exposed_pre_seconds: f64,
}

/// What skew-adaptive rebalancing did and what it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RebalanceStats {
    /// The policy the run used.
    pub policy: RebalancePolicy,
    /// Boundary recuts that actually migrated keys.
    pub rebalances: u64,
    /// Keys whose owner changed, summed over all recuts.
    pub migrated_keys: u64,
    /// Bytes the migrations moved through the transfer ledger
    /// (8 per moved key in each direction: gather old owner → host,
    /// scatter host → new owner).
    pub migration_bytes: u64,
    /// Modeled seconds those migrations cost.
    pub migration_seconds: f64,
}

/// Load/commit imbalance across the shards of one fleet run.
///
/// `max/mean` ratios answer "how much slower is the hottest shard than the
/// average" (1.0 = perfectly balanced); the coefficient of variation
/// (stddev/mean) summarises the whole distribution. Both are computed over
/// **all** shards — an idle shard is imbalance, not a statistical nuisance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Imbalance {
    /// Hottest shard by committed transactions.
    pub hottest_shard: u32,
    /// Fraction of all commits the hottest shard performed.
    pub hottest_commit_share: f64,
    /// Max-over-mean of per-shard commits (1.0 = balanced).
    pub max_over_mean_commits: f64,
    /// Coefficient of variation of per-shard commits.
    pub cv_commits: f64,
    /// Max-over-mean of per-shard busy cycles.
    pub max_over_mean_busy: f64,
    /// Coefficient of variation of per-shard busy cycles.
    pub cv_busy: f64,
}

impl Imbalance {
    /// The all-zero summary: what a run with no commits reports. Every
    /// field is 0 — including the ratios, which would otherwise be a
    /// 0/0 division dressed up as "balanced".
    pub fn zero() -> Self {
        Imbalance {
            hottest_shard: 0,
            hottest_commit_share: 0.0,
            max_over_mean_commits: 0.0,
            cv_commits: 0.0,
            max_over_mean_busy: 0.0,
            cv_busy: 0.0,
        }
    }

    /// Computes the summary from per-shard totals.
    ///
    /// A fleet where **no shard commits** (an empty shard list, or an
    /// all-reject round stream) has no load signal to summarise: the
    /// result is [`Imbalance::zero`] rather than a fabricated ratio.
    pub(crate) fn from_shards(shards: &[ShardStats]) -> Self {
        let total_commits: u64 = shards.iter().map(|s| s.commits).sum();
        if total_commits == 0 {
            return Imbalance::zero();
        }
        fn spread(values: impl Iterator<Item = u64> + Clone) -> (f64, f64) {
            let n = values.clone().count().max(1) as f64;
            let mean = values.clone().sum::<u64>() as f64 / n;
            let max = values.clone().max().unwrap_or(0) as f64;
            if mean == 0.0 {
                return (0.0, 0.0);
            }
            let var = values.map(|v| (v as f64 - mean).powi(2)).sum::<f64>() / n;
            (max / mean, var.sqrt() / mean)
        }
        let (max_over_mean_commits, cv_commits) = spread(shards.iter().map(|s| s.commits));
        let (max_over_mean_busy, cv_busy) = spread(shards.iter().map(|s| s.busy_cycles));
        let hottest = shards.iter().max_by_key(|s| s.commits).map(|s| s.shard).unwrap_or(0);
        let hottest_commits = shards.iter().map(|s| s.commits).max().unwrap_or(0);
        Imbalance {
            hottest_shard: hottest,
            hottest_commit_share: hottest_commits as f64 / total_commits as f64,
            max_over_mean_commits,
            cv_commits,
            max_over_mean_busy,
            cv_busy,
        }
    }
}

/// Everything one fleet run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// DPUs (= shards) in the fleet.
    pub n_dpus: usize,
    /// Tasklets per shard DPU.
    pub tasklets: usize,
    /// Cross-shard routing policy the dispatcher used.
    pub routing: RoutingPolicy,
    /// Transactions in the global stream.
    pub global_txns: u64,
    /// Sub-transactions dispatched in total (probes and re-dispatches
    /// included — under abort-and-retry this exceeds the commit count).
    pub dispatched_subtxns: u64,
    /// Committed transactions, fleet-wide.
    pub total_commits: u64,
    /// Aborted attempts, fleet-wide (probe rejections included).
    pub total_aborts: u64,
    /// Probe transactions rejected back to the host.
    pub total_rejected: u64,
    /// Sum of all shard counters after the run — each committed
    /// sub-transaction contributes its update count, so conservation is
    /// checkable against the stream.
    pub total_increments: u64,
    /// FNV-1a fingerprint of the global counter array in key order —
    /// partition-invariant for this commutative workload.
    pub fingerprint: u64,
    /// Per-round accounting, in dispatch order.
    pub rounds: Vec<RoundStats>,
    /// Per-shard totals.
    pub shards: Vec<ShardStats>,
    /// Load/commit imbalance summary over [`FleetReport::shards`].
    pub imbalance: Imbalance,
    /// All per-tasklet profiles of every shard, merged (cycle domain) —
    /// same schema as a single-DPU run's merged profile.
    pub profile: ExecProfile,
    /// Per-primitive transfer accounting.
    pub ledger: TransferLedger,
    /// What the double-buffered round pipeline hid (all-zero when off).
    pub pipeline: PipelineStats,
    /// What skew-adaptive rebalancing did and cost (all-zero when off).
    pub rebalance: RebalanceStats,
    /// End-to-end modeled seconds: every round's
    /// [`RoundStats::pipelined_seconds`], summed. With the pipeline off
    /// this is the plain serial sum of round totals.
    pub makespan_seconds: f64,
}

impl FleetReport {
    /// Committed transactions per modeled second.
    pub fn throughput_tx_per_sec(&self) -> f64 {
        if self.makespan_seconds == 0.0 {
            0.0
        } else {
            self.total_commits as f64 / self.makespan_seconds
        }
    }

    /// Seconds the DPU barrier contributed across all rounds (the slowest
    /// shard of each round).
    pub fn dpu_barrier_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.dpu_seconds).sum()
    }

    /// Modeled host CPU seconds across all rounds.
    pub fn host_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.host_seconds()).sum()
    }

    /// Per-round throughput series: committed transactions per pipelined
    /// second, round by round. This is what makes a rebalance break-even
    /// visible — the rounds before a recut run at the skewed rate, the
    /// migration round absorbs the transfer cost, and later rounds run at
    /// the recovered rate.
    pub fn round_throughput_series(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| {
                let s = r.pipelined_seconds();
                if s == 0.0 {
                    0.0
                } else {
                    r.commits as f64 / s
                }
            })
            .collect()
    }

    /// Cumulative throughput after each round: commits so far over
    /// pipelined seconds so far. The rebalance break-even round is the
    /// first index where this series overtakes the static baseline's.
    pub fn cumulative_throughput_series(&self) -> Vec<f64> {
        let mut commits = 0u64;
        let mut seconds = 0.0f64;
        self.rounds
            .iter()
            .map(|r| {
                commits += r.commits;
                seconds += r.pipelined_seconds();
                if seconds == 0.0 {
                    0.0
                } else {
                    commits as f64 / seconds
                }
            })
            .collect()
    }

    /// Rebuilds this run as an analytic [`MultiDpuPlan`] — one
    /// [`RoundPlan`] per measured round, with the measured per-round DPU
    /// barrier time as the round's compute time, the measured byte counts
    /// (migration bytes folded in, as documented on
    /// [`RoundStats::bytes_to_dpus`]) as its transfer sizes, and the
    /// round's overlap eligibility as [`RoundPlan::overlappable`].
    ///
    /// The plan's accounting differs from the fleet's in exactly one way:
    /// bulk-operation *count*. The fleet issues **two** host→DPU bulk
    /// operations per round (broadcast + scatter) where the plan charges
    /// one combined transfer, and each migration issues two more (its
    /// gather + scatter) whose bytes the plan folds into adjacent rounds.
    /// The plan is therefore cheaper by exactly
    /// `(rounds + 2 · rebalances) ×`
    /// [`pim_sim::CpuTransferModel::bulk_overhead_s`] in the serial case;
    /// with the pipeline on, part of that gap may itself be hidden, so the
    /// cross-check pins `0 ≤ makespan − analytic ≤` the same bound.
    pub fn analytic_plan(&self) -> MultiDpuPlan {
        let mut plan = MultiDpuPlan::new(self.n_dpus);
        for round in &self.rounds {
            plan.push_round(RoundPlan {
                dpu_compute_seconds: round.dpu_seconds,
                bytes_to_dpus: round.bytes_to_dpus,
                bytes_from_dpus: round.bytes_from_dpus,
                cpu_route_seconds: round.host_route_seconds,
                cpu_merge_seconds: round.host_merge_seconds,
                overlappable: round.overlapped,
            });
        }
        plan
    }

    /// Executes [`FleetReport::analytic_plan`] against this run's own
    /// transfer model — pipelined when this run pipelined — and returns
    /// its end-to-end seconds. See [`FleetReport::analytic_plan`] for the
    /// exact divergence from [`FleetReport::makespan_seconds`].
    pub fn analytic_total_seconds(&self) -> f64 {
        let plan = self.analytic_plan();
        let model = self.ledger.transfer_model();
        if self.pipeline.enabled {
            plan.execute_pipelined(model).total_seconds()
        } else {
            plan.execute(model).total_seconds()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(shard: u32, commits: u64, busy: u64) -> ShardStats {
        ShardStats {
            shard,
            keys: 10,
            dispatched: commits,
            commits,
            aborts: 0,
            rejected: 0,
            busy_cycles: busy,
        }
    }

    #[test]
    fn balanced_shards_have_unit_ratios() {
        let shards = [shard(0, 50, 1000), shard(1, 50, 1000)];
        let imb = Imbalance::from_shards(&shards);
        assert!((imb.max_over_mean_commits - 1.0).abs() < 1e-12);
        assert!(imb.cv_commits.abs() < 1e-12);
        assert!((imb.hottest_commit_share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn skewed_shards_show_up_in_every_statistic() {
        let shards = [shard(0, 90, 9000), shard(1, 10, 1000)];
        let imb = Imbalance::from_shards(&shards);
        assert_eq!(imb.hottest_shard, 0);
        assert!((imb.max_over_mean_commits - 1.8).abs() < 1e-12);
        assert!(imb.cv_commits > 0.5);
        assert!(imb.max_over_mean_busy > 1.5);
        assert!((imb.hottest_commit_share - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_fleet_degenerates_gracefully() {
        let imb = Imbalance::from_shards(&[]);
        assert_eq!(imb, Imbalance::zero());
        assert_eq!(imb.max_over_mean_commits, 0.0);
        assert_eq!(imb.cv_commits, 0.0);
        assert_eq!(imb.hottest_commit_share, 0.0);
    }

    #[test]
    fn commitless_fleet_reports_zero_imbalance() {
        // An all-reject round stream: shards were busy but nothing
        // committed. No load signal → the zero summary, not a 0/0 ratio.
        let shards = [
            ShardStats {
                shard: 0,
                keys: 10,
                dispatched: 40,
                commits: 0,
                aborts: 40,
                rejected: 40,
                busy_cycles: 5000,
            },
            ShardStats {
                shard: 1,
                keys: 10,
                dispatched: 10,
                commits: 0,
                aborts: 10,
                rejected: 10,
                busy_cycles: 800,
            },
        ];
        assert_eq!(Imbalance::from_shards(&shards), Imbalance::zero());
    }

    fn round(round: usize, commits: u64, dpu: f64, hidden: f64) -> RoundStats {
        RoundStats {
            round,
            dispatched_subtxns: commits,
            active_shards: 2,
            commits,
            rejected: 0,
            broadcast_seconds: 0.001,
            scatter_seconds: 0.004,
            dpu_seconds: dpu,
            dpu_mean_seconds: dpu,
            gather_seconds: 0.002,
            host_route_seconds: 0.003,
            host_merge_seconds: 0.001,
            bytes_to_dpus: 100,
            bytes_from_dpus: 64,
            migrated_keys: 0,
            migration_seconds: 0.0,
            overlapped: hidden > 0.0,
            hidden_seconds: hidden,
        }
    }

    #[test]
    fn round_stats_split_pre_and_post_work() {
        let r = round(1, 10, 0.5, 0.008);
        assert!((r.pre_seconds() - 0.008).abs() < 1e-15);
        assert!((r.post_seconds() - 0.003).abs() < 1e-15);
        assert!((r.host_seconds() - 0.004).abs() < 1e-15);
        assert!((r.total_seconds() - (0.008 + 0.5 + 0.003)).abs() < 1e-15);
        // Fully hidden pre-work leaves compute + post on the critical path.
        assert!((r.pipelined_seconds() - (0.5 + 0.003)).abs() < 1e-15);
    }

    #[test]
    fn throughput_series_expose_the_per_round_rate() {
        let rounds = vec![round(0, 10, 1.0, 0.0), round(1, 30, 1.0, 0.008)];
        let report = FleetReport {
            n_dpus: 2,
            tasklets: 1,
            routing: RoutingPolicy::AbortAndRetry,
            global_txns: 40,
            dispatched_subtxns: 40,
            total_commits: 40,
            total_aborts: 0,
            total_rejected: 0,
            total_increments: 40,
            fingerprint: 0,
            rounds,
            shards: Vec::new(),
            imbalance: Imbalance::zero(),
            profile: ExecProfile::new(pim_stm::profile::TimeDomain::Cycles),
            ledger: TransferLedger::new(pim_sim::CpuTransferModel::default()),
            pipeline: PipelineStats::default(),
            rebalance: RebalanceStats::default(),
            makespan_seconds: 2.0,
        };
        let per_round = report.round_throughput_series();
        assert_eq!(per_round.len(), 2);
        assert!((per_round[0] - 10.0 / report.rounds[0].pipelined_seconds()).abs() < 1e-9);
        assert!(per_round[1] > per_round[0], "round 1 commits more in less time");
        let cumulative = report.cumulative_throughput_series();
        let total: f64 = report.rounds.iter().map(|r| r.pipelined_seconds()).sum();
        assert!((cumulative[1] - 40.0 / total).abs() < 1e-9);
        assert!(cumulative[1] > cumulative[0]);
    }
}
