//! Regression tests pinning the measured fleet runtime (`pim-fleet`) to
//! the analytic multi-DPU model (`pim_sim::MultiDpuPlan`) and to the
//! conservation laws of its sharded workload:
//!
//! * the analytic plan rebuilt from a fleet run's per-round stats agrees
//!   with the measured makespan to the **documented** tolerance — the
//!   fleet issues two host→DPU bulk operations per round (broadcast +
//!   scatter) where the plan charges one, and two extra bulk operations
//!   per rebalance (migration gather + scatter) whose bytes the plan
//!   folds into the adjacent rounds, so the plan is cheaper by exactly
//!   `(rounds + 2·rebalances) · bulk_overhead_s`, and nothing else;
//! * with `overlap` on, every round's cost follows the documented
//!   pipelined formula — `hidden_k = min(pre_k, compute_{k-1})` for
//!   eligible rounds, makespan = Σ (total_k − hidden_k) — bit-identical
//!   for any `host_workers`;
//! * skew-adaptive rebalancing on a 64-DPU fleet at θ=0.99 strictly
//!   improves throughput over the static partition while conserving the
//!   final state, and its migration traffic flows through the transfer
//!   ledger byte-for-byte;
//! * counter increments are conserved against the generated stream, for
//!   any shard count and both routing policies;
//! * the final-state fingerprint is partition-invariant: one shard or
//!   sixteen, route-to-owner or abort-and-retry, static or rebalanced,
//!   the merged global state is the same.

use pim_stm_suite::fleet::{run, FleetConfig, FleetReport, RebalancePolicy};
use pim_stm_suite::sim::KeyDist;
use pim_stm_suite::workloads::{RoutingPolicy, ShardedWorkloadConfig};

fn workload() -> ShardedWorkloadConfig {
    ShardedWorkloadConfig::new(512, 160)
}

fn fleet(n_dpus: usize) -> FleetReport {
    run(&FleetConfig::new(n_dpus, workload()))
}

/// The documented serial divergence between the measured makespan and the
/// analytic plan: one extra bulk overhead per round plus two per rebalance.
fn documented_slack(report: &FleetReport) -> f64 {
    let overhead = report.ledger.transfer_model().bulk_overhead_s;
    (report.rounds.len() as u64 + 2 * report.rebalance.rebalances) as f64 * overhead
}

#[test]
fn analytic_plan_agrees_to_the_documented_tolerance() {
    for n in [1, 4, 16] {
        let report = fleet(n);
        let expected = report.makespan_seconds - documented_slack(&report);
        let analytic = report.analytic_total_seconds();
        assert!(
            (analytic - expected).abs() < 1e-12,
            "{n} DPUs: analytic {analytic} vs expected {expected}"
        );
        // Sanity: the divergence is small relative to the whole run.
        assert!(analytic <= report.makespan_seconds);
        assert!(analytic > 0.5 * report.makespan_seconds);
    }
    // With rebalancing the migration transfers add exactly two bulk
    // overheads per recut — still an equality, not a widened tolerance.
    let skewed = ShardedWorkloadConfig::new(512, 160).with_dist(KeyDist::Zipf { theta: 1.2 });
    let report = run(&FleetConfig::new(8, skewed)
        .with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.25 }));
    assert!(report.rebalance.rebalances > 0, "the skewed run must actually recut");
    let expected = report.makespan_seconds - documented_slack(&report);
    let analytic = report.analytic_total_seconds();
    assert!(
        (analytic - expected).abs() < 1e-12,
        "rebalanced: analytic {analytic} vs expected {expected}"
    );
}

#[test]
fn analytic_rounds_mirror_the_measured_rounds() {
    let report = fleet(8);
    let plan = report.analytic_plan();
    assert_eq!(plan.rounds.len(), report.rounds.len());
    for (analytic, measured) in plan.rounds.iter().zip(&report.rounds) {
        // The DPU barrier, byte counts and modeled host route/merge
        // transfer verbatim into the plan.
        assert!((analytic.dpu_compute_seconds - measured.dpu_seconds).abs() < 1e-15);
        assert!((analytic.cpu_route_seconds - measured.host_route_seconds).abs() < 1e-15);
        assert!((analytic.cpu_merge_seconds - measured.host_merge_seconds).abs() < 1e-15);
        assert_eq!(analytic.bytes_to_dpus, measured.bytes_to_dpus);
        assert_eq!(analytic.bytes_from_dpus, measured.bytes_from_dpus);
    }
    let executed = plan.execute(report.ledger.transfer_model());
    assert_eq!(executed.rounds, report.rounds.len());
}

#[test]
fn pipelined_rounds_follow_the_documented_formula() {
    let base = FleetConfig::new(8, workload());
    let serial = run(&base);
    let overlapped = run(&base.with_overlap(true));
    // Overlap changes only the cost accounting, never the results.
    assert_eq!(serial.fingerprint, overlapped.fingerprint);
    assert_eq!(serial.total_commits, overlapped.total_commits);

    // The pinned formula: round 0 never overlaps; with route-to-owner and
    // no migrations every later round does, hiding min(pre_k, compute_{k-1}).
    let mut makespan = 0.0;
    let mut prev_compute = 0.0;
    for (k, round) in overlapped.rounds.iter().enumerate() {
        let expected_hidden = if k > 0 { round.pre_seconds().min(prev_compute) } else { 0.0 };
        assert_eq!(round.overlapped, k > 0, "round {k}");
        assert!(
            (round.hidden_seconds - expected_hidden).abs() < 1e-15,
            "round {k}: hidden {} vs min(pre, prev compute) {expected_hidden}",
            round.hidden_seconds
        );
        assert!(
            (round.pipelined_seconds() - (round.total_seconds() - round.hidden_seconds)).abs()
                < 1e-15
        );
        makespan += round.pipelined_seconds();
        prev_compute = round.dpu_seconds;
    }
    assert!(
        (makespan - overlapped.makespan_seconds).abs() < 1e-12,
        "makespan must be the sum of pipelined round costs"
    );

    // The panel aggregates fold from the same per-round numbers.
    let hidden: f64 = overlapped.rounds.iter().map(|r| r.hidden_seconds).sum();
    assert!(hidden > 0.0, "some transfer time must actually hide");
    assert!((overlapped.pipeline.hidden_seconds - hidden).abs() < 1e-15);
    assert_eq!(overlapped.pipeline.overlapped_rounds as usize, overlapped.rounds.len() - 1);
    assert_eq!(overlapped.pipeline.stalled_rounds, 1);
    assert!(
        (serial.makespan_seconds - overlapped.makespan_seconds - hidden).abs() < 1e-12,
        "overlap must save exactly the hidden seconds"
    );

    // The pipelined analytic model brackets the measured makespan by the
    // same documented slack as the serial one.
    let analytic = overlapped.analytic_total_seconds();
    let slack = documented_slack(&overlapped);
    assert!(analytic <= overlapped.makespan_seconds + 1e-15);
    assert!(overlapped.makespan_seconds - analytic <= slack + 1e-15);

    // And the accounting is bit-identical for any host worker count.
    let one = run(&FleetConfig { host_workers: 1, ..base.with_overlap(true) });
    let four = run(&FleetConfig { host_workers: 4, ..base.with_overlap(true) });
    assert_eq!(one.fingerprint, four.fingerprint);
    assert_eq!(one.makespan_seconds.to_bits(), four.makespan_seconds.to_bits());
    assert_eq!(one.pipeline.hidden_seconds.to_bits(), four.pipeline.hidden_seconds.to_bits());
}

#[test]
fn rebalancing_recovers_throughput_on_a_skewed_64_dpu_fleet() {
    let skewed = ShardedWorkloadConfig::new(4096, 512).with_dist(KeyDist::Zipf { theta: 0.99 });
    let static_config = FleetConfig::new(64, skewed);
    let adaptive_config =
        static_config.with_rebalance(RebalancePolicy::Threshold { max_over_mean: 1.25 });
    let fixed = run(&static_config);
    let adaptive = run(&adaptive_config);

    // Rebalancing pays for its migrations: strictly higher throughput.
    assert!(adaptive.rebalance.rebalances > 0, "θ=0.99 must trip the threshold");
    assert!(adaptive.rebalance.migrated_keys > 0);
    assert!(
        adaptive.makespan_seconds < fixed.makespan_seconds,
        "adaptive {} must beat static {}",
        adaptive.makespan_seconds,
        fixed.makespan_seconds
    );
    assert!(adaptive.throughput_tx_per_sec() > fixed.throughput_tx_per_sec());

    // Migrations move state, never change it.
    assert_eq!(adaptive.fingerprint, fixed.fingerprint);
    assert_eq!(adaptive.total_increments, fixed.total_increments);

    // Migration traffic is real ledger traffic: 8 bytes per moved key in
    // each direction, and every byte the rounds attribute is a byte some
    // primitive charged.
    assert_eq!(
        adaptive.rebalance.migration_bytes,
        2 * pim_stm_suite::fleet::MIGRATION_BYTES_PER_KEY * adaptive.rebalance.migrated_keys
    );
    let attributed_to: u64 = adaptive.rounds.iter().map(|r| r.bytes_to_dpus).sum();
    let attributed_from: u64 = adaptive.rounds.iter().map(|r| r.bytes_from_dpus).sum();
    assert_eq!(
        adaptive.ledger.broadcast.bytes + adaptive.ledger.scatter.bytes,
        attributed_to,
        "every host→DPU byte must be attributed to a round"
    );
    assert_eq!(
        adaptive.ledger.gather.bytes, attributed_from,
        "every DPU→host byte must be attributed to a round"
    );
}

#[test]
fn increments_are_conserved_for_any_shard_count() {
    let expected = u64::from(workload().updates_per_tx) * u64::from(workload().total_txns);
    for n in [1, 3, 8, 32] {
        let report = fleet(n);
        assert_eq!(report.total_increments, expected, "{n} DPUs");
        assert_eq!(
            report.shards.iter().map(|s| s.commits).sum::<u64>(),
            report.total_commits,
            "{n} DPUs: shard commits must fold to the fleet total"
        );
    }
}

#[test]
fn fingerprint_is_partition_invariant() {
    let single = fleet(1);
    assert_eq!(single.total_rejected, 0, "one shard has no cross-shard traffic");
    for n in [2, 5, 16] {
        let sharded = fleet(n);
        assert_eq!(
            sharded.fingerprint, single.fingerprint,
            "{n}-way sharding must produce the single-shard final state"
        );
    }
}

#[test]
fn routing_policies_reach_the_same_state_at_different_cost() {
    let owner = fleet(8);
    let retry = run(&FleetConfig::new(8, workload()).with_routing(RoutingPolicy::AbortAndRetry));
    assert_eq!(owner.fingerprint, retry.fingerprint);
    assert_eq!(owner.total_increments, retry.total_increments);
    assert!(retry.total_rejected > 0, "abort-and-retry must probe cross-shard txns");
    assert_eq!(
        retry.total_rejected,
        retry.profile.aborts_for(pim_stm_suite::stm::AbortReason::Explicit),
        "every rejection must appear as an explicit abort in the merged profile"
    );
    assert!(retry.dispatched_subtxns > owner.dispatched_subtxns);
}

#[test]
fn skewed_streams_conserve_and_report_imbalance() {
    let config = FleetConfig::new(
        8,
        ShardedWorkloadConfig::new(512, 160).with_dist(KeyDist::Zipf { theta: 1.2 }),
    );
    let report = run(&config);
    assert_eq!(report.total_increments, 2 * 160, "skew must not break conservation");
    assert!(report.imbalance.hottest_commit_share > 1.5 / 8.0);
    assert!(report.imbalance.max_over_mean_commits > 1.5);
}

/// The counter fleet under abort-and-retry, pinned: 8 shards of the small
/// uniform stream. A probe that discovers an off-shard key cancels, and
/// that cancel ends the sub-transaction on the shard (the host re-dispatches
/// it split) instead of retrying it there. A shard tasklet that retried a
/// probe, stepped a transaction differently or took a step more or fewer
/// would move the commits, the rejections or the modelled makespan.
#[test]
fn abort_and_retry_matches_the_pinned_fleet_golden() {
    let report = run(&FleetConfig::new(8, workload()).with_routing(RoutingPolicy::AbortAndRetry));
    assert_eq!(
        (
            report.total_commits,
            report.total_aborts,
            report.total_rejected,
            report.makespan_seconds.to_bits()
        ),
        // The makespan is 1.5663554285714285 ms, pinned to the bit.
        (534, 169, 160, 0x3f59_a9c5_55bc_7028),
        "commits, aborts, rejections and makespan bits of the pinned abort-and-retry fleet"
    );
}
