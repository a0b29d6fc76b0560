//! The six workloads. Each fixes its cells and work counts as constants
//! (scaled only by the `size` factor: 1.0 for the ledger, 0.05 for
//! `--quick`) and draws every input from the seed.

pub mod exp;
pub mod fleet;
pub mod service;
pub mod sim;
pub mod threaded;

use crate::metric::MetricSet;
use pim_sim::Phase;
use pim_stm::ExecProfile;
use pim_workloads::RunSpec;

/// `array-b/orec-etl-wb/mram/24t`.
pub fn label(spec: &RunSpec) -> String {
    format!(
        "{}/{}/{}/{}t",
        spec.workload,
        spec.kind.grid_name(),
        spec.placement.name(),
        spec.tasklets
    )
}

/// A count scaled by the size factor, never below `floor`.
pub fn scaled(count: u64, size: f64, floor: u64) -> u64 {
    ((count as f64 * size).round() as u64).max(floor)
}

/// The `pim-stm` counts and the Fig. 4–6 phase panel of a merged
/// simulator profile: exact for a seed, so they must not move under a
/// speed-only change.
pub fn stm_profile_metrics(profile: &ExecProfile, metrics: &mut MetricSet<'_>) {
    metrics.exact("pim-stm.attempts", profile.attempts() as f64);
    metrics.exact("pim-stm.commits", profile.commits() as f64);
    metrics.exact("pim-stm.aborts", profile.aborts() as f64);
    metrics.exact("pim-stm.useful_ratio", profile.commits() as f64 / profile.attempts() as f64);
    let total = profile.total_time() as f64;
    let share =
        |phases: &[Phase]| phases.iter().map(|&p| profile.phase(p)).sum::<u64>() as f64 / total;
    metrics.exact("pim-stm.phase_share.reading", share(&[Phase::Reading]));
    metrics.exact("pim-stm.phase_share.writing", share(&[Phase::Writing]));
    metrics.exact(
        "pim-stm.phase_share.validating",
        share(&[Phase::ValidatingExec, Phase::ValidatingCommit]),
    );
    metrics.exact("pim-stm.phase_share.commit", share(&[Phase::OtherCommit]));
    metrics.exact("pim-stm.phase_share.wasted", share(&[Phase::Wasted]));
    // An overlay: back-off time is also inside the phase buckets above.
    metrics.exact("pim-stm.phase_share.backoff", profile.backoff_time() as f64 / total);
}
