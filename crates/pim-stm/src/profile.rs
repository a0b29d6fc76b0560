//! The executor-agnostic execution profile: one instrumentation schema for
//! the cycle-accounted simulator *and* the threaded executor.
//!
//! PIM-STM's central claim is comparative — which STM design wins depends on
//! where time goes (begin/read/write/commit/wasted work), why attempts abort
//! and how much data moves over the MRAM port. [`ExecProfile`] captures all
//! of that per tasklet, on **every** executor:
//!
//! * attempts = commits + aborts (tallied by the shared retry core in
//!   [`crate::engine`], which is the single emission point for all seven
//!   algorithms);
//! * an abort histogram keyed by [`AbortReason`] — every abort the retry
//!   core resolves carries the reason the algorithm reported, so the
//!   histogram always sums to the abort count;
//! * per-phase time ([`Phase`]/[`PhaseBreakdown`]) in an *executor-native
//!   unit*: simulator cycles or monotonic wall-clock nanoseconds, tagged via
//!   [`TimeDomain`] so the two are never confused or naively compared;
//! * MRAM DMA setups/words (the burst-coalescing metric) and back-off /
//!   lock-wait time.
//!
//! The bookkeeping machinery itself ([`pim_sim::ProfileCore`]) lives in the
//! simulator substrate so [`pim_sim::TaskletStats`] can be a thin adapter
//! over the same structure; this module adds the STM-level typing — reasons
//! instead of opaque codes, a time-domain tag, and merge rules that refuse
//! to mix domains.

use pim_sim::{Phase, PhaseBreakdown, ProfileCore, TaskletStats};
use std::fmt;

use crate::error::AbortReason;

// The sim substrate reserves opaque histogram slots; the reason enum must
// fit them. (`ProfileCore::resolve_abort` would panic at runtime otherwise —
// fail at compile time instead.)
const _: () = assert!(AbortReason::COUNT <= pim_sim::ABORT_CODE_SLOTS);

/// The unit in which a profile's time values (phase breakdown, back-off
/// time) are expressed.
///
/// Profiles from different domains must never be summed or ratio-compared
/// directly — a cycle is not a nanosecond. [`ExecProfile::merge`] enforces
/// this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeDomain {
    /// Deterministic simulator cycles (the unit behind the paper's figures).
    Cycles,
    /// Monotonic wall-clock nanoseconds measured on the threaded executor.
    WallNanos,
}

impl TimeDomain {
    /// Short unit suffix for rendering (`cyc` / `ns`).
    pub fn unit(self) -> &'static str {
        match self {
            TimeDomain::Cycles => "cyc",
            TimeDomain::WallNanos => "ns",
        }
    }

    /// Human-readable name.
    pub fn label(self) -> &'static str {
        match self {
            TimeDomain::Cycles => "simulator cycles",
            TimeDomain::WallNanos => "wall-clock nanoseconds",
        }
    }
}

impl fmt::Display for TimeDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-tasklet execution profile: the shared bookkeeping core tagged with
/// the unit its time values are expressed in.
///
/// Construction paths:
///
/// * simulator — [`ExecProfile::from_sim`] adapts a finished tasklet's
///   [`TaskletStats`] (domain [`TimeDomain::Cycles`]);
/// * threaded executor — `ThreadPlatform` charges wall-clock nanoseconds
///   into a fresh [`TimeDomain::WallNanos`] profile as the thread runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecProfile {
    /// Unit of every time value in `core`.
    pub time_domain: TimeDomain,
    /// The tallies themselves (attempts, abort codes, phase times, DMA,
    /// back-off).
    pub core: ProfileCore,
}

impl ExecProfile {
    /// Creates an empty profile in `domain`.
    pub fn new(domain: TimeDomain) -> Self {
        ExecProfile { time_domain: domain, core: ProfileCore::new() }
    }

    /// Adapts one simulated tasklet's statistics (cycle domain).
    pub fn from_sim(stats: &TaskletStats) -> Self {
        ExecProfile { time_domain: TimeDomain::Cycles, core: stats.profile }
    }

    /// Committed transactions.
    pub fn commits(&self) -> u64 {
        self.core.commits
    }

    /// Aborted attempts.
    pub fn aborts(&self) -> u64 {
        self.core.aborts
    }

    /// Attempts started: commits + aborts.
    pub fn attempts(&self) -> u64 {
        self.core.attempts()
    }

    /// Abort rate in `[0, 1]`.
    pub fn abort_rate(&self) -> f64 {
        self.core.abort_rate()
    }

    /// Aborts attributed to `reason`.
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.core.abort_codes[reason.index()]
    }

    /// Sum of the abort histogram. The retry core resolves every abort with
    /// its reason, so for engine-driven runs this equals
    /// [`ExecProfile::aborts`].
    pub fn histogram_total(&self) -> u64 {
        self.core.coded_aborts()
    }

    /// Per-phase time, in this profile's [`TimeDomain`] unit.
    pub fn phases(&self) -> &PhaseBreakdown {
        &self.core.breakdown
    }

    /// Time attributed to one phase.
    pub fn phase(&self, phase: Phase) -> u64 {
        self.core.breakdown.get(phase)
    }

    /// Total time across all phases.
    pub fn total_time(&self) -> u64 {
        self.core.breakdown.total()
    }

    /// Back-off / lock-wait time (an overlay: also contained in the phase
    /// buckets).
    pub fn backoff_time(&self) -> u64 {
        self.core.backoff_time
    }

    /// MRAM DMA transfers issued (each paying one setup).
    pub fn dma_setups(&self) -> u64 {
        self.core.mram_dma_setups
    }

    /// Words moved over the MRAM port.
    pub fn dma_words(&self) -> u64 {
        self.core.mram_dma_words
    }

    /// MRAM DMA transfers per committed transaction — the batching
    /// efficiency metric: coalesced write-back and batched record reads
    /// lower this without changing the words moved. `0.0` when nothing
    /// committed.
    pub fn dma_setups_per_commit(&self) -> f64 {
        per_commit(self.core.mram_dma_setups, self.core.commits)
    }

    /// Words moved over the MRAM port per committed transaction. `0.0` when
    /// nothing committed.
    pub fn dma_words_per_commit(&self) -> f64 {
        per_commit(self.core.mram_dma_words, self.core.commits)
    }

    /// Bytes moved over the MRAM port per committed transaction (words are
    /// 64-bit). `0.0` when nothing committed.
    pub fn dma_bytes_per_commit(&self) -> f64 {
        8.0 * self.dma_words_per_commit()
    }

    /// Merges another profile of the **same** time domain into this one
    /// (tasklet → run aggregation).
    ///
    /// # Panics
    ///
    /// Panics if the domains differ — cycles and nanoseconds must never be
    /// summed.
    pub fn merge(&mut self, other: &ExecProfile) {
        assert_eq!(
            self.time_domain, other.time_domain,
            "refusing to merge profiles across time domains ({} vs {})",
            self.time_domain, other.time_domain
        );
        self.core.merge(&other.core);
    }

    /// Merges an iterator of profiles into one; `None` if the iterator is
    /// empty. All profiles must share one time domain (see
    /// [`ExecProfile::merge`]).
    pub fn merged<'a>(profiles: impl IntoIterator<Item = &'a ExecProfile>) -> Option<ExecProfile> {
        let mut iter = profiles.into_iter();
        let mut acc = *iter.next()?;
        for p in iter {
            acc.merge(p);
        }
        Some(acc)
    }
}

/// `count / commits` as a float, `0.0` for a run that committed nothing.
fn per_commit(count: u64, commits: u64) -> f64 {
    if commits == 0 {
        0.0
    } else {
        count as f64 / commits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(domain: TimeDomain) -> ExecProfile {
        let mut p = ExecProfile::new(domain);
        p.core.charge_attempt(Phase::Reading, 10);
        p.core.resolve_commit();
        p.core.charge_attempt(Phase::Writing, 4);
        p.core.resolve_abort(Some(AbortReason::WriteConflict.index()));
        p.core.note_mram_dma(8);
        p.core.note_backoff(3);
        p
    }

    #[test]
    fn accessors_reflect_the_core() {
        let p = sample(TimeDomain::Cycles);
        assert_eq!(p.commits(), 1);
        assert_eq!(p.aborts(), 1);
        assert_eq!(p.attempts(), 2);
        assert_eq!(p.aborts_for(AbortReason::WriteConflict), 1);
        assert_eq!(p.aborts_for(AbortReason::ReadConflict), 0);
        assert_eq!(p.histogram_total(), p.aborts());
        assert_eq!(p.phase(Phase::Reading), 10);
        assert_eq!(p.phase(Phase::Wasted), 4);
        assert_eq!(p.total_time(), 14);
        assert_eq!(p.backoff_time(), 3);
        assert_eq!(p.dma_setups(), 1);
        assert_eq!(p.dma_words(), 8);
        assert!((p.abort_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_commit_efficiency_metrics() {
        let p = sample(TimeDomain::Cycles);
        assert!((p.dma_setups_per_commit() - 1.0).abs() < 1e-12);
        assert!((p.dma_words_per_commit() - 8.0).abs() < 1e-12);
        assert!((p.dma_bytes_per_commit() - 64.0).abs() < 1e-12);
        // A run with zero commits reports zero instead of dividing by zero.
        let empty = ExecProfile::new(TimeDomain::Cycles);
        assert_eq!(empty.dma_setups_per_commit(), 0.0);
        assert_eq!(empty.dma_bytes_per_commit(), 0.0);
    }

    #[test]
    fn histogram_iterates_all_reasons_in_order() {
        let p = sample(TimeDomain::WallNanos);
        let counts: Vec<u64> = AbortReason::ALL.iter().map(|&r| p.aborts_for(r)).collect();
        assert_eq!(counts.len(), AbortReason::COUNT);
        assert_eq!(counts[AbortReason::WriteConflict.index()], 1);
        assert_eq!(counts.iter().sum::<u64>(), p.aborts());
        assert_eq!(p.histogram_total(), p.aborts());
    }

    #[test]
    fn same_domain_profiles_merge() {
        let mut a = sample(TimeDomain::Cycles);
        let b = sample(TimeDomain::Cycles);
        a.merge(&b);
        assert_eq!(a.commits(), 2);
        assert_eq!(a.aborts_for(AbortReason::WriteConflict), 2);
        assert_eq!(a.total_time(), 28);

        let all = [sample(TimeDomain::Cycles), sample(TimeDomain::Cycles)];
        let merged = ExecProfile::merged(&all).unwrap();
        assert_eq!(merged.attempts(), 4);
        let empty: Vec<ExecProfile> = Vec::new();
        assert!(ExecProfile::merged(&empty).is_none());
    }

    #[test]
    #[should_panic(expected = "time domains")]
    fn cross_domain_merge_is_rejected() {
        let mut a = sample(TimeDomain::Cycles);
        let b = sample(TimeDomain::WallNanos);
        a.merge(&b);
    }

    #[test]
    fn domain_labels_distinguish_units() {
        assert_ne!(TimeDomain::Cycles.unit(), TimeDomain::WallNanos.unit());
        assert!(TimeDomain::Cycles.to_string().contains("cycles"));
        assert!(TimeDomain::WallNanos.to_string().contains("nanoseconds"));
    }
}
