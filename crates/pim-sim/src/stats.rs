//! Execution phases and per-tasklet statistics.
//!
//! The paper's time-breakdown plots (Fig. 4/5 bottom rows, Fig. 9/10) divide
//! transaction time into reading, writing, validation (during execution and
//! at commit), other execution work, other commit work, and time wasted on
//! attempts that eventually aborted. The simulator attributes every cycle a
//! tasklet spends to one of those categories; the STM library switches the
//! current [`Phase`] as it moves through a transaction.
//!
//! The bookkeeping itself — commit/abort tallies, the abort-code histogram,
//! the per-phase attempt buffer, DMA and back-off counters — lives in
//! [`ProfileCore`], which is executor-agnostic: the simulator charges cycles
//! into it (via [`TaskletStats`], a thin adapter that adds the
//! simulator-only finish time), while the threaded executor charges
//! wall-clock nanoseconds into the same structure (see `pim_stm::profile`,
//! which wraps a core together with the time-domain tag).

use std::fmt;
use std::ops::{Add, AddAssign, Deref, DerefMut};

use crate::latency::Cycles;

/// Number of phase categories tracked.
pub(crate) const PHASES: usize = 7;

/// Slots reserved for abort-reason codes in [`ProfileCore`].
///
/// The simulator substrate does not know *what* the codes mean — the STM
/// layer assigns them (`pim_stm::AbortReason::index`) and guarantees it uses
/// fewer than this many.
pub const ABORT_CODE_SLOTS: usize = 8;

/// Execution-time categories used in the paper's breakdown plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Executing transactional read operations.
    Reading,
    /// Executing transactional write operations.
    Writing,
    /// Validating the readset while the transaction is still executing.
    ValidatingExec,
    /// Non-STM work performed inside the transaction (application logic).
    OtherExec,
    /// Validating the readset during commit.
    ValidatingCommit,
    /// Commit work other than validation (lock acquisition, write-back,
    /// version updates, releases).
    OtherCommit,
    /// Cycles spent in attempts that aborted ("Time Wasted" in the paper).
    Wasted,
}

impl Phase {
    /// All phases, in the order used by reports.
    pub const ALL: [Phase; PHASES] = [
        Phase::Reading,
        Phase::Writing,
        Phase::ValidatingExec,
        Phase::OtherExec,
        Phase::ValidatingCommit,
        Phase::OtherCommit,
        Phase::Wasted,
    ];

    /// Stable index of the phase in breakdown arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Phase::Reading => 0,
            Phase::Writing => 1,
            Phase::ValidatingExec => 2,
            Phase::OtherExec => 3,
            Phase::ValidatingCommit => 4,
            Phase::OtherCommit => 5,
            Phase::Wasted => 6,
        }
    }

    /// Human-readable label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Reading => "Reading",
            Phase::Writing => "Writing",
            Phase::ValidatingExec => "Validating (Executing)",
            Phase::OtherExec => "Other (Executing)",
            Phase::ValidatingCommit => "Validating (Commit)",
            Phase::OtherCommit => "Other (Commit)",
            Phase::Wasted => "Time Wasted",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Time attributed to each [`Phase`], in an executor-native unit (simulator
/// cycles or wall-clock nanoseconds — the containing profile knows which).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    cycles: [Cycles; PHASES],
}

impl PhaseBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` to `phase`.
    #[inline]
    pub fn charge(&mut self, phase: Phase, cycles: Cycles) {
        self.cycles[phase.index()] += cycles;
    }

    /// Cycles attributed to `phase`.
    pub fn get(&self, phase: Phase) -> Cycles {
        self.cycles[phase.index()]
    }

    /// Sum over all phases.
    pub fn total(&self) -> Cycles {
        self.cycles.iter().sum()
    }

    /// Iterates over `(phase, cycles)` pairs in report order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, Cycles)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.get(p)))
    }

    /// Fraction of total time spent in `phase` (0.0 if the breakdown is
    /// empty).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(phase) as f64 / total as f64
        }
    }

    /// Moves every recorded cycle into [`Phase::Wasted`]; used when a
    /// transaction attempt aborts.
    pub fn collapse_into_wasted(&mut self) {
        let total = self.total();
        self.cycles = [0; PHASES];
        self.cycles[Phase::Wasted.index()] = total;
    }
}

impl Add for PhaseBreakdown {
    type Output = PhaseBreakdown;

    fn add(mut self, rhs: PhaseBreakdown) -> PhaseBreakdown {
        self += rhs;
        self
    }
}

impl AddAssign for PhaseBreakdown {
    fn add_assign(&mut self, rhs: PhaseBreakdown) {
        for i in 0..PHASES {
            self.cycles[i] += rhs.cycles[i];
        }
    }
}

/// The executor-agnostic transaction-profiling core: one tasklet's attempt
/// tallies, abort-code histogram, per-phase time, DMA traffic and spin-wait
/// time.
///
/// Time values are in whatever unit the charging executor uses (simulator
/// cycles, wall-clock nanoseconds); the core itself is unit-blind. Abort
/// *codes* are equally opaque here — the STM layer maps its `AbortReason`
/// enum onto indices `< ABORT_CODE_SLOTS`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileCore {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Aborted attempts per abort-reason code. Aborts resolved without a
    /// code count only in `aborts`.
    pub abort_codes: [u64; ABORT_CODE_SLOTS],
    /// Time attributed to resolved work, by phase.
    pub breakdown: PhaseBreakdown,
    /// Time charged in the current (not yet resolved) transaction attempt.
    pub attempt: PhaseBreakdown,
    /// MRAM DMA transfers issued (each pays one setup latency). A multi-word
    /// burst counts once — this is the metric that burst coalescing improves.
    pub mram_dma_setups: u64,
    /// Total words moved over the MRAM port by those transfers.
    pub mram_dma_words: u64,
    /// Time spent in bounded spin-waits: contention back-off after aborts
    /// and lock-wait loops (e.g. NOrec waiting for an even sequence lock).
    /// This is an *overlay* metric — the same time is also attributed to the
    /// phase buckets.
    pub backoff_time: u64,
}

impl ProfileCore {
    /// Creates an empty core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts started: commits + aborts.
    pub fn attempts(&self) -> u64 {
        self.commits + self.aborts
    }

    /// Abort rate in `[0, 1]`: aborts / (aborts + commits).
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Sum of the abort-code histogram (equals `aborts` when every abort was
    /// resolved with a code, as the STM retry core guarantees).
    pub fn coded_aborts(&self) -> u64 {
        self.abort_codes.iter().sum()
    }

    /// Charges time to the in-flight transaction attempt.
    #[inline]
    pub fn charge_attempt(&mut self, phase: Phase, time: u64) {
        self.attempt.charge(phase, time);
    }

    /// Charges time directly to the resolved breakdown, bypassing the
    /// attempt buffer (used for non-transactional work).
    #[inline]
    pub fn charge_direct(&mut self, phase: Phase, time: u64) {
        self.breakdown.charge(phase, time);
    }

    /// Resolves the in-flight attempt as committed: its time keeps its phase
    /// attribution.
    pub fn resolve_commit(&mut self) {
        self.commits += 1;
        let attempt = std::mem::take(&mut self.attempt);
        self.breakdown += attempt;
    }

    /// Resolves the in-flight attempt as aborted: all its time becomes
    /// wasted. `code`, when given, selects the histogram slot (the STM layer
    /// passes `AbortReason::index()`).
    ///
    /// # Panics
    ///
    /// Panics if `code` is outside the reserved slots.
    pub fn resolve_abort(&mut self, code: Option<usize>) {
        self.aborts += 1;
        if let Some(code) = code {
            self.abort_codes[code] += 1;
        }
        let mut attempt = std::mem::take(&mut self.attempt);
        attempt.collapse_into_wasted();
        self.breakdown += attempt;
    }

    /// Records one MRAM DMA transfer of `words` words (setup paid once).
    #[inline]
    pub fn note_mram_dma(&mut self, words: u32) {
        self.mram_dma_setups += 1;
        self.mram_dma_words += u64::from(words);
    }

    /// Records `time` spent spin-waiting (back-off or lock waits).
    #[inline]
    pub fn note_backoff(&mut self, time: u64) {
        self.backoff_time += time;
    }

    /// Merges another core into this one (tasklet → DPU aggregation).
    pub fn merge(&mut self, other: &ProfileCore) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        for (mine, theirs) in self.abort_codes.iter_mut().zip(other.abort_codes.iter()) {
            *mine += theirs;
        }
        self.breakdown += other.breakdown;
        self.attempt += other.attempt;
        self.mram_dma_setups += other.mram_dma_setups;
        self.mram_dma_words += other.mram_dma_words;
        self.backoff_time += other.backoff_time;
    }
}

/// Statistics for one tasklet over one simulated run: the shared
/// [`ProfileCore`] (charged in cycles) plus the simulator-only finish time.
///
/// `TaskletStats` dereferences to its core, so the historical field accesses
/// (`stats.commits`, `stats.breakdown`, …) keep working; the simulator no
/// longer keeps any bookkeeping of its own beyond `finish_cycles`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskletStats {
    /// The executor-agnostic profiling core, charged in simulator cycles.
    pub profile: ProfileCore,
    /// Virtual time at which the tasklet finished its program.
    pub finish_cycles: Cycles,
}

impl TaskletStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another tasklet's statistics into this one (used for DPU-level
    /// aggregation).
    pub fn merge(&mut self, other: &TaskletStats) {
        self.profile.merge(&other.profile);
        self.finish_cycles = self.finish_cycles.max(other.finish_cycles);
    }
}

impl Deref for TaskletStats {
    type Target = ProfileCore;

    fn deref(&self) -> &ProfileCore {
        &self.profile
    }
}

impl DerefMut for TaskletStats {
    fn deref_mut(&mut self) -> &mut ProfileCore {
        &mut self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_stable_and_unique() {
        let mut seen = [false; PHASES];
        for p in Phase::ALL {
            assert!(!seen[p.index()], "duplicate index for {p}");
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn breakdown_charge_and_total() {
        let mut b = PhaseBreakdown::new();
        b.charge(Phase::Reading, 10);
        b.charge(Phase::Reading, 5);
        b.charge(Phase::OtherCommit, 20);
        assert_eq!(b.get(Phase::Reading), 15);
        assert_eq!(b.total(), 35);
        assert!((b.fraction(Phase::OtherCommit) - 20.0 / 35.0).abs() < 1e-12);
    }

    #[test]
    fn collapse_moves_everything_to_wasted() {
        let mut b = PhaseBreakdown::new();
        b.charge(Phase::Reading, 7);
        b.charge(Phase::Writing, 3);
        b.collapse_into_wasted();
        assert_eq!(b.get(Phase::Wasted), 10);
        assert_eq!(b.get(Phase::Reading), 0);
        assert_eq!(b.total(), 10);
    }

    #[test]
    fn commit_and_abort_resolution() {
        let mut s = TaskletStats::new();
        s.charge_attempt(Phase::Reading, 100);
        s.resolve_commit();
        assert_eq!(s.commits, 1);
        assert_eq!(s.breakdown.get(Phase::Reading), 100);

        s.charge_attempt(Phase::Writing, 40);
        s.resolve_abort(None);
        assert_eq!(s.aborts, 1);
        assert_eq!(s.breakdown.get(Phase::Wasted), 40);
        assert_eq!(s.breakdown.get(Phase::Writing), 0);
        assert!((s.abort_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coded_aborts_fill_the_histogram() {
        let mut core = ProfileCore::new();
        core.resolve_abort(Some(2));
        core.resolve_abort(Some(2));
        core.resolve_abort(Some(0));
        core.resolve_abort(None);
        assert_eq!(core.aborts, 4);
        assert_eq!(core.abort_codes[2], 2);
        assert_eq!(core.abort_codes[0], 1);
        assert_eq!(core.coded_aborts(), 3, "the uncoded abort stays out of the histogram");
        assert_eq!(core.attempts(), 4);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TaskletStats::new();
        a.charge_attempt(Phase::Reading, 10);
        a.resolve_commit();
        a.finish_cycles = 500;
        a.note_mram_dma(8);
        a.note_backoff(3);
        let mut b = TaskletStats::new();
        b.charge_attempt(Phase::Reading, 30);
        b.resolve_abort(Some(1));
        b.finish_cycles = 900;
        b.note_mram_dma(1);
        b.note_mram_dma(3);
        b.note_backoff(4);
        a.merge(&b);
        assert_eq!(a.commits, 1);
        assert_eq!(a.aborts, 1);
        assert_eq!(a.abort_codes[1], 1);
        assert_eq!(a.finish_cycles, 900);
        assert_eq!(a.breakdown.total(), 40);
        assert_eq!(a.mram_dma_setups, 3);
        assert_eq!(a.mram_dma_words, 12);
        assert_eq!(a.backoff_time, 7);
    }

    #[test]
    fn dma_bursts_count_one_setup_regardless_of_length() {
        let mut s = TaskletStats::new();
        s.note_mram_dma(64);
        assert_eq!(s.mram_dma_setups, 1);
        assert_eq!(s.mram_dma_words, 64);
    }

    #[test]
    fn empty_stats_have_zero_abort_rate() {
        assert_eq!(TaskletStats::new().abort_rate(), 0.0);
    }
}
