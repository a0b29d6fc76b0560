//! Online self-tuning: the engine picks its own runtime-switchable knobs.
//!
//! The design-space study (and the `--grid` sweep that automates it) shows
//! that no single composition wins everywhere — the best retry policy, read
//! strategy, burst cap and lock order shift with the workload's contention
//! and access shape, and a phase-changing workload shifts them *mid-run*.
//! This module closes the loop: a [`Tuner`] watches a windowed, decaying
//! per-[`AbortReason`] + DMA-rate signal and switches the knobs the engine
//! can legally change at run time, generalising the [`RetryPolicy::Adaptive`]
//! histogram machinery from a single hard-wired cap choice into a policy
//! over every runtime axis.
//!
//! # Knob-ownership contract
//!
//! [`crate::StmConfig`] carries two classes of knobs, and the tuner may only
//! ever touch the first:
//!
//! * **Runtime-switchable** — consulted afresh on every operation, with no
//!   allocated state keyed to their value, so switching them between
//!   transactions is always sound:
//!   - [`StmKnobs::retry`] (the back-off policy, and through
//!     [`RetryPolicy::Adaptive`] its saturation cap),
//!   - [`StmKnobs::read_strategy`] (word-wise vs batched record reads),
//!   - [`StmKnobs::max_burst_words`] — **downward only**: the WRAM staging
//!     buffer is reserved at construction size, so the tuner may shrink the
//!     burst cap (and later restore it) but never exceed the construction
//!     value,
//!   - [`StmKnobs::lock_order`] (record-order vs address-sorted ORec
//!     acquisition).
//! * **Construction-time** — baked into allocated metadata or the chosen
//!   algorithm, so changing them mid-run is meaningless or unsound: the
//!   design itself ([`StmConfig::kind`] / the R×L×W composition), metadata
//!   placement, lock-table size and placement, log capacities, and the
//!   write-back publish strategy (its staging layout is fixed when the
//!   redo-log area is sized).
//!
//! Tuning is **per tasklet**, like adaptive retry: each tasklet's engine
//! owns its descriptor, its abort histogram and its copy of the
//! configuration, so no cross-tasklet synchronisation (which real UPMEM
//! hardware would have to buy with a WRAM mutex) is needed, and simulated
//! runs stay deterministic. Decisions are **never free**: every evaluated
//! window charges [`TUNE_EVAL_INSTRUCTIONS`] and every applied switch
//! charges [`TUNE_SWITCH_INSTRUCTIONS`] through [`Platform::compute`], and
//! the simulator additionally records each switch as a cycle-stamped
//! scheduler-level event ([`pim_sim::TuneEvent`]).

use std::fmt;

use crate::config::{LockOrder, ReadStrategy, RetryPolicy, StmConfig, StmKnobs};
use crate::error::AbortReason;
use crate::platform::Platform;

/// Instructions charged for evaluating one signal window (reading the
/// histogram deltas, comparing shares, deciding whether to switch).
pub const TUNE_EVAL_INSTRUCTIONS: u64 = 48;

/// Instructions charged for applying one knob switch (rewriting the knob
/// and, for the burst cap, re-bounding the staging window).
pub const TUNE_SWITCH_INSTRUCTIONS: u64 = 24;

/// Default signal-window length, in transaction attempts. Small enough to
/// react to a phase change within a few hundred transactions, large enough
/// that one window's abort mix is not noise.
pub const DEFAULT_TUNE_WINDOW: u32 = 64;

/// Whether — and how — the engine tunes its runtime-switchable knobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TunePolicy {
    /// No tuning: the knobs stay at their configured values (the default,
    /// and the pre-tuner behaviour).
    #[default]
    Static,
    /// Re-evaluate the decaying signal every `window` attempts and switch
    /// knobs when the evidence warrants it.
    Windowed {
        /// Signal-window length in transaction attempts (≥ 1).
        window: u32,
    },
}

impl TunePolicy {
    /// The windowed policy with the default window length.
    pub fn windowed() -> TunePolicy {
        TunePolicy::Windowed { window: DEFAULT_TUNE_WINDOW }
    }

    /// Whether this policy tunes at all.
    pub fn is_enabled(self) -> bool {
        matches!(self, TunePolicy::Windowed { .. })
    }

    /// Short lowercase name used by the CLI and in reports.
    pub fn name(self) -> &'static str {
        match self {
            TunePolicy::Static => "static",
            TunePolicy::Windowed { .. } => "windowed",
        }
    }

    /// Parses the CLI form: `static`/`off`, `windowed`, or `windowed:<N>`
    /// for an explicit window length.
    pub fn parse(text: &str) -> Option<TunePolicy> {
        let canon = text.trim().to_ascii_lowercase();
        match canon.as_str() {
            "static" | "off" => Some(TunePolicy::Static),
            "windowed" | "on" => Some(TunePolicy::windowed()),
            other => {
                let window: u32 = other.strip_prefix("windowed:")?.parse().ok()?;
                if window == 0 {
                    return None;
                }
                Some(TunePolicy::Windowed { window })
            }
        }
    }
}

impl fmt::Display for TunePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TunePolicy::Static => f.write_str("static"),
            TunePolicy::Windowed { window } => write!(f, "windowed:{window}"),
        }
    }
}

/// The runtime-switchable knobs a tuner owns (see the
/// [module documentation](self) for the ownership contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunedKnob {
    /// [`StmKnobs::retry`].
    Retry,
    /// [`StmKnobs::read_strategy`].
    ReadStrategy,
    /// [`StmKnobs::max_burst_words`] (downward from the construction cap).
    BurstCap,
    /// [`StmKnobs::lock_order`].
    LockOrder,
}

impl TunedKnob {
    /// All tuned knobs, in reporting order.
    pub const ALL: [TunedKnob; 4] =
        [TunedKnob::Retry, TunedKnob::ReadStrategy, TunedKnob::BurstCap, TunedKnob::LockOrder];

    /// Short lowercase name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            TunedKnob::Retry => "retry",
            TunedKnob::ReadStrategy => "read-strategy",
            TunedKnob::BurstCap => "burst-cap",
            TunedKnob::LockOrder => "lock-order",
        }
    }

    /// Opaque knob code recorded in simulator tune events
    /// ([`pim_sim::TuneEvent::knob`]).
    pub fn code(self) -> u8 {
        match self {
            TunedKnob::Retry => 0,
            TunedKnob::ReadStrategy => 1,
            TunedKnob::BurstCap => 2,
            TunedKnob::LockOrder => 3,
        }
    }
}

impl fmt::Display for TunedKnob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable value codes for simulator tune events: enough to name any setting
/// of any tuned knob in one byte.
fn retry_code(policy: RetryPolicy) -> u8 {
    match policy {
        RetryPolicy::Fixed => 0,
        RetryPolicy::Exponential => 1,
        RetryPolicy::Adaptive => 2,
    }
}

fn read_code(strategy: ReadStrategy) -> u8 {
    match strategy {
        ReadStrategy::WordWise => 0,
        ReadStrategy::Batched => 1,
    }
}

fn order_code(order: LockOrder) -> u8 {
    match order {
        LockOrder::RecordOrder => 0,
        LockOrder::AddressSorted => 1,
    }
}

/// Burst caps are multiples of the 8-word minimum, so `cap / 8` names every
/// legal cap (8..=256) in one byte.
fn burst_code(cap: u32) -> u8 {
    (cap / MIN_TUNED_BURST_WORDS).min(255) as u8
}

/// One applied knob switch, with rendered setting names for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneDecision {
    /// Index of the signal window (1-based) whose evaluation triggered the
    /// switch.
    pub window: u64,
    /// Which knob switched.
    pub knob: TunedKnob,
    /// Setting switched away from (rendered name; burst caps render as the
    /// word count).
    pub from: String,
    /// Setting switched to.
    pub to: String,
}

/// Internal form of a switch: the codes the simulator event carries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KnobSwitch {
    pub(crate) knob: TunedKnob,
    pub(crate) from_code: u8,
    pub(crate) to_code: u8,
}

/// The tuner never shrinks the burst cap below this many words: smaller
/// bursts cannot amortise even one DMA setup.
const MIN_TUNED_BURST_WORDS: u32 = 8;

/// The windowed, decaying signal a tuner reads: per-[`AbortReason`] abort
/// counts and commit counts with a half-life of one window, plus the DMA
/// counters' last window boundary snapshot for rate deltas.
///
/// The decay is what makes the tuner react to *phase changes*: after a
/// workload shifts its hot region, the pre-shift abort mix loses half its
/// weight every window, so within a few windows the decisions reflect the
/// new phase rather than the whole history (which is exactly what the
/// cumulative histogram behind [`RetryPolicy::Adaptive`] cannot do).
#[derive(Debug, Clone, Default)]
pub struct TuneSignal {
    decayed_reasons: [u64; AbortReason::COUNT],
    decayed_commits: u64,
    decayed_aborts: u64,
    window_reasons: [u64; AbortReason::COUNT],
    window_commits: u64,
    window_aborts: u64,
    last_dma_setups: u64,
    last_dma_words: u64,
    window_dma_setups: u64,
    window_dma_words: u64,
}

impl TuneSignal {
    fn observe_commit(&mut self) {
        self.window_commits += 1;
    }

    fn observe_abort(&mut self, reason: AbortReason) {
        self.window_aborts += 1;
        self.window_reasons[reason.index()] += 1;
    }

    /// Folds the finished window into the decayed tallies and snapshots the
    /// DMA counters; called at each window boundary.
    fn roll(&mut self, dma_setups: u64, dma_words: u64) {
        self.decayed_commits = self.decayed_commits / 2 + self.window_commits;
        self.decayed_aborts = self.decayed_aborts / 2 + self.window_aborts;
        for (decayed, window) in self.decayed_reasons.iter_mut().zip(self.window_reasons.iter()) {
            *decayed = *decayed / 2 + window;
        }
        self.window_commits = 0;
        self.window_aborts = 0;
        self.window_reasons = [0; AbortReason::COUNT];
        self.window_dma_setups = dma_setups.saturating_sub(self.last_dma_setups);
        self.window_dma_words = dma_words.saturating_sub(self.last_dma_words);
        self.last_dma_setups = dma_setups;
        self.last_dma_words = dma_words;
    }

    /// Decayed attempts (commits + aborts).
    fn attempts(&self) -> u64 {
        self.decayed_commits + self.decayed_aborts
    }

    /// Decayed aborts whose conflicter still holds something (lock-shaped).
    fn lock_shaped(&self) -> u64 {
        self.decayed_reasons[AbortReason::ReadConflict.index()]
            + self.decayed_reasons[AbortReason::WriteConflict.index()]
            + self.decayed_reasons[AbortReason::UpgradeConflict.index()]
    }

    /// Decayed aborts whose conflicter has already finished (validation
    /// failures, explicit cancels).
    fn drained(&self) -> u64 {
        self.decayed_reasons[AbortReason::ValidationFailed.index()]
            + self.decayed_reasons[AbortReason::Explicit.index()]
    }

    /// Decayed write/upgrade-conflict aborts — the duel-shaped kind that
    /// address-sorted lock acquisition turns into single losers.
    fn duels(&self) -> u64 {
        self.decayed_reasons[AbortReason::WriteConflict.index()]
            + self.decayed_reasons[AbortReason::UpgradeConflict.index()]
    }

    /// Average words per MRAM DMA transfer over the last window (`None`
    /// when the window issued no transfers).
    fn avg_burst_words(&self) -> Option<u64> {
        (self.window_dma_setups > 0).then(|| self.window_dma_words / self.window_dma_setups)
    }
}

/// The per-tasklet online tuner: owns the current knob values, the decaying
/// signal and the decision log. Driven by [`crate::TxEngine`] after every
/// resolved attempt; evaluation and switches are charged through the
/// platform so they cost cycles like everything else.
#[derive(Debug, Clone)]
pub struct Tuner {
    window: u32,
    attempts_in_window: u32,
    windows: u64,
    construction: StmKnobs,
    knobs: StmKnobs,
    signal: TuneSignal,
    decisions: Vec<TuneDecision>,
}

impl Tuner {
    /// Creates a tuner for `policy` starting from the knob values in
    /// `config`; `None` when the policy is [`TunePolicy::Static`].
    pub fn new(policy: TunePolicy, config: &StmConfig) -> Option<Tuner> {
        let TunePolicy::Windowed { window } = policy else { return None };
        let knobs = config.knobs;
        Some(Tuner {
            window: window.max(1),
            attempts_in_window: 0,
            windows: 0,
            construction: knobs,
            knobs,
            signal: TuneSignal::default(),
            decisions: Vec::new(),
        })
    }

    /// Current knob values (`write_back` is never switched).
    pub fn knobs(&self) -> StmKnobs {
        self.knobs
    }

    /// Signal windows evaluated so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Knob switches applied so far.
    pub fn switches(&self) -> u64 {
        self.decisions.len() as u64
    }

    /// The decision log, in application order.
    pub fn decisions(&self) -> &[TuneDecision] {
        &self.decisions
    }

    /// Records a committed attempt. Returns `true` when the observation
    /// completed a signal window (the caller must then run
    /// `Tuner::evaluate`).
    pub fn observe_commit(&mut self) -> bool {
        self.signal.observe_commit();
        self.bump_attempt()
    }

    /// Records an aborted attempt (see [`Tuner::observe_commit`]).
    pub fn observe_abort(&mut self, reason: AbortReason) -> bool {
        self.signal.observe_abort(reason);
        self.bump_attempt()
    }

    fn bump_attempt(&mut self) -> bool {
        self.attempts_in_window += 1;
        self.attempts_in_window >= self.window
    }

    /// Evaluates the finished window against the DMA counters read from the
    /// platform and switches any knobs the evidence warrants, returning the
    /// applied switches (empty when everything stays put).
    pub(crate) fn evaluate(&mut self, dma_setups: u64, dma_words: u64) -> Vec<KnobSwitch> {
        self.attempts_in_window = 0;
        self.windows += 1;
        self.signal.roll(dma_setups, dma_words);
        let mut switches = Vec::new();
        self.tune_retry(&mut switches);
        self.tune_read_strategy(&mut switches);
        self.tune_burst_cap(&mut switches);
        self.tune_lock_order(&mut switches);
        switches
    }

    /// Retry axis: under light contention the cheap fixed window wins;
    /// under drained-conflicter aborts (validation failures, explicit
    /// cancels) the adaptive low cap wins; under lock-shaped contention the
    /// full exponential window is needed for holders to drain.
    fn tune_retry(&mut self, switches: &mut Vec<KnobSwitch>) {
        let attempts = self.signal.attempts();
        if attempts == 0 {
            return;
        }
        let aborts = self.signal.decayed_aborts;
        let target = if aborts * 8 < attempts {
            RetryPolicy::Fixed
        } else if self.signal.drained() >= self.signal.lock_shaped() {
            RetryPolicy::Adaptive
        } else {
            RetryPolicy::Exponential
        };
        if target != self.knobs.retry {
            self.push_switch(
                switches,
                TunedKnob::Retry,
                retry_code(self.knobs.retry),
                retry_code(target),
                self.knobs.retry.name().to_string(),
                target.name().to_string(),
            );
            self.knobs.retry = target;
        }
    }

    /// Read axis: when the window's DMA transfers average under two words,
    /// batching amortises nothing and the word-wise path skips the staging
    /// detour; genuine multi-word bursts keep the batched path.
    fn tune_read_strategy(&mut self, switches: &mut Vec<KnobSwitch>) {
        let Some(avg_burst) = self.signal.avg_burst_words() else { return };
        let target = if avg_burst < 2 { ReadStrategy::WordWise } else { ReadStrategy::Batched };
        if target != self.knobs.read_strategy {
            self.push_switch(
                switches,
                TunedKnob::ReadStrategy,
                read_code(self.knobs.read_strategy),
                read_code(target),
                self.knobs.read_strategy.name().to_string(),
                target.name().to_string(),
            );
            self.knobs.read_strategy = target;
        }
    }

    /// Burst-cap axis: long bursts widen the window in which a stale burst
    /// must be re-validated, so under heavy contention the cap shrinks
    /// (quarter at ≥ 1/2 abort share, half at ≥ 1/4) and under light
    /// contention it returns to the construction cap — never above it, since
    /// the WRAM staging buffer was reserved at construction size.
    fn tune_burst_cap(&mut self, switches: &mut Vec<KnobSwitch>) {
        let attempts = self.signal.attempts();
        if attempts == 0 {
            return;
        }
        let aborts = self.signal.decayed_aborts;
        let full = self.construction.max_burst_words;
        let target = if aborts * 2 >= attempts {
            (full / 4).max(MIN_TUNED_BURST_WORDS).min(full)
        } else if aborts * 4 >= attempts {
            (full / 2).max(MIN_TUNED_BURST_WORDS).min(full)
        } else {
            full
        };
        if target != self.knobs.max_burst_words {
            self.push_switch(
                switches,
                TunedKnob::BurstCap,
                burst_code(self.knobs.max_burst_words),
                burst_code(target),
                self.knobs.max_burst_words.to_string(),
                target.to_string(),
            );
            self.knobs.max_burst_words = target;
        }
    }

    /// Lock-order axis: write/upgrade duels are what the global sorted
    /// acquisition order resolves, so it engages when duels dominate the
    /// abort mix (≥ 1/2) and the plain record order returns when duels all
    /// but vanish (≤ 1/8) — with a hysteresis band between, so the knob does
    /// not flap on a mixed signal.
    fn tune_lock_order(&mut self, switches: &mut Vec<KnobSwitch>) {
        let aborts = self.signal.decayed_aborts;
        if aborts == 0 {
            return;
        }
        let duels = self.signal.duels();
        let target = if duels * 2 >= aborts {
            Some(LockOrder::AddressSorted)
        } else if duels * 8 <= aborts {
            Some(LockOrder::RecordOrder)
        } else {
            None // hysteresis: keep the current order
        };
        if let Some(target) = target {
            if target != self.knobs.lock_order {
                self.push_switch(
                    switches,
                    TunedKnob::LockOrder,
                    order_code(self.knobs.lock_order),
                    order_code(target),
                    self.knobs.lock_order.name().to_string(),
                    target.name().to_string(),
                );
                self.knobs.lock_order = target;
            }
        }
    }

    fn push_switch(
        &mut self,
        switches: &mut Vec<KnobSwitch>,
        knob: TunedKnob,
        from_code: u8,
        to_code: u8,
        from: String,
        to: String,
    ) {
        switches.push(KnobSwitch { knob, from_code, to_code });
        self.decisions.push(TuneDecision { window: self.windows, knob, from, to });
    }
}

/// Runs one post-attempt tuner pass for `engine`-side state: checks the
/// window, charges the evaluation, applies switches (charging each) and
/// reports them to the platform. Returns the new knob values when anything
/// switched.
///
/// Free-standing (rather than a [`Tuner`] method) because the caller must
/// also rewrite its own configuration copy — see
/// [`crate::TxEngine`]'s integration.
pub(crate) fn drive(
    tuner: &mut Tuner,
    window_complete: bool,
    p: &mut dyn Platform,
) -> Option<StmKnobs> {
    if !window_complete {
        return None;
    }
    p.note_tune_window();
    p.compute(TUNE_EVAL_INSTRUCTIONS);
    let (dma_setups, dma_words) = p.dma_stats();
    let switches = tuner.evaluate(dma_setups, dma_words);
    if switches.is_empty() {
        return None;
    }
    for switch in &switches {
        p.note_tune_switch(switch.knob.code(), switch.from_code, switch.to_code);
        p.compute(TUNE_SWITCH_INSTRUCTIONS);
    }
    Some(tuner.knobs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MetadataPlacement, StmKind};

    fn config() -> StmConfig {
        StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Mram)
    }

    fn tuner(window: u32) -> Tuner {
        Tuner::new(TunePolicy::Windowed { window }, &config()).unwrap()
    }

    /// Feeds one window of `commits` commits and per-reason aborts, then
    /// evaluates it (with flat DMA counters unless given).
    fn run_window(t: &mut Tuner, commits: u64, aborts: &[(AbortReason, u64)]) {
        let mut complete = false;
        for _ in 0..commits {
            complete = t.observe_commit();
        }
        for &(reason, count) in aborts {
            for _ in 0..count {
                complete = t.observe_abort(reason);
            }
        }
        assert!(complete, "the feed must fill the window exactly");
        let _ = t.evaluate(0, 0);
    }

    #[test]
    fn static_policy_builds_no_tuner() {
        assert!(Tuner::new(TunePolicy::Static, &config()).is_none());
        assert!(!TunePolicy::Static.is_enabled());
        assert!(TunePolicy::windowed().is_enabled());
    }

    #[test]
    fn policy_parse_roundtrips() {
        assert_eq!(TunePolicy::parse("static"), Some(TunePolicy::Static));
        assert_eq!(TunePolicy::parse("off"), Some(TunePolicy::Static));
        assert_eq!(TunePolicy::parse("windowed"), Some(TunePolicy::windowed()));
        assert_eq!(TunePolicy::parse("windowed:32"), Some(TunePolicy::Windowed { window: 32 }));
        assert_eq!(TunePolicy::parse("windowed:0"), None);
        assert_eq!(TunePolicy::parse("bogus"), None);
        assert_eq!(TunePolicy::Windowed { window: 32 }.to_string(), "windowed:32");
    }

    #[test]
    fn light_contention_settles_on_fixed_retry() {
        let mut t = tuner(16);
        // One abort in sixteen attempts: back-off barely matters.
        for _ in 0..4 {
            run_window(&mut t, 15, &[(AbortReason::ValidationFailed, 1)]);
        }
        assert_eq!(t.knobs().retry, RetryPolicy::Fixed);
    }

    #[test]
    fn validation_dominated_contention_settles_on_adaptive_retry() {
        let mut t = tuner(16);
        for _ in 0..4 {
            run_window(&mut t, 8, &[(AbortReason::ValidationFailed, 8)]);
        }
        assert_eq!(t.knobs().retry, RetryPolicy::Adaptive);
        // ...and a lock-shaped mix pulls it back to exponential.
        for _ in 0..4 {
            run_window(&mut t, 8, &[(AbortReason::ReadConflict, 8)]);
        }
        assert_eq!(t.knobs().retry, RetryPolicy::Exponential);
    }

    #[test]
    fn decayed_signal_reacts_to_phase_changes_within_a_few_windows() {
        let mut t = tuner(16);
        // Long stationary phase: lock-shaped contention.
        for _ in 0..10 {
            run_window(&mut t, 8, &[(AbortReason::WriteConflict, 8)]);
        }
        assert_eq!(t.knobs().retry, RetryPolicy::Exponential);
        // Phase change: validation failures now dominate. The decay halves
        // the old mix every window, so the flip lands within three windows
        // even after ten windows of contrary history.
        let mut flipped_after = None;
        for window in 1..=4u32 {
            run_window(&mut t, 8, &[(AbortReason::ValidationFailed, 8)]);
            if t.knobs().retry == RetryPolicy::Adaptive {
                flipped_after = Some(window);
                break;
            }
        }
        assert!(
            flipped_after.is_some_and(|w| w <= 3),
            "tuner must react to the phase change within 3 windows, got {flipped_after:?}"
        );
    }

    #[test]
    fn burst_cap_shrinks_under_contention_and_recovers_but_never_exceeds_construction() {
        let mut t = tuner(16);
        for _ in 0..4 {
            run_window(&mut t, 2, &[(AbortReason::WriteConflict, 14)]);
        }
        let full = config().knobs.max_burst_words;
        assert_eq!(t.knobs().max_burst_words, (full / 4).max(8), "heavy contention quarters");
        for _ in 0..6 {
            run_window(&mut t, 16, &[]);
        }
        assert_eq!(t.knobs().max_burst_words, full, "calm windows restore the construction cap");
        assert!(
            t.decisions()
                .iter()
                .all(|d| { d.knob != TunedKnob::BurstCap || d.to.parse::<u32>().unwrap() <= full }),
            "the tuner must never exceed the construction-time burst cap"
        );
    }

    #[test]
    fn single_word_dma_windows_switch_reads_to_word_wise() {
        let mut t = tuner(8);
        for _ in 0..8 {
            let _ = t.observe_commit();
        }
        // 40 transfers moving 40 words: average burst of one word.
        let _ = t.evaluate(40, 40);
        assert_eq!(t.knobs().read_strategy, ReadStrategy::WordWise);
        for _ in 0..8 {
            let _ = t.observe_commit();
        }
        // 10 more transfers moving 160 more words: average burst of 16.
        let _ = t.evaluate(50, 200);
        assert_eq!(t.knobs().read_strategy, ReadStrategy::Batched);
    }

    #[test]
    fn lock_order_engages_on_duels_and_disengages_with_hysteresis() {
        let mut t = tuner(16);
        // Start from record order to watch the upgrade engage.
        let cfg =
            config().with_knobs(StmKnobs { lock_order: LockOrder::RecordOrder, ..config().knobs });
        let mut t2 = Tuner::new(TunePolicy::Windowed { window: 16 }, &cfg).unwrap();
        for _ in 0..3 {
            run_window(&mut t2, 4, &[(AbortReason::UpgradeConflict, 12)]);
        }
        assert_eq!(t2.knobs().lock_order, LockOrder::AddressSorted);
        // A mixed signal (between 1/8 and 1/2 duels) keeps the current
        // order instead of flapping.
        run_window(
            &mut t,
            8,
            &[(AbortReason::ValidationFailed, 6), (AbortReason::WriteConflict, 2)],
        );
        assert_eq!(t.knobs().lock_order, config().knobs.lock_order, "hysteresis band holds");
        // Duel-free windows eventually fall back to record order.
        for _ in 0..6 {
            run_window(&mut t2, 4, &[(AbortReason::ValidationFailed, 12)]);
        }
        assert_eq!(t2.knobs().lock_order, LockOrder::RecordOrder);
    }

    #[test]
    fn decisions_are_logged_with_window_and_names() {
        let mut t = tuner(8);
        run_window(&mut t, 0, &[(AbortReason::ValidationFailed, 8)]);
        assert!(t.switches() >= 1);
        let d = &t.decisions()[0];
        assert_eq!(d.window, 1);
        assert!(!d.from.is_empty() && !d.to.is_empty());
        assert_eq!(t.windows(), 1);
    }

    #[test]
    fn knobs_apply_back_into_a_config() {
        let knobs = StmKnobs {
            retry: RetryPolicy::Adaptive,
            read_strategy: ReadStrategy::WordWise,
            max_burst_words: 16,
            lock_order: LockOrder::RecordOrder,
            ..StmKnobs::default()
        };
        let cfg = config().with_knobs(knobs);
        let t = Tuner::new(TunePolicy::windowed(), &cfg).unwrap();
        assert_eq!(t.knobs(), knobs, "the tuner snapshots every knob of its configuration");
        let mut restored = config();
        restored.knobs = t.knobs();
        assert_eq!(restored, cfg);
    }

    #[test]
    fn knob_codes_are_distinct() {
        let codes: Vec<u8> = TunedKnob::ALL.iter().map(|k| k.code()).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), codes.len());
        assert_ne!(retry_code(RetryPolicy::Fixed), retry_code(RetryPolicy::Adaptive));
        assert_eq!(burst_code(64), 8);
        assert_eq!(burst_code(256), 32);
    }
}
