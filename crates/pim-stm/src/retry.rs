//! The retry-policy axis: how an aborted attempt waits before retrying.
//!
//! Back-off is the one policy axis that never touches shared metadata, so it
//! composes with every cell of the read × lock × write grid
//! ([`crate::policy`]) and is selected per run via
//! [`crate::StmKnobs::retry`] instead of being baked into the algorithm.
//! The shared retry core ([`crate::engine`]) applies it on **every** abort —
//! closure bodies and step-granular machines, simulator and threads — so a
//! sweep over retry policies is as cheap as a sweep over designs
//! (`pim-exp --retry fixed|exponential|adaptive`).
//!
//! Three policies are provided:
//!
//! * [`RetryPolicy::Exponential`] — bounded randomised exponential back-off,
//!   the pre-policy-grid behaviour and the default ([`backoff`] is the exact
//!   legacy implementation);
//! * [`RetryPolicy::Fixed`] — a constant window plus jitter: the cheapest
//!   possible contention manager, kept as the baseline the adaptive study
//!   compares against;
//! * [`RetryPolicy::Adaptive`] — exponential back-off whose saturation cap
//!   is tuned from the tasklet's own per-[`AbortReason`] abort counts (the
//!   histogram [`crate::TxSlot`] maintains, the same data
//!   [`crate::ExecProfile`] reports). The intuition, from the per-reason
//!   histograms of the unified profiles: a **validation failure** means the
//!   conflicting transaction *already committed* — nothing is held, so long
//!   waits only waste the window before the next conflict; a **lock-shaped
//!   conflict** (read/write/upgrade) means some holder must drain first, so
//!   the full exponential window pays off; an **explicit cancel** sits in
//!   between (application-level interference, e.g. Labyrinth re-routing).
//!
//! All three charge their wait through [`crate::Platform::spin_wait`], so
//! the chosen policy's cost is visible as back-off time (and, on the
//! simulator, as cycles) in the profile tables.

use crate::config::RetryPolicy;
use crate::error::AbortReason;
use crate::platform::Platform;
use crate::txslot::TxSlot;

/// Saturation exponent of the legacy exponential window (2^14 instructions
/// base): large enough that some competitor's window lets the others drain
/// completely even in the worst symmetric duels (commit-time-locking
/// visible reads).
const EXPONENTIAL_CAP: u32 = 14;

/// Window exponent of [`RetryPolicy::Fixed`] (2^6 = 64 instructions — about
/// the cost of a short transaction body, so consecutive retries stay
/// desynchronised without ever parking a tasklet for long).
const FIXED_EXP: u32 = 6;

/// Adaptive saturation cap when validation failures dominate: the
/// conflicting commit has already finished, so retry promptly.
const ADAPTIVE_VALIDATION_CAP: u32 = 7;

/// Adaptive saturation cap when explicit application cancels dominate.
const ADAPTIVE_EXPLICIT_CAP: u32 = 10;

/// Deterministic per-tasklet jitter in `[0, 2^exp)`, derived from the
/// tasklet id and the attempt number so simulated runs stay reproducible.
/// The jitter is what breaks deterministic livelock: tasklets that abort in
/// lockstep would otherwise retry in lockstep forever — the classic
/// symmetric-livelock problem real hardware escapes through timing noise.
fn jitter(p: &dyn Platform, consecutive_aborts: u64, exp: u32) -> u64 {
    let seed = (p.tasklet_id() as u64 + 1)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(consecutive_aborts.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    (seed >> 33) % (1u64 << exp)
}

/// Spins for one back-off window: `2^exp` instructions plus three times the
/// jitter term (the legacy window shape, shared by all three policies).
fn spin_window(p: &mut dyn Platform, consecutive_aborts: u64, exp: u32) {
    let jitter = jitter(p, consecutive_aborts, exp);
    p.spin_wait((1u64 << exp) + 3 * jitter);
}

/// Bounded randomised exponential back-off charged as spin-wait
/// instructions — the [`RetryPolicy::Exponential`] implementation, and
/// bit-for-bit the pre-policy-grid behaviour.
///
/// The window keeps doubling well past the length of a typical transaction:
/// designs that are prone to symmetric duels (most notably the
/// commit-time-locking visible-reads variant, whose readers block each
/// other's upgrades) need some competitor's window to grow large enough
/// that the others can drain completely.
pub fn backoff(p: &mut dyn Platform, consecutive_aborts: u64) {
    if consecutive_aborts == 0 {
        return;
    }
    let exp = consecutive_aborts.min(u64::from(EXPONENTIAL_CAP)) as u32;
    spin_window(p, consecutive_aborts, exp);
}

/// The saturation cap the adaptive policy derives from a tasklet's abort
/// histogram: the full exponential cap while lock-shaped conflicts
/// dominate, a low cap while validation failures do.
fn adaptive_cap(histogram: &[u64; AbortReason::COUNT]) -> u32 {
    let dominant = AbortReason::ALL
        .into_iter()
        .max_by_key(|r| histogram[r.index()])
        .expect("at least one abort reason exists");
    match dominant {
        AbortReason::ValidationFailed => ADAPTIVE_VALIDATION_CAP,
        AbortReason::Explicit => ADAPTIVE_EXPLICIT_CAP,
        AbortReason::ReadConflict | AbortReason::WriteConflict | AbortReason::UpgradeConflict => {
            EXPONENTIAL_CAP
        }
    }
}

/// Applies the configured back-off after an abort. Called by the shared
/// retry core ([`crate::engine`]) once the abort has been accounted, so the
/// descriptor's consecutive-abort counter and abort histogram already
/// include the abort being backed off from.
pub(crate) fn apply(policy: RetryPolicy, tx: &TxSlot, p: &mut dyn Platform) {
    let consecutive = tx.consecutive_aborts();
    if consecutive == 0 {
        return;
    }
    match policy {
        RetryPolicy::Exponential => backoff(p, consecutive),
        RetryPolicy::Fixed => spin_window(p, consecutive, FIXED_EXP),
        RetryPolicy::Adaptive => {
            let cap = adaptive_cap(tx.abort_histogram());
            let exp = consecutive.min(u64::from(cap)) as u32;
            spin_window(p, consecutive, exp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{Dpu, DpuConfig, TaskletCtx, TaskletStats, Tier};

    /// Cycles consumed by one `apply` call under controlled descriptor
    /// state.
    fn measure(
        policy: RetryPolicy,
        tasklet: usize,
        consecutive: u64,
        reasons: &[(AbortReason, u64)],
    ) -> u64 {
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut stats = TaskletStats::new();
        let rs = dpu.alloc(Tier::Wram, 4).unwrap();
        let mut slot = TxSlot::new(tasklet, rs, 1, rs.offset(2), 0);
        for &(reason, count) in reasons {
            for _ in 0..count {
                slot.note_abort(reason);
            }
        }
        // note_abort above already advanced the counter; top it up (or trim
        // is impossible — tests only add) to the requested value.
        while slot.consecutive_aborts() < consecutive {
            slot.note_abort(AbortReason::WriteConflict);
        }
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, tasklet, 1, 0);
        apply(policy, &slot, &mut ctx);
        ctx.now()
    }

    #[test]
    fn exponential_matches_the_legacy_backoff_exactly() {
        for aborts in [1u64, 3, 7, 20] {
            let via_policy = measure(RetryPolicy::Exponential, 2, aborts, &[]);
            let mut dpu = Dpu::new(DpuConfig::small());
            let mut stats = TaskletStats::new();
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 2, 1, 0);
            backoff(&mut ctx, aborts);
            assert_eq!(via_policy, ctx.now(), "{aborts} aborts");
        }
    }

    #[test]
    fn fixed_windows_do_not_grow_with_consecutive_aborts() {
        // The jitter varies per attempt, but the window stays bounded by the
        // fixed exponent instead of doubling.
        let bound = (1u64 << FIXED_EXP) + 3 * ((1u64 << FIXED_EXP) - 1);
        for aborts in [1u64, 5, 30] {
            let cycles = measure(RetryPolicy::Fixed, 0, aborts, &[]);
            assert!(cycles > 0);
            // Instructions are charged at >= 1 cycle each; 24 is the deepest
            // issue contention possible.
            assert!(cycles <= bound * 24, "{aborts} aborts: {cycles} cycles");
        }
        let exponential = measure(RetryPolicy::Exponential, 0, 14, &[]);
        let fixed = measure(RetryPolicy::Fixed, 0, 14, &[]);
        assert!(fixed < exponential, "a saturated exponential window must dwarf the fixed one");
    }

    #[test]
    fn adaptive_backs_off_less_when_validation_failures_dominate() {
        let lock_dominated =
            measure(RetryPolicy::Adaptive, 1, 12, &[(AbortReason::WriteConflict, 12)]);
        let validation_dominated =
            measure(RetryPolicy::Adaptive, 1, 12, &[(AbortReason::ValidationFailed, 12)]);
        assert!(
            validation_dominated < lock_dominated,
            "validation-dominated histograms must cap the window low \
             ({validation_dominated} vs {lock_dominated} cycles)"
        );
        // Lock-dominated behaviour is the full legacy window.
        assert_eq!(lock_dominated, measure(RetryPolicy::Exponential, 1, 12, &[]));
    }

    #[test]
    fn adaptive_caps_are_ordered_by_how_long_the_conflicter_holds_on() {
        const { assert!(ADAPTIVE_VALIDATION_CAP < ADAPTIVE_EXPLICIT_CAP) };
        const { assert!(ADAPTIVE_EXPLICIT_CAP < EXPONENTIAL_CAP) };
        let mut histogram = [0u64; AbortReason::COUNT];
        histogram[AbortReason::ValidationFailed.index()] = 3;
        assert_eq!(adaptive_cap(&histogram), ADAPTIVE_VALIDATION_CAP);
        histogram[AbortReason::UpgradeConflict.index()] = 5;
        assert_eq!(adaptive_cap(&histogram), EXPONENTIAL_CAP);
        histogram[AbortReason::Explicit.index()] = 9;
        assert_eq!(adaptive_cap(&histogram), ADAPTIVE_EXPLICIT_CAP);
    }

    #[test]
    fn no_policy_waits_before_the_first_abort() {
        for policy in RetryPolicy::ALL {
            assert_eq!(measure(policy, 0, 0, &[]), 0, "{policy}");
        }
    }

    #[test]
    fn different_tasklets_receive_different_jitter() {
        for policy in RetryPolicy::ALL {
            assert_ne!(
                measure(policy, 0, 5, &[]),
                measure(policy, 1, 5, &[]),
                "{policy}: jitter is what breaks deterministic livelock"
            );
        }
    }

    #[test]
    fn backoff_grows_with_attempts_and_stays_bounded() {
        let measure = |tasklet: usize, attempts: u64| {
            let mut dpu = Dpu::new(DpuConfig::small());
            let mut stats = TaskletStats::new();
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, tasklet, 1, 0);
            backoff(&mut ctx, attempts);
            ctx.now()
        };
        assert_eq!(measure(0, 0), 0, "no back-off before the first abort");
        let after_one = measure(0, 1);
        let after_ten = measure(0, 10);
        assert!(after_one > 0);
        assert!(after_ten > after_one, "back-off must grow with consecutive aborts");
        // Bounded: even after absurdly many aborts the wait stays within the
        // saturation window (2^14 base + jitter, `EXPONENTIAL_CAP`).
        let after_many = measure(0, 1_000);
        assert!(after_many <= measure_upper_bound());
        // Different tasklets receive different jitter (this is what breaks
        // deterministic livelock in the simulator).
        assert_ne!(measure(0, 5), measure(1, 5));
    }

    fn measure_upper_bound() -> u64 {
        // (2^14 + 3 * (2^14 - 1)) instructions, each costing at most 24
        // cycles (the deepest issue contention possible).
        (16384 + 3 * 16383) * 24
    }
}
