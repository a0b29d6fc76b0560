//! Abort signalling for transactional operations, and the error type of the
//! executor entry points.

use pim_sim::AllocError;
use std::fmt;

/// Reason a transaction attempt had to abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// A read observed a location locked (or being written) by another
    /// transaction.
    ReadConflict,
    /// A write found the location locked by another transaction.
    WriteConflict,
    /// Readset (or snapshot) validation failed: a concurrently committed
    /// transaction overwrote something this transaction read.
    ValidationFailed,
    /// A visible-reads transaction could not upgrade a read lock to a write
    /// lock because other readers hold it.
    UpgradeConflict,
    /// The application cancelled the attempt itself (via
    /// [`crate::TxOps::cancel`]) after observing application-level
    /// interference — e.g. Labyrinth finding a path cell already claimed by a
    /// concurrently committed route.
    Explicit,
}

impl AbortReason {
    /// All reasons, for reporting.
    pub const ALL: [AbortReason; 5] = [
        AbortReason::ReadConflict,
        AbortReason::WriteConflict,
        AbortReason::ValidationFailed,
        AbortReason::UpgradeConflict,
        AbortReason::Explicit,
    ];

    /// Number of distinct reasons.
    pub(crate) const COUNT: usize = AbortReason::ALL.len();

    /// Stable index of this reason in histogram arrays (the abort-code slot
    /// used by [`pim_sim::ProfileCore`]).
    pub fn index(self) -> usize {
        match self {
            AbortReason::ReadConflict => 0,
            AbortReason::WriteConflict => 1,
            AbortReason::ValidationFailed => 2,
            AbortReason::UpgradeConflict => 3,
            AbortReason::Explicit => 4,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::ReadConflict => "read conflict",
            AbortReason::WriteConflict => "write conflict",
            AbortReason::ValidationFailed => "validation failed",
            AbortReason::UpgradeConflict => "lock upgrade conflict",
            AbortReason::Explicit => "explicit application cancel",
        }
    }
}

/// Error returned by transactional reads, writes and commits when the
/// attempt must be retried.
///
/// By the time an operation returns `Abort`, the algorithm has already rolled
/// back its side effects (released locks, undone write-through stores); the
/// caller only needs to account the abort and restart the transaction body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Abort {
    /// Why the attempt failed.
    pub reason: AbortReason,
}

impl Abort {
    /// Creates an abort with the given reason.
    pub fn new(reason: AbortReason) -> Self {
        Abort { reason }
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted: {}", self.reason.label())
    }
}

impl std::error::Error for Abort {}

impl From<AbortReason> for Abort {
    fn from(reason: AbortReason) -> Self {
        Abort::new(reason)
    }
}

/// Error returned by executor entry points such as
/// [`crate::threaded::ThreadedDpu::run`].
///
/// Configuration problems (too many tasklets, metadata that does not fit)
/// are reported as values instead of panics, so library users can surface
/// them however they like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// More tasklets were requested than the hardware supports.
    TooManyTasklets {
        /// Tasklets the caller asked for.
        requested: usize,
        /// Hardware limit (24 on UPMEM DPUs).
        max: usize,
    },
    /// Allocating per-tasklet transaction logs (or other metadata) failed.
    Alloc(AllocError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::TooManyTasklets { requested, max } => {
                write!(f, "requested {requested} tasklets but the DPU supports at most {max}")
            }
            RunError::Alloc(e) => write!(f, "allocating STM metadata failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<AllocError> for RunError {
    fn from(e: AllocError) -> Self {
        RunError::Alloc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_error_display_names_the_limit() {
        let e = RunError::TooManyTasklets { requested: 25, max: 24 };
        assert!(e.to_string().contains("25"));
        assert!(e.to_string().contains("at most 24"));
    }

    #[test]
    fn display_is_informative() {
        let e = Abort::new(AbortReason::UpgradeConflict);
        assert_eq!(e.to_string(), "transaction aborted: lock upgrade conflict");
    }

    #[test]
    fn conversion_from_reason() {
        let e: Abort = AbortReason::ReadConflict.into();
        assert_eq!(e.reason, AbortReason::ReadConflict);
    }

    #[test]
    fn all_reasons_have_distinct_labels() {
        let labels: std::collections::HashSet<_> =
            AbortReason::ALL.iter().map(|r| r.label()).collect();
        assert_eq!(labels.len(), AbortReason::ALL.len());
    }

    #[test]
    fn reason_indices_are_dense_and_fit_the_histogram_slots() {
        let mut seen = [false; AbortReason::COUNT];
        for reason in AbortReason::ALL {
            assert!(!seen[reason.index()], "duplicate index for {}", reason.label());
            seen[reason.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // (That the indices fit pim_sim's histogram slots is enforced at
        // compile time by the const assert in crate::profile.)
    }
}
