//! Value-validated reads under a single global sequence lock: the NOrec
//! protocol (Dalessandro, Spear, Scott — PPoPP 2010) as a composable
//! [`ReadPolicy`].
//!
//! This policy abolishes per-word metadata: the only shared state is one
//! *sequence lock* whose value is even when no writer is committing and odd
//! while one is. Reads are invisible and validated **by value** — whenever a
//! transaction observes that the sequence lock changed, it re-reads every
//! location in its read set and compares against the values it saw before.
//! Commits serialise on the sequence lock, which is why the policy composes
//! only with commit-time locking and write-back (see
//! [`crate::config::TmComposition::is_coherent`]): there are no per-word
//! locks to take at encounter time or to hold over an exposed in-place
//! store. Waiting for the sequence lock to become even before starting
//! doubles as a simple contention-management mechanism (§3.2.1 of the
//! paper).

use pim_sim::{Addr, Phase};

use crate::access::{WordCheck, WordPlan};
use crate::config::{ReadPolicyKind, WritePolicy as WriteMode};
use crate::error::{Abort, AbortReason};
use crate::platform::Platform;
use crate::shared::StmShared;
use crate::txslot::TxSlot;

use super::{ReadPolicy, WriteGrant};

/// The value-validation read policy (NOrec's protocol).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ValueValidation;

impl ValueValidation {
    /// Spins until the sequence lock is even (no writer committing) and
    /// returns its value.
    fn wait_until_even(&self, shared: &StmShared, p: &mut dyn Platform) -> u64 {
        loop {
            let s = p.load(shared.seqlock_addr());
            if s.is_multiple_of(2) {
                return s;
            }
            p.spin_wait(4);
        }
    }

    /// Value-based read-set validation. Returns a new consistent snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if any location in the read set no longer holds the
    /// value this transaction observed.
    fn validate(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<u64, Abort> {
        loop {
            let time = self.wait_until_even(shared, p);
            for i in 0..tx.read_set_len() {
                let entry = tx.read_entry(p, i);
                if p.load(entry.addr) != entry.aux {
                    return Err(AbortReason::ValidationFailed.into());
                }
            }
            // If no commit happened while we were validating, the snapshot is
            // consistent; otherwise validate again against the newer state.
            if p.load(shared.seqlock_addr()) == time {
                return Ok(time);
            }
        }
    }

    /// Catches up with concurrent commits: re-validates by value until the
    /// sequence lock holds still at this transaction's snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on validation failure (there are no locks to
    /// release, so the abort is already complete).
    fn resync(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<(), Abort> {
        while p.load(shared.seqlock_addr()) != tx.snapshot {
            p.set_phase(Phase::ValidatingExec);
            match self.validate(shared, tx, p) {
                Ok(snapshot) => tx.snapshot = snapshot,
                Err(abort) => {
                    p.set_phase(Phase::OtherExec);
                    return Err(abort);
                }
            }
            p.set_phase(Phase::Reading);
        }
        Ok(())
    }
}

impl ReadPolicy for ValueValidation {
    const KIND: ReadPolicyKind = ReadPolicyKind::ValueValidation;
    // Read-only transactions were continuously validated by the read path;
    // nothing to publish, nothing to release.
    const READ_ONLY_COMMIT_FREE: bool = true;
    const LOG_PREV_METADATA: bool = false;

    fn begin(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform) {
        // Waiting for in-flight commits to drain before starting acts as a
        // back-off under contention (§3.2.1 of the paper).
        tx.snapshot = self.wait_until_even(shared, p);
    }

    fn read_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        _mode: WriteMode,
    ) -> Result<u64, Abort> {
        let mut value = p.load(addr);
        // If any transaction committed since our snapshot, re-validate by
        // value and re-read until the world holds still.
        while p.load(shared.seqlock_addr()) != tx.snapshot {
            p.set_phase(Phase::ValidatingExec);
            match self.validate(shared, tx, p) {
                Ok(snapshot) => tx.snapshot = snapshot,
                Err(abort) => {
                    p.set_phase(Phase::OtherExec);
                    return Err(abort);
                }
            }
            p.set_phase(Phase::Reading);
            value = p.load(addr);
        }
        tx.push_read(p, addr, value);
        p.set_phase(Phase::OtherExec);
        Ok(value)
    }

    fn try_acquire_write(
        &self,
        _shared: &StmShared,
        _tx: &mut TxSlot,
        _p: &mut dyn Platform,
        _addr: Addr,
        _validate_phase: Phase,
    ) -> Result<WriteGrant, AbortReason> {
        unreachable!(
            "value validation has no per-word locks; encounter-time compositions are \
             rejected at construction"
        )
    }

    /// Commit-time "acquisition" is the global sequence lock: move it from
    /// our (even) snapshot to an odd value. Failure means someone committed
    /// after our snapshot: re-validate and retry from the new snapshot.
    fn commit_acquire(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        _mode: WriteMode,
    ) -> Result<(), Abort> {
        loop {
            let outcome = p.compare_and_swap(shared.seqlock_addr(), tx.snapshot, tx.snapshot + 1);
            if outcome.updated {
                return Ok(());
            }
            p.set_phase(Phase::ValidatingCommit);
            match self.validate(shared, tx, p) {
                Ok(snapshot) => tx.snapshot = snapshot,
                Err(abort) => {
                    p.set_phase(Phase::OtherExec);
                    return Err(abort);
                }
            }
            p.set_phase(Phase::OtherCommit);
        }
    }

    /// The odd sequence lock acquired by
    /// [`ValueValidation::commit_acquire`] serialises every other commit and
    /// validation; nothing further to check. The ticket is unused.
    fn pre_publish(
        &self,
        _shared: &StmShared,
        _tx: &mut TxSlot,
        _p: &mut dyn Platform,
        _mode: WriteMode,
    ) -> Result<u64, Abort> {
        Ok(0)
    }

    /// Releases the sequence lock, making the published writes visible as
    /// one atomic commit.
    fn post_publish(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        _ticket: u64,
    ) {
        p.store(shared.seqlock_addr(), tx.snapshot + 2);
    }

    /// No locks are ever held outside the commit critical section, so an
    /// abort has nothing to release.
    fn release_on_abort(&self, _shared: &StmShared, _tx: &mut TxSlot, _p: &mut dyn Platform) {}

    /// Only the redo log can serve a word locally (and the engine's
    /// commit-time gate already did); there is no per-word metadata to
    /// sample, so the token is unused.
    fn plan_word(
        &self,
        _shared: &StmShared,
        _tx: &mut TxSlot,
        _p: &mut dyn Platform,
        _addr: Addr,
        _mode: WriteMode,
    ) -> Result<WordPlan, Abort> {
        Ok(WordPlan::Burst { token: 0 })
    }

    /// Value-based validation: remember the observed value so later
    /// validations can compare against it.
    fn accept_word(
        &self,
        _shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        value: u64,
        _token: u64,
    ) -> Result<WordCheck, Abort> {
        tx.push_read(p, addr, value);
        Ok(WordCheck::Accept)
    }

    /// Catches up with concurrent commits before issuing the burst, exactly
    /// like the single-word read does before its load.
    fn before_burst(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<(), Abort> {
        self.resync(shared, tx, p)
    }

    /// Unchanged sequence lock ⇒ no commit overlapped the burst ⇒ the
    /// staged words form a consistent snapshot; otherwise the driver
    /// re-issues the pass after [`ReadPolicy::before_burst`] re-validates.
    fn burst_stable(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<bool, Abort> {
        Ok(p.load(shared.seqlock_addr()) == tx.snapshot)
    }
}
