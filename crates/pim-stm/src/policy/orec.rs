//! Invisible reads over per-word ownership records: the TinySTM-style read
//! protocol (Felber, Fetzer, Riegel — PPoPP 2008 / TPDS 2010) as a
//! composable [`ReadPolicy`].
//!
//! Every memory word is covered by an entry of the hashed lock table (see
//! [`crate::locktable`]); an unlocked entry carries the commit timestamp
//! (*version*) of the covered words. Transactions read against a snapshot
//! bound `rv` and may *extend* the snapshot by validating their read set
//! when they encounter a newer version, which avoids many unnecessary
//! aborts compared to TL2-style designs. Composed with the lock-timing and
//! write-policy axes this yields the paper's Tiny family (ETL-WT, ETL-WB,
//! CTL-WB).

use pim_sim::{Addr, Phase};

use crate::access::{WordCheck, WordPlan};
use crate::config::{ReadPolicyKind, WritePolicy as WriteMode};
use crate::error::{Abort, AbortReason};
use crate::locktable::OrecWord;
use crate::platform::Platform;
use crate::shared::StmShared;
use crate::txslot::TxSlot;

use super::{abort_attempt, ReadPolicy, WriteGrant};

/// Bounded number of lock/value re-read attempts a single transactional read
/// performs before giving up and aborting.
const READ_RETRIES: u32 = 8;

/// The invisible-ORec read policy (the Tiny family's protocol).
#[derive(Debug, Clone, Copy, Default)]
pub struct InvisibleOrec;

impl InvisibleOrec {
    /// Value of a word whose ORec this transaction already holds (see
    /// [`crate::access::owned_value`], shared with the other policies).
    fn owned_value(
        &self,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        mode: WriteMode,
    ) -> u64 {
        crate::access::owned_value(mode, tx, p, addr)
    }

    /// Checks that every read-set entry still holds the version observed when
    /// it was read (or is locked by this transaction).
    fn readset_valid(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform) -> bool {
        let me = p.tasklet_id();
        for i in 0..tx.read_set_len() {
            let entry = tx.read_entry(p, i);
            let orec = OrecWord::from_raw(p.load(shared.orec_addr(entry.addr)));
            if orec.is_locked_by(me) {
                continue;
            }
            if orec.is_locked() || orec.version() != entry.aux {
                return false;
            }
        }
        true
    }

    /// Attempts to extend the snapshot bound to the current clock value.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the read set is no longer valid (without rolling
    /// back — the caller owns the abort).
    fn extend(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<(), Abort> {
        let now = p.load(shared.clock_addr());
        if self.readset_valid(shared, tx, p) {
            tx.snapshot = now;
            Ok(())
        } else {
            Err(AbortReason::ValidationFailed.into())
        }
    }
}

impl ReadPolicy for InvisibleOrec {
    const KIND: ReadPolicyKind = ReadPolicyKind::Orec;
    const READ_ONLY_COMMIT_FREE: bool = true;
    const LOG_PREV_METADATA: bool = true;

    fn begin(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform) {
        tx.snapshot = p.load(shared.clock_addr());
    }

    fn read_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        mode: WriteMode,
    ) -> Result<u64, Abort> {
        let me = p.tasklet_id();
        let orec_addr = shared.orec_addr(addr);
        let mut orec = OrecWord::from_raw(p.load(orec_addr));

        // Encounter-time locking: the ORec may already be ours.
        if orec.is_locked_by(me) {
            let value = self.owned_value(tx, p, addr, mode);
            p.set_phase(Phase::OtherExec);
            return Ok(value);
        }

        for _ in 0..READ_RETRIES {
            if orec.is_locked() {
                return Err(abort_attempt(self, shared, tx, p, mode, AbortReason::ReadConflict));
            }
            if orec.version() > tx.snapshot {
                p.set_phase(Phase::ValidatingExec);
                if self.extend(shared, tx, p).is_err() {
                    return Err(abort_attempt(
                        self,
                        shared,
                        tx,
                        p,
                        mode,
                        AbortReason::ValidationFailed,
                    ));
                }
                p.set_phase(Phase::Reading);
            }
            let value = p.load(addr);
            let recheck = OrecWord::from_raw(p.load(orec_addr));
            if recheck.raw() == orec.raw() {
                tx.push_read(p, addr, orec.version());
                p.set_phase(Phase::OtherExec);
                return Ok(value);
            }
            // The ORec changed between the two loads (a concurrent commit or
            // lock); retry against the new ORec contents.
            orec = recheck;
        }
        Err(abort_attempt(self, shared, tx, p, mode, AbortReason::ReadConflict))
    }

    fn try_acquire_write(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        validate_phase: Phase,
    ) -> Result<WriteGrant, AbortReason> {
        let me = p.tasklet_id();
        let orec_addr = shared.orec_addr(addr);
        let orec = OrecWord::from_raw(p.load(orec_addr));
        if orec.is_locked_by(me) {
            return Ok(WriteGrant::AlreadyHeld);
        }
        if orec.is_locked() {
            return Err(AbortReason::WriteConflict);
        }
        if orec.version() > tx.snapshot {
            // A newer committed version exists: extend the snapshot (validate
            // the read set) or give up.
            let prev_phase = p.set_phase(validate_phase);
            let extended = self.extend(shared, tx, p);
            p.set_phase(prev_phase);
            if extended.is_err() {
                return Err(AbortReason::ValidationFailed);
            }
        }
        let outcome = p.compare_and_swap(orec_addr, orec.raw(), OrecWord::locked_by(me).raw());
        if outcome.updated {
            Ok(WriteGrant::Newly { prev_raw: orec.raw() })
        } else {
            Err(AbortReason::WriteConflict)
        }
    }

    fn commit_acquire(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        mode: WriteMode,
    ) -> Result<(), Abort> {
        let me = p.tasklet_id();
        for i in 0..tx.write_set_len() {
            let entry = tx.write_entry(p, i);
            let orec = OrecWord::from_raw(p.load(shared.orec_addr(entry.addr)));
            if orec.is_locked_by(me) {
                continue;
            }
            match self.try_acquire_write(shared, tx, p, entry.addr, Phase::ValidatingCommit) {
                Ok(WriteGrant::Newly { prev_raw }) => tx.set_write_extra_flag(p, i, prev_raw, true),
                Ok(WriteGrant::AlreadyHeld) => {}
                Err(reason) => return Err(abort_attempt(self, shared, tx, p, mode, reason)),
            }
        }
        p.set_phase(Phase::OtherCommit);
        Ok(())
    }

    fn pre_publish(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        mode: WriteMode,
    ) -> Result<u64, Abort> {
        // Take a new commit timestamp from the global clock.
        let wv = p.fetch_add(shared.clock_addr(), 1) + 1;

        // If other transactions committed since our snapshot, the read set
        // must still be valid.
        if wv > tx.snapshot + 1 {
            p.set_phase(Phase::ValidatingCommit);
            if !self.readset_valid(shared, tx, p) {
                return Err(abort_attempt(
                    self,
                    shared,
                    tx,
                    p,
                    mode,
                    AbortReason::ValidationFailed,
                ));
            }
            p.set_phase(Phase::OtherCommit);
        }
        Ok(wv)
    }

    fn post_publish(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform, ticket: u64) {
        // Release every ORec we acquired, stamping it with the new version
        // (strictly larger than any version the ORec ever carried, so the
        // word differs from every earlier sample without an incarnation).
        let release = OrecWord::unlocked(ticket).raw();
        for i in 0..tx.write_set_len() {
            let entry = tx.write_entry(p, i);
            if entry.flag {
                p.store(shared.orec_addr(entry.addr), release);
            }
        }
    }

    /// Restores each acquired ORec to the version it had, at the **next
    /// incarnation**: under write-through the data words it covers carried
    /// this attempt's dirty values while it was locked, and a reader whose
    /// data load fell inside that window must not find the ORec
    /// bit-identical to its pre-lock sample (see [`crate::locktable`]).
    /// [`ReadPolicy::restore_unlogged_grant`] keeps the plain restore: its
    /// grants are newly acquired and not yet logged, so no data word under
    /// them has been written.
    fn release_on_abort(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform) {
        for i in 0..tx.write_set_len() {
            let entry = tx.write_entry(p, i);
            if entry.flag {
                let release = OrecWord::from_raw(entry.extra).next_incarnation();
                p.store(shared.orec_addr(entry.addr), release.raw());
            }
        }
    }

    /// Mirrors the first half of [`InvisibleOrec::read_word`]: serve
    /// own-lock words locally, abort on a foreign lock, extend a stale
    /// snapshot, and otherwise hand back the sampled ORec as the re-check
    /// token.
    fn plan_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        mode: WriteMode,
    ) -> Result<WordPlan, Abort> {
        let me = p.tasklet_id();
        let orec = OrecWord::from_raw(p.load(shared.orec_addr(addr)));
        if orec.is_locked_by(me) {
            let value = self.owned_value(tx, p, addr, mode);
            return Ok(WordPlan::Ready(value));
        }
        if orec.is_locked() {
            return Err(abort_attempt(self, shared, tx, p, mode, AbortReason::ReadConflict));
        }
        if orec.version() > tx.snapshot {
            p.set_phase(Phase::ValidatingExec);
            if self.extend(shared, tx, p).is_err() {
                return Err(abort_attempt(
                    self,
                    shared,
                    tx,
                    p,
                    mode,
                    AbortReason::ValidationFailed,
                ));
            }
            p.set_phase(Phase::Reading);
        }
        Ok(WordPlan::Burst { token: orec.raw() })
    }

    /// Mirrors the second half of the read bracket: the staged value is
    /// consistent iff the ORec is bit-identical to the plan-time sample.
    fn accept_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        _value: u64,
        token: u64,
    ) -> Result<WordCheck, Abort> {
        let recheck = p.load(shared.orec_addr(addr));
        if recheck == token {
            tx.push_read(p, addr, OrecWord::from_raw(token).version());
            Ok(WordCheck::Accept)
        } else {
            Ok(WordCheck::Reread)
        }
    }
}
