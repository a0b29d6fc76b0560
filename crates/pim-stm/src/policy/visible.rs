//! Visible reads over per-word read-write locks: classic DBMS-style lock
//! based concurrency control adapted to provide opacity (the paper's own
//! contribution, §3.2.1), as a composable [`ReadPolicy`].
//!
//! Every memory word is covered by a read-write lock in the hashed lock
//! table (see [`crate::rwlock`]). Transactions acquire the lock in read mode
//! as soon as they read — making reads *visible* to writers — and in write
//! mode at encounter or commit time (the lock-timing axis). Because writers
//! can never invalidate something a live reader depends on, **no read-set
//! validation is ever needed**; the price is the cost of tracking readers
//! and spurious aborts when read locks cannot be upgraded. Composed with
//! the other axes this yields the paper's VR family (ETL-WT, ETL-WB,
//! CTL-WB).

use pim_sim::{Addr, Phase};

use crate::access::{WordCheck, WordPlan};
use crate::config::{ReadPolicyKind, WritePolicy as WriteMode};
use crate::error::{Abort, AbortReason};
use crate::platform::Platform;
use crate::rwlock::RwLockWord;
use crate::shared::StmShared;
use crate::txslot::TxSlot;

use super::{abort_attempt, ReadPolicy, WriteGrant};

/// Result of trying to take a lock-table entry in read mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadAcquire {
    /// We now hold (or already held) the lock in read mode.
    Held,
    /// We already hold the lock in write mode.
    OwnedWrite,
    /// Another transaction holds the lock in write mode.
    Conflict,
}

/// The visible-reads policy (the VR family's protocol).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct VisibleReadLocks;

impl VisibleReadLocks {
    fn acquire_read(&self, shared: &StmShared, p: &mut dyn Platform, addr: Addr) -> ReadAcquire {
        let me = p.tasklet_id();
        let mut result = ReadAcquire::Held;
        p.atomic_update(shared.orec_addr(addr), &mut |raw| {
            let word = RwLockWord::from_raw(raw);
            match word.writer() {
                Some(owner) if owner == me => {
                    result = ReadAcquire::OwnedWrite;
                    None
                }
                Some(_) => {
                    result = ReadAcquire::Conflict;
                    None
                }
                None => {
                    result = ReadAcquire::Held;
                    if word.has_reader(me) {
                        None
                    } else {
                        Some(word.with_reader(me).raw())
                    }
                }
            }
        });
        result
    }

    /// Value of a word this transaction already write-locks (see
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

    /// Releases every lock this transaction holds: write locks named by the
    /// write/undo log and read locks named by the read set. Both operations
    /// are idempotent, so hash aliasing and duplicate log entries are
    /// harmless.
    fn release_locks(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform) {
        let me = p.tasklet_id();
        for i in 0..tx.write_set_len() {
            let entry = tx.write_entry(p, i);
            p.atomic_update(shared.orec_addr(entry.addr), &mut |raw| {
                let word = RwLockWord::from_raw(raw);
                if word.is_write_locked_by(me) {
                    Some(RwLockWord::free().raw())
                } else {
                    None
                }
            });
        }
        for i in 0..tx.read_set_len() {
            let entry = tx.read_entry(p, i);
            p.atomic_update(shared.orec_addr(entry.addr), &mut |raw| {
                let word = RwLockWord::from_raw(raw);
                if word.has_reader(me) {
                    Some(word.without_reader(me).raw())
                } else {
                    None
                }
            });
        }
    }
}

impl ReadPolicy for VisibleReadLocks {
    const KIND: ReadPolicyKind = ReadPolicyKind::VisibleLocks;
    // Read-only transactions still hold read locks that must be released at
    // commit, so their commit is not free.
    const READ_ONLY_COMMIT_FREE: bool = false;
    // Write locks are released by scanning the logs, not by restoring a
    // logged previous word.
    const LOG_PREV_METADATA: bool = false;

    fn begin(&self, _shared: &StmShared, _tx: &mut TxSlot, _p: &mut dyn Platform) {}

    fn read_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        mode: WriteMode,
    ) -> Result<u64, Abort> {
        let value = match self.acquire_read(shared, p, addr) {
            ReadAcquire::Conflict => {
                return Err(abort_attempt(self, shared, tx, p, mode, AbortReason::ReadConflict))
            }
            ReadAcquire::OwnedWrite => self.owned_value(tx, p, addr, mode),
            ReadAcquire::Held => {
                let value = p.load(addr);
                tx.push_read(p, addr, 0);
                value
            }
        };
        p.set_phase(Phase::OtherExec);
        Ok(value)
    }

    fn try_acquire_write(
        &self,
        shared: &StmShared,
        _tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        _validate_phase: Phase,
    ) -> Result<WriteGrant, AbortReason> {
        let me = p.tasklet_id();
        let mut result = Ok(());
        let outcome = p.atomic_update(shared.orec_addr(addr), &mut |raw| {
            let word = RwLockWord::from_raw(raw);
            if word.is_write_locked_by(me) {
                result = Ok(());
                None
            } else if word.writer().is_some() {
                result = Err(AbortReason::WriteConflict);
                None
            } else if word.is_free() || word.sole_reader_is(me) {
                // Free, or an upgrade of our own read lock.
                result = Ok(());
                Some(RwLockWord::write_locked_by(me).raw())
            } else {
                result = Err(AbortReason::UpgradeConflict);
                None
            }
        });
        result.map(|()| {
            if outcome.updated {
                WriteGrant::Newly { prev_raw: outcome.previous }
            } else {
                WriteGrant::AlreadyHeld
            }
        })
    }

    fn commit_acquire(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        mode: WriteMode,
    ) -> Result<(), Abort> {
        for i in 0..tx.write_set_len() {
            let entry = tx.write_entry(p, i);
            if let Err(reason) =
                self.try_acquire_write(shared, tx, p, entry.addr, Phase::ValidatingCommit)
            {
                return Err(abort_attempt(self, shared, tx, p, mode, reason));
            }
        }
        Ok(())
    }

    /// Thanks to visible reads no validation is needed: every location this
    /// transaction read is still read-locked by it, so no writer can have
    /// changed it. The ticket is unused.
    fn pre_publish(
        &self,
        _shared: &StmShared,
        _tx: &mut TxSlot,
        _p: &mut dyn Platform,
        _mode: WriteMode,
    ) -> Result<u64, Abort> {
        Ok(0)
    }

    fn post_publish(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        _ticket: u64,
    ) {
        self.release_locks(shared, tx, p);
    }

    fn release_on_abort(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform) {
        self.release_locks(shared, tx, p);
    }

    /// Mirrors [`VisibleReadLocks::read_word`]'s lock protocol: serve
    /// own-write-lock words locally, abort on a foreign write lock, and
    /// otherwise take the read lock — which *pins* the word for the rest of
    /// the transaction, so the read-set entry can be pushed before the data
    /// even moves.
    fn plan_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        mode: WriteMode,
    ) -> Result<WordPlan, Abort> {
        match self.acquire_read(shared, p, addr) {
            ReadAcquire::Conflict => {
                Err(abort_attempt(self, shared, tx, p, mode, AbortReason::ReadConflict))
            }
            ReadAcquire::OwnedWrite => Ok(WordPlan::Ready(self.owned_value(tx, p, addr, mode))),
            ReadAcquire::Held => {
                tx.push_read(p, addr, 0);
                Ok(WordPlan::Burst { token: 0 })
            }
        }
    }

    /// The read lock acquired at plan time blocks every writer, so the
    /// staged value is always consistent (the bookkeeping already happened
    /// in [`ReadPolicy::plan_word`]).
    fn accept_word(
        &self,
        _shared: &StmShared,
        _tx: &mut TxSlot,
        _p: &mut dyn Platform,
        _addr: Addr,
        _value: u64,
        _token: u64,
    ) -> Result<WordCheck, Abort> {
        Ok(WordCheck::Accept)
    }
}
