//! The policy-composable STM engine: the seven monolithic designs
//! re-expressed as one generic [`ComposedTm`] over orthogonal policy axes.
//!
//! # Why this layer exists
//!
//! PIM-STM's central claim is that its designs share one structure and
//! differ only along a few orthogonal axes. The original reproduction
//! hard-coded that design space as three monolithic algorithm families
//! (Tiny, VR, NOrec) with heavy duplication between them. This module turns
//! the flat [`StmKind`](crate::StmKind) enum into a real design *grid*:
//!
//! ```text
//! ComposedTm<R: ReadPolicy, L: LockPolicy, W: WritePolicy>
//!            │               │              │
//!            │               │              └ redo log (write-back) vs
//!            │               │                in-place + undo log
//!            │               └ encounter-time vs commit-time acquisition
//!            └ invisible ORec reads (Tiny) / visible read-locks (VR) /
//!              value-validated seqlock reads (NOrec)
//! ```
//!
//! plus an independent retry axis ([`crate::RetryPolicy`], owned by the
//! shared retry core in [`crate::engine`] rather than by the algorithm —
//! back-off never touches shared metadata, so it composes with *every*
//! cell).
//!
//! # Which hooks each axis owns
//!
//! * **[`LockPolicy`]** is pure timing: it decides whether
//!   [`ComposedTm::write`] acquires ownership immediately
//!   ([`EncounterTime`]) or merely buffers and leaves acquisition to a
//!   commit-time pass ([`CommitTime`]), and whether reads must first
//!   consult the redo log (commit-time designs buffer writes invisibly, so
//!   read-after-write goes through [`crate::TxSlot::find_write`]).
//! * **[`WritePolicy`]** decides what a write *does* once ownership is
//!   held: [`WriteBack`] appends to a redo log that the shared publication
//!   pass ([`crate::writeback`]) copies out at commit; [`WriteThrough`]
//!   stores in place and appends the old value to an undo log replayed on
//!   abort. The undo replay itself lives here (in the private `rollback_data`
//!   helper), one
//!   implementation for every read policy.
//! * **[`ReadPolicy`]** owns everything that touches conflict-detection
//!   metadata: the single-word read protocol, write-lock
//!   acquisition/release, commit-time acquisition of the whole write set,
//!   pre-publication validation and the commit ticket, post-publication
//!   release/stamping, and the [`crate::access::RecordReader`]-shaped hooks
//!   of the batched record read. This axis subsumes the paper's *metadata
//!   granularity* and *read visibility* dimensions — the choice of read
//!   protocol dictates both.
//!
//! # Coherence
//!
//! Not every cell of the grid is a sound STM ([`TmComposition::is_coherent`]
//! is the single source of truth, checked when a [`ComposedTm`] is
//! constructed — at *compile time* for the seven cells
//! [`crate::TxEngine`] dispatches to):
//!
//! * **CTL + WT is rejected**: a commit-time-locking transaction may abort
//!   after its writes ran, and write-through would already have exposed
//!   them to readers that never see a lock.
//! * **Value validation (NOrec) composes only with CTL + WB**: with no
//!   per-word locks there is nothing to acquire at encounter time and
//!   nothing to hold while an in-place store is visible.
//!
//! The seven coherent cells are exactly the paper's seven designs;
//! [`crate::TxEngine`] matches every legacy [`StmKind`](crate::StmKind)
//! onto its composition. The retired monolithic implementations have been deleted;
//! the policy equivalence suite replays this engine against golden
//! outcomes pinned while they still existed.
//!
//! # Equivalence contract
//!
//! Each composition issues the **same platform-operation sequence** as the
//! monolith it replaces (same loads, stores, atomics, phase switches in the
//! same order), so on the deterministic simulator a composed run is
//! bit-identical to a pre-redesign run: same commits, same per-reason abort
//! histogram, same final memory, same cycle counts. `tests/
//! policy_equivalence.rs` enforces this against pinned goldens. The one
//! deliberate behavioural extension is the sorted multi-ORec acquisition of
//! [`ComposedTm::write_record`] under encounter-time locking
//! ([`crate::LockOrder::AddressSorted`]); configuring
//! [`crate::LockOrder::RecordOrder`] restores the legacy per-word path
//! exactly.

mod orec;
mod seqlock;
mod visible;

pub use orec::InvisibleOrec;
pub(crate) use seqlock::ValueValidation;
pub(crate) use visible::VisibleReadLocks;

use std::marker::PhantomData;

use pim_sim::{Addr, Phase};

use crate::access::{RecordReader, WordCheck, WordPlan};
use crate::config::{
    LockOrder, LockTiming, ReadPolicyKind, TmComposition, WritePolicy as WriteMode,
};
use crate::error::{Abort, AbortReason};
use crate::platform::Platform;
use crate::shared::StmShared;
use crate::txslot::{TxScratch, TxSlot};

/// The lock-timing axis: *when* write ownership is acquired. Pure timing —
/// the acquisition mechanism belongs to the [`ReadPolicy`].
pub trait LockPolicy: Send + Sync + 'static {
    /// The [`LockTiming`] this policy implements.
    const TIMING: LockTiming;
}

/// Encounter-time locking: ownership is acquired at the first write to a
/// location.
#[derive(Debug, Clone, Copy, Default)]
pub struct EncounterTime;

/// Commit-time locking: writes buffer unlocked; the whole write set is
/// acquired during commit.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommitTime;

impl LockPolicy for EncounterTime {
    const TIMING: LockTiming = LockTiming::Encounter;
}

impl LockPolicy for CommitTime {
    const TIMING: LockTiming = LockTiming::Commit;
}

/// The write-policy axis: what a write does once ownership is held.
pub trait WritePolicy: Send + Sync + 'static {
    /// The [`WriteMode`] this policy implements.
    const MODE: WriteMode;
}

/// Writes buffer in a redo log published at commit by the shared
/// [`crate::writeback`] pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteBack;

/// Writes go straight to memory; an undo log restores old values on abort.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteThrough;

impl WritePolicy for WriteBack {
    const MODE: WriteMode = WriteMode::WriteBack;
}

impl WritePolicy for WriteThrough {
    const MODE: WriteMode = WriteMode::WriteThrough;
}

/// Outcome of a successful write-lock acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteGrant {
    /// This transaction already held the lock (possibly through an aliased
    /// address); nothing new to release or restore.
    AlreadyHeld,
    /// The lock was newly acquired; `prev_raw` is the metadata word it
    /// replaced, needed to restore the entry on release/rollback.
    Newly {
        /// Raw metadata word observed immediately before the acquisition.
        prev_raw: u64,
    },
}

/// The read-protocol axis: everything that touches conflict-detection
/// metadata. See the [module documentation](self) for the hook ownership
/// table and `tests/policy_equivalence.rs` for the behavioural contract.
///
/// Hooks that return [`Abort`] have already rolled the attempt back
/// (replayed the undo log, released/restored every lock) — the same
/// contract [`ComposedTm`] and [`RecordReader`] operations follow. Hooks
/// that return a bare [`AbortReason`] have **not** rolled back; the engine
/// completes the abort (undo replay, lock release, phase restore) itself.
pub trait ReadPolicy: Send + Sync + 'static {
    /// Which grid axis value this policy implements.
    const KIND: ReadPolicyKind;

    /// Whether a read-only transaction's commit is a pure no-op. True for
    /// invisible-read policies; visible reads must still release their read
    /// locks.
    const READ_ONLY_COMMIT_FREE: bool;

    /// Whether newly acquired write locks record the previous metadata word
    /// (and a release flag) in their write-log entry. ORec designs restore
    /// versions from the log on rollback; rw-lock designs release by
    /// scanning the logs instead.
    const LOG_PREV_METADATA: bool;

    /// Starts (or restarts) an attempt: snapshot/seqlock bookkeeping only —
    /// the engine already reset the logs and the accounting phase.
    fn begin(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform);

    /// Full single-word transactional read. The engine has already switched
    /// to the read phase and, for commit-time locking, served the word from
    /// the redo log if possible.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with the attempt fully rolled back.
    fn read_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        mode: WriteMode,
    ) -> Result<u64, Abort>;

    /// Attempts to acquire write ownership of `addr` without rolling back
    /// on failure (the caller completes the abort). `validate_phase` is the
    /// accounting phase charged if acquisition triggers read-set validation
    /// (ORec snapshot extension).
    ///
    /// # Errors
    ///
    /// Returns the abort reason on conflict; **no rollback has happened**.
    fn try_acquire_write(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        validate_phase: Phase,
    ) -> Result<WriteGrant, AbortReason>;

    /// Restores a metadata word acquired by
    /// [`ReadPolicy::try_acquire_write`] but not yet recorded in any log
    /// entry (the sorted multi-ORec acquisition path un-acquires this way
    /// when a later lock in the batch conflicts). Safe as a plain store:
    /// the caller still owns the lock, so no concurrent writer can race it —
    /// and safe as a *bit-identical* restore, because no data word under a
    /// newly acquired, unlogged lock has been written yet, so a reader that
    /// sampled the metadata before the acquisition has seen nothing dirty.
    fn restore_unlogged_grant(&self, p: &mut dyn Platform, meta_addr: Addr, prev_raw: u64) {
        p.store(meta_addr, prev_raw);
    }

    /// Commit-time acquisition of the whole write set (only called for
    /// [`CommitTime`] compositions). For per-word-lock policies this loops
    /// over the write log; for value validation it is the global
    /// sequence-lock acquisition.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with the attempt fully rolled back.
    fn commit_acquire(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        mode: WriteMode,
    ) -> Result<(), Abort>;

    /// Validation after every lock is held, returning the commit *ticket*
    /// ([`ReadPolicy::post_publish`] consumes it: the new ORec version for
    /// Tiny, unused elsewhere).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if final validation failed, with the attempt fully
    /// rolled back.
    fn pre_publish(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        mode: WriteMode,
    ) -> Result<u64, Abort>;

    /// Releases/stamps every lock after the redo log (if any) was
    /// published, completing the commit.
    fn post_publish(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform, ticket: u64);

    /// Releases every lock and restores every metadata word this attempt
    /// acquired. The data-side undo (the write-through replay) has already run.
    fn release_on_abort(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform);

    /// Plans one word of a batched record read (the engine already served
    /// redo-log words for commit-time compositions). Mirrors the design's
    /// single-word read up to the data load; see
    /// [`RecordReader::plan_word`].
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with the attempt fully rolled back.
    fn plan_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        mode: WriteMode,
    ) -> Result<WordPlan, Abort>;

    /// Re-checks one staged word against its plan token; see
    /// [`RecordReader::accept_word`].
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with the attempt fully rolled back.
    fn accept_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        value: u64,
        token: u64,
    ) -> Result<WordCheck, Abort>;

    /// Record-level bracket before (each attempt of) a burst pass; see
    /// [`RecordReader::before_burst`].
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] as [`RecordReader::before_burst`] does.
    fn before_burst(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<(), Abort> {
        let _ = (shared, tx, p);
        Ok(())
    }

    /// Record-level bracket after a burst pass; see
    /// [`RecordReader::burst_stable`].
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] as [`RecordReader::burst_stable`] does.
    fn burst_stable(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<bool, Abort> {
        let _ = (shared, tx, p);
        Ok(true)
    }
}

/// Replays the undo log (newest first) for write-through attempts; the
/// data-side half of every rollback, shared by all read policies.
pub(crate) fn rollback_data(tx: &mut TxSlot, p: &mut dyn Platform, mode: WriteMode) {
    if mode == WriteMode::WriteThrough {
        // Undo data writes first so no other transaction can observe dirty
        // values through an already-released lock.
        for i in (0..tx.write_set_len()).rev() {
            let entry = tx.write_entry(p, i);
            p.store(entry.addr, entry.value);
        }
    }
}

/// Completes an abort: replays the undo log, releases every lock through the
/// read policy, restores the accounting phase and returns the [`Abort`] to
/// propagate. Every abort path of [`ComposedTm`] and of the policy
/// implementations funnels through here.
pub(crate) fn abort_attempt<R: ReadPolicy>(
    read: &R,
    shared: &StmShared,
    tx: &mut TxSlot,
    p: &mut dyn Platform,
    mode: WriteMode,
    reason: AbortReason,
) -> Abort {
    rollback_data(tx, p, mode);
    read.release_on_abort(shared, tx, p);
    p.set_phase(Phase::OtherExec);
    Abort::new(reason)
}

/// Instructions charged per element of the ORec-address sort in the sorted
/// multi-ORec acquisition (same WRAM sorting cost model as the coalesced
/// write-back pass in [`crate::writeback`]).
const SORT_INSTRUCTIONS_PER_ELEMENT: u64 = 4;

/// A word-based STM engine composed from one value of each policy axis.
///
/// The type parameters fix the design at compile time; each
/// [`crate::TxEngine`] matches the [`StmKind`](crate::StmKind) its
/// configuration names onto one of the seven coherent compositions.
/// Construction rejects incoherent cells (see the
/// [module documentation](self)) — for those seven that check happens at
/// compile time.
///
/// A composition is stateless: all shared state lives in DPU memory behind
/// [`StmShared`] and all per-transaction state in the [`TxSlot`].
///
/// # Abort contract
///
/// When `read`, `write`, `read_record`, `write_record` or `commit` return
/// [`Abort`], the composition has already rolled back its side effects
/// (released ownership records and read/write locks, undone write-through
/// stores). The caller only needs to account the abort
/// ([`Platform::abort_attempt`]) and restart the transaction from
/// [`ComposedTm::begin`].
#[derive(Debug, Clone, Copy)]
pub struct ComposedTm<R: ReadPolicy, L: LockPolicy, W: WritePolicy> {
    read: R,
    _axes: PhantomData<(L, W)>,
}

impl<R: ReadPolicy, L: LockPolicy, W: WritePolicy> ComposedTm<R, L, W> {
    /// Composes an engine from the given read-policy instance.
    ///
    /// # Panics
    ///
    /// Panics (at compile time when used in a `const`/`static` context) if
    /// the composition is incoherent: commit-time locking with
    /// write-through, or value validation with anything but CTL + WB.
    pub const fn new(read: R) -> Self {
        let composition = TmComposition { read: R::KIND, timing: L::TIMING, write: W::MODE };
        assert!(
            composition.is_coherent(),
            "incoherent STM composition: write-through requires encounter-time locking and \
             value validation (norec) composes only with commit-time locking + write-back \
             (see the struck-out cells of Fig. 2)"
        );
        ComposedTm { read, _axes: PhantomData }
    }

    /// The grid cell this engine implements.
    pub const fn composition(&self) -> TmComposition {
        TmComposition { read: R::KIND, timing: L::TIMING, write: W::MODE }
    }

    /// Serves a read from the redo log when the lock timing buffers writes
    /// invisibly (commit-time compositions look up their own writes before
    /// touching any metadata).
    fn find_buffered(&self, tx: &mut TxSlot, p: &mut dyn Platform, addr: Addr) -> Option<u64> {
        if L::TIMING == LockTiming::Commit {
            tx.find_write(p, addr).map(|(_, value)| value)
        } else {
            None
        }
    }

    /// Records one write in the redo/undo log, given the grant from the
    /// acquisition step. One implementation covers every (read policy ×
    /// write policy) pair: [`ReadPolicy::LOG_PREV_METADATA`] decides
    /// whether a new grant's previous metadata word rides along in the
    /// entry.
    fn log_write(
        &self,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        value: u64,
        grant: WriteGrant,
    ) {
        let (extra, flag) = match grant {
            WriteGrant::Newly { prev_raw } if R::LOG_PREV_METADATA => (prev_raw, true),
            _ => (0, false),
        };
        match W::MODE {
            WriteMode::WriteBack => {
                if let Some((index, _)) = tx.find_write(p, addr) {
                    tx.set_write_value(p, index, value);
                    if flag {
                        // First acquisition happened through an entry for
                        // another (aliased) address; remember the previous
                        // metadata word on this one instead.
                        tx.set_write_extra_flag(p, index, extra, true);
                    }
                } else {
                    tx.push_write(p, addr, value, extra, flag);
                }
            }
            WriteMode::WriteThrough => {
                // Log the old value once, then update memory in place.
                if tx.find_write(p, addr).is_none() {
                    let old = p.load(addr);
                    tx.push_write(p, addr, old, extra, flag);
                }
                p.store(addr, value);
            }
        }
    }

    /// The sorted multi-ORec acquisition path of [`ComposedTm::write_record`]
    /// (encounter-time locking under [`LockOrder::AddressSorted`]): acquire
    /// every covering metadata word first — ordered by lock-table address,
    /// deduplicated — then log and store the data. Global acquisition order
    /// turns symmetric lock-order duels into single losers, and the
    /// back-to-back acquisitions shrink the window in which this
    /// transaction holds a partial lock set while doing data work.
    fn write_record_sorted(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        values: &[u64],
    ) -> Result<(), Abort> {
        // The descriptor's scratch buffers are taken out for the call so
        // the logs can be used while they are borrowed.
        let mut scratch = std::mem::take(&mut tx.scratch);
        let result = self.write_record_sorted_in(shared, tx, p, addr, values, &mut scratch);
        tx.scratch = scratch;
        result
    }

    fn write_record_sorted_in(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        values: &[u64],
        scratch: &mut TxScratch,
    ) -> Result<(), Abort> {
        p.set_phase(Phase::Writing);

        // Order the record's words by the address of their covering lock
        // entry. Consecutive data words usually map to consecutive entries,
        // but hashing wraps at the table size, so the sort is not a no-op.
        // The index scratch is WRAM/pipeline state; the sort charge mirrors
        // the coalesced write-back's cost model.
        let TxScratch { order, grants, .. } = scratch;
        order.clear();
        order.extend(
            (0..values.len() as u32)
                .map(|i| (crate::platform::encode_addr(shared.orec_addr(addr.offset(i))), i)),
        );
        order.sort_unstable();
        p.compute(SORT_INSTRUCTIONS_PER_ELEMENT * values.len() as u64);

        // Acquisition pass: one attempt per distinct lock entry, in sorted
        // order. Grants are not in any log yet, so a conflict partway must
        // restore them by hand before the shared abort path runs.
        grants.clear();
        let mut last_entry: Option<u64> = None;
        for &(entry_addr, word) in order.iter() {
            if last_entry == Some(entry_addr) {
                continue; // aliased with the previous word: already handled
            }
            last_entry = Some(entry_addr);
            let word_addr = addr.offset(word);
            match self.read.try_acquire_write(shared, tx, p, word_addr, Phase::ValidatingExec) {
                Ok(WriteGrant::AlreadyHeld) => {}
                Ok(grant @ WriteGrant::Newly { .. }) => grants.push((word, grant)),
                Err(reason) => {
                    for &(w, grant) in grants.iter() {
                        if let WriteGrant::Newly { prev_raw } = grant {
                            self.read.restore_unlogged_grant(
                                p,
                                shared.orec_addr(addr.offset(w)),
                                prev_raw,
                            );
                        }
                    }
                    return Err(abort_attempt(&self.read, shared, tx, p, W::MODE, reason));
                }
            }
        }

        // Logging pass, in record order. Each grant is attached to the
        // (unique) word it was acquired through, so release and rollback
        // find the previous metadata exactly as the per-word path records
        // it.
        for (i, &value) in values.iter().enumerate() {
            let word = i as u32;
            let grant = grants
                .iter()
                .find(|&&(w, _)| w == word)
                .map(|&(_, g)| g)
                .unwrap_or(WriteGrant::AlreadyHeld);
            self.log_write(tx, p, addr.offset(word), value, grant);
        }
        p.set_phase(Phase::OtherExec);
        Ok(())
    }
}

impl<R: ReadPolicy, L: LockPolicy, W: WritePolicy> ComposedTm<R, L, W> {
    /// Starts (or restarts) a transaction attempt.
    pub fn begin(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform) {
        p.set_phase(Phase::OtherExec);
        tx.reset_logs();
        self.read.begin(shared, tx, p);
    }

    /// Transactional read of one word.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if a conflict with a concurrent transaction was
    /// detected; the attempt must be retried.
    pub fn read(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
    ) -> Result<u64, Abort> {
        p.set_phase(Phase::Reading);
        if let Some(value) = self.find_buffered(tx, p, addr) {
            p.set_phase(Phase::OtherExec);
            return Ok(value);
        }
        self.read.read_word(shared, tx, p, addr, W::MODE)
    }

    /// Transactional write of one word.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if a conflict with a concurrent transaction was
    /// detected; the attempt must be retried.
    pub fn write(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        value: u64,
    ) -> Result<(), Abort> {
        p.set_phase(Phase::Writing);
        match L::TIMING {
            LockTiming::Commit => {
                // Just buffer; locks are taken at commit time.
                if let Some((index, _)) = tx.find_write(p, addr) {
                    tx.set_write_value(p, index, value);
                } else {
                    tx.push_write(p, addr, value, 0, false);
                }
            }
            LockTiming::Encounter => {
                let grant =
                    match self.read.try_acquire_write(shared, tx, p, addr, Phase::ValidatingExec) {
                        Ok(grant) => grant,
                        Err(reason) => {
                            return Err(abort_attempt(&self.read, shared, tx, p, W::MODE, reason))
                        }
                    };
                self.log_write(tx, p, addr, value, grant);
            }
        }
        p.set_phase(Phase::OtherExec);
        Ok(())
    }

    /// Attempts to commit the transaction.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if final validation or commit-time lock acquisition
    /// failed; the attempt must be retried.
    pub fn commit(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<(), Abort> {
        if R::READ_ONLY_COMMIT_FREE && tx.is_read_only() {
            p.set_phase(Phase::OtherExec);
            return Ok(());
        }
        p.set_phase(Phase::OtherCommit);

        // Commit-time locking acquires ownership of the whole write set now
        // (per-word locks, or the global sequence lock for value
        // validation); encounter-time compositions already hold theirs.
        if L::TIMING == LockTiming::Commit {
            self.read.commit_acquire(shared, tx, p, W::MODE)?;
        }

        // Final validation + commit ticket, then publish buffered writes
        // (write-back only; write-through already updated memory at
        // encounter time). Every lock covering the log is held, so the
        // shared publication pass may reorder and batch stores.
        let ticket = self.read.pre_publish(shared, tx, p, W::MODE)?;
        if W::MODE == WriteMode::WriteBack {
            crate::writeback::publish_redo_log(tx, p, shared.config());
        }
        self.read.post_publish(shared, tx, p, ticket);
        p.set_phase(Phase::OtherExec);
        Ok(())
    }

    /// Explicitly abandons the current attempt: rolls back any exposed
    /// writes and releases every lock, exactly as an internally detected
    /// conflict would. Used by workloads (e.g. Labyrinth) that decide to
    /// restart after observing application-level interference; the caller
    /// still accounts the abort via [`Platform::abort_attempt`].
    pub fn cancel(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform) {
        rollback_data(tx, p, W::MODE);
        self.read.release_on_abort(shared, tx, p);
        p.set_phase(Phase::OtherExec);
    }

    /// Transactional read of `out.len()` consecutive words through the
    /// shared access layer ([`crate::access::read_record_with`]), which
    /// honours [`crate::StmKnobs::read_strategy`]: the engine owns the
    /// commit-time redo-log gate, the read policy owns the per-word
    /// metadata protocol, and under [`crate::ReadStrategy::Batched`] the
    /// data moves as one MRAM DMA burst per contiguous run.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with side effects already rolled back
    /// exactly as for [`ComposedTm::read`].
    pub fn read_record(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        out: &mut [u64],
    ) -> Result<(), Abort> {
        crate::access::read_record_with(self, shared, tx, p, addr, out)
    }

    /// Transactional write of consecutive words. Under encounter-time
    /// locking with [`LockOrder::AddressSorted`] (the default) the covering
    /// metadata is acquired in one sorted, deduplicated pass before any data
    /// work (see the private `write_record_sorted` helper); otherwise —
    /// commit-time compositions, single words, or [`LockOrder::RecordOrder`]
    /// — each word runs the full per-word write protocol in record order,
    /// exactly like issuing the writes one by one.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with side effects already rolled back
    /// exactly as for [`ComposedTm::write`].
    pub fn write_record(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        values: &[u64],
    ) -> Result<(), Abort> {
        if L::TIMING == LockTiming::Encounter
            && values.len() > 1
            && shared.config().knobs.lock_order == LockOrder::AddressSorted
        {
            return self.write_record_sorted(shared, tx, p, addr, values);
        }
        for (i, value) in values.iter().enumerate() {
            self.write(shared, tx, p, addr.offset(i as u32), *value)?;
        }
        Ok(())
    }
}

impl<R: ReadPolicy, L: LockPolicy, W: WritePolicy> RecordReader for ComposedTm<R, L, W> {
    fn plan_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
    ) -> Result<WordPlan, Abort> {
        if let Some(value) = self.find_buffered(tx, p, addr) {
            return Ok(WordPlan::Ready(value));
        }
        self.read.plan_word(shared, tx, p, addr, W::MODE)
    }

    fn accept_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        value: u64,
        token: u64,
    ) -> Result<WordCheck, Abort> {
        self.read.accept_word(shared, tx, p, addr, value, token)
    }

    fn before_burst(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<(), Abort> {
        self.read.before_burst(shared, tx, p)
    }

    fn burst_stable(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<bool, Abort> {
        self.read.burst_stable(shared, tx, p)
    }

    fn reread_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
    ) -> Result<u64, Abort> {
        self.read(shared, tx, p, addr)
    }
}
