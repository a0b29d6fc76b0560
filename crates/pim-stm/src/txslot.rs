//! The per-tasklet transaction descriptor.
//!
//! A [`TxSlot`] owns the tasklet's read set and write/undo log. Crucially,
//! the *entries themselves live in simulated DPU memory* (WRAM or MRAM,
//! depending on [`crate::MetadataPlacement`]), so every time an algorithm
//! appends to, scans or validates a log it pays the corresponding memory
//! latency — this is precisely the instrumentation cost whose placement the
//! paper studies.
//!
//! Log layouts (one entry per transactional access):
//!
//! * read-set entry (2 words): `[encoded address, aux]` where `aux` holds the
//!   observed ORec version (Tiny), the observed value (NOrec) or is unused
//!   (VR);
//! * write/undo-log entry (3 words): `[encoded address (+flag bit), value,
//!   extra]` where `value` is the new value (write-back) or the old value
//!   (write-through undo) and `extra` stores the previous ORec word for lock
//!   release/rollback.
//!
//! One tasklet ever touches its own logs while tasklets run (the host looks
//! at them, if at all, only after joining the tasklet), so every log access
//! below goes through [`Platform::load_private`]/[`Platform::store_private`]
//! — the same cost as a plain load/store on every platform, but free of the
//! cross-thread ordering the threaded executor pays for shared words.

use pim_sim::Addr;

use crate::error::AbortReason;
use crate::platform::{decode_addr, encode_addr, Platform, ENC_FLAG_BIT};
use crate::policy::WriteGrant;

/// Words per read-set entry.
pub(crate) const READ_ENTRY_WORDS: u32 = 2;
/// Words per write/undo-log entry.
pub(crate) const WRITE_ENTRY_WORDS: u32 = 3;

/// A decoded write/undo-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WriteEntry {
    /// Target data address.
    pub addr: Addr,
    /// New value (write-back) or saved old value (write-through undo).
    pub value: u64,
    /// Algorithm-specific extra word (previous ORec contents for Tiny).
    pub extra: u64,
    /// Algorithm-specific flag (e.g. "this entry acquired its ORec").
    pub flag: bool,
}

/// A decoded read-set entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadEntry {
    /// Data address that was read.
    pub addr: Addr,
    /// Observed ORec version (Tiny), observed value (NOrec) or unused (VR).
    pub aux: u64,
}

/// Platform-clock timestamps of one transaction's life inside the STM, in
/// the platform's native time domain (simulator cycles / wall nanoseconds —
/// see [`Platform::timestamp`]).
///
/// The shared retry core stamps the **first** attempt's begin (retries do
/// not overwrite it) and the successful commit. Together with the service
/// layer's arrival and dispatch stamps this splits a request's sojourn into
/// queueing delay (`dispatch − arrival`, spent waiting for a free tasklet)
/// and STM service time (`committed − first_attempt`, which includes all
/// aborted attempts and back-off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxStamps {
    /// Clock reading when the first attempt began (`None` before any
    /// attempt, or on platforms without a clock that report only 0s).
    pub first_attempt: Option<u64>,
    /// Clock reading when the transaction committed.
    pub committed: Option<u64>,
}

impl TxStamps {
    /// STM service time: `committed − first_attempt`, saturating; `None`
    /// until the transaction committed.
    pub fn service_time(&self) -> Option<u64> {
        match (self.first_attempt, self.committed) {
            (Some(begin), Some(end)) => Some(end.saturating_sub(begin)),
            _ => None,
        }
    }
}

/// Host-side staging buffers of the commit and record-write paths, kept on
/// the descriptor so a transaction reuses what the previous one grew instead
/// of allocating: each stands in for a bounded WRAM staging buffer of the
/// tasklet. Every user clears a buffer before filling it, so contents never
/// carry from one call to the next.
#[derive(Debug, Default)]
pub(crate) struct TxScratch {
    /// [`crate::writeback`]: the redo log staged as `(encoded address,
    /// value)` for the address sort.
    pub(crate) staged: Vec<(u64, u64)>,
    /// [`crate::writeback`]: the values of the burst being assembled.
    pub(crate) burst: Vec<u64>,
    /// Sorted record write: `(encoded ORec address, word index)`.
    pub(crate) order: Vec<(u64, u32)>,
    /// Sorted record write: the new grants, by word index.
    pub(crate) grants: Vec<(u32, WriteGrant)>,
}

impl Clone for TxScratch {
    /// A cloned descriptor starts with empty buffers of its own: the
    /// contents are dead between calls, and copying them (or their
    /// capacity) would only cost an allocation the clone may never need.
    fn clone(&self) -> Self {
        TxScratch::default()
    }
}

/// Per-tasklet transaction descriptor: read set, write/undo log and snapshot
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct TxSlot {
    tasklet_id: usize,
    rs_base: Addr,
    rs_cap: u32,
    rs_len: u32,
    ws_base: Addr,
    ws_cap: u32,
    ws_len: u32,
    /// NOrec snapshot of the sequence lock, or Tiny's read version (snapshot
    /// lower bound).
    pub(crate) snapshot: u64,
    /// Consecutive aborted attempts of the current transaction (reset on
    /// commit); drives contention back-off policies.
    consecutive_aborts: u64,
    /// Cumulative aborts of this tasklet keyed by [`AbortReason`] — the
    /// local signal the histogram-adaptive [`crate::RetryPolicy`] tunes its
    /// back-off window from. Plain host-side state (like the abort counter):
    /// back-off bookkeeping is not part of the instrumented metadata whose
    /// placement the paper studies.
    abort_reasons: [u64; AbortReason::COUNT],
    /// First-attempt/commit stamps of the transaction currently in flight
    /// (host-side bookkeeping like the abort counter — not instrumented
    /// metadata).
    stamps: TxStamps,
    /// Reused host-side staging buffers (see [`TxScratch`]).
    pub(crate) scratch: TxScratch,
}

impl TxSlot {
    /// Creates a descriptor whose logs live at `rs_base`/`ws_base` with the
    /// given capacities (in entries). Normally constructed through
    /// [`crate::StmShared::register_tasklet`].
    pub fn new(tasklet_id: usize, rs_base: Addr, rs_cap: u32, ws_base: Addr, ws_cap: u32) -> Self {
        TxSlot {
            tasklet_id,
            rs_base,
            rs_cap,
            rs_len: 0,
            ws_base,
            ws_cap,
            ws_len: 0,
            snapshot: 0,
            consecutive_aborts: 0,
            abort_reasons: [0; AbortReason::COUNT],
            stamps: TxStamps::default(),
            scratch: TxScratch::default(),
        }
    }

    /// Returns the descriptor to what [`TxSlot::new`] built — empty logs,
    /// no consecutive aborts, an all-zero abort histogram, no stamps — but
    /// keeps the staging buffers it has grown. Only between transactions.
    pub(crate) fn reset_host_state(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        let fresh =
            TxSlot::new(self.tasklet_id, self.rs_base, self.rs_cap, self.ws_base, self.ws_cap);
        *self = TxSlot { scratch, ..fresh };
    }

    /// Identifier of the owning tasklet.
    pub fn tasklet_id(&self) -> usize {
        self.tasklet_id
    }

    /// Number of entries currently in the read set.
    pub fn read_set_len(&self) -> u32 {
        self.rs_len
    }

    /// Number of entries currently in the write/undo log.
    pub fn write_set_len(&self) -> u32 {
        self.ws_len
    }

    /// Read-set capacity in entries.
    pub fn read_set_capacity(&self) -> u32 {
        self.rs_cap
    }

    /// Write/undo-log capacity in entries.
    pub fn write_set_capacity(&self) -> u32 {
        self.ws_cap
    }

    /// Whether the transaction has performed no writes so far.
    pub(crate) fn is_read_only(&self) -> bool {
        self.ws_len == 0
    }

    /// Consecutive aborts of the transaction currently being attempted.
    pub(crate) fn consecutive_aborts(&self) -> u64 {
        self.consecutive_aborts
    }

    /// Clears the logs at the start of a new attempt (does not touch the
    /// abort counter, which spans attempts of the same transaction).
    pub(crate) fn reset_logs(&mut self) {
        self.rs_len = 0;
        self.ws_len = 0;
    }

    /// This tasklet's cumulative abort counts keyed by
    /// [`AbortReason::index`] (the adaptive retry policy's input).
    pub(crate) fn abort_histogram(&self) -> &[u64; AbortReason::COUNT] {
        &self.abort_reasons
    }

    /// Records that the current attempt aborted, and why.
    pub(crate) fn note_abort(&mut self, reason: AbortReason) {
        self.consecutive_aborts += 1;
        self.abort_reasons[reason.index()] += 1;
    }

    /// Records that the transaction finally committed.
    pub(crate) fn note_commit(&mut self) {
        self.consecutive_aborts = 0;
    }

    /// Stamps the begin of the current transaction's **first** attempt;
    /// retries of the same transaction keep the original stamp.
    pub(crate) fn stamp_first_attempt(&mut self, at: u64) {
        if self.stamps.first_attempt.is_none() {
            self.stamps.first_attempt = Some(at);
        }
    }

    /// Stamps the successful commit of the current transaction.
    pub(crate) fn stamp_commit(&mut self, at: u64) {
        self.stamps.committed = Some(at);
    }

    /// The current transaction's stamps (see [`TxStamps`]).
    pub fn stamps(&self) -> TxStamps {
        self.stamps
    }

    /// Clears the stamps for the next transaction.
    pub(crate) fn clear_stamps(&mut self) {
        self.stamps = TxStamps::default();
    }

    /// Returns the stamps and clears them — the harvest call a service
    /// driver makes after each committed request.
    pub fn take_stamps(&mut self) -> TxStamps {
        std::mem::take(&mut self.stamps)
    }

    fn rs_entry_addr(&self, index: u32) -> Addr {
        self.rs_base.offset(index * READ_ENTRY_WORDS)
    }

    fn ws_entry_addr(&self, index: u32) -> Addr {
        self.ws_base.offset(index * WRITE_ENTRY_WORDS)
    }

    /// Appends an entry to the read set.
    ///
    /// # Panics
    ///
    /// Panics if the read set is full; size the capacity for the workload
    /// (see [`crate::StmConfig::with_read_set_capacity`]).
    pub(crate) fn push_read(&mut self, p: &mut dyn Platform, addr: Addr, aux: u64) {
        assert!(
            self.rs_len < self.rs_cap,
            "read set overflow (capacity {} entries) on tasklet {}",
            self.rs_cap,
            self.tasklet_id
        );
        let entry = self.rs_entry_addr(self.rs_len);
        p.store_private(entry, encode_addr(addr));
        p.store_private(entry.offset(1), aux);
        self.rs_len += 1;
    }

    /// Loads the `index`-th read-set entry.
    pub fn read_entry(&self, p: &mut dyn Platform, index: u32) -> ReadEntry {
        assert!(index < self.rs_len, "read entry {index} out of bounds");
        let entry = self.rs_entry_addr(index);
        let encoded = p.load_private(entry);
        let aux = p.load_private(entry.offset(1));
        ReadEntry { addr: decode_addr(encoded), aux }
    }

    /// Appends an entry to the write/undo log.
    ///
    /// # Panics
    ///
    /// Panics if the log is full; size the capacity for the workload (see
    /// [`crate::StmConfig::with_write_set_capacity`]).
    pub(crate) fn push_write(
        &mut self,
        p: &mut dyn Platform,
        addr: Addr,
        value: u64,
        extra: u64,
        flag: bool,
    ) {
        assert!(
            self.ws_len < self.ws_cap,
            "write log overflow (capacity {} entries) on tasklet {}",
            self.ws_cap,
            self.tasklet_id
        );
        let entry = self.ws_entry_addr(self.ws_len);
        let encoded = encode_addr(addr) | if flag { ENC_FLAG_BIT } else { 0 };
        p.store_private(entry, encoded);
        p.store_private(entry.offset(1), value);
        p.store_private(entry.offset(2), extra);
        self.ws_len += 1;
    }

    /// Loads the `index`-th write/undo-log entry.
    pub(crate) fn write_entry(&self, p: &mut dyn Platform, index: u32) -> WriteEntry {
        assert!(index < self.ws_len, "write entry {index} out of bounds");
        let entry = self.ws_entry_addr(index);
        let encoded = p.load_private(entry);
        let value = p.load_private(entry.offset(1));
        let extra = p.load_private(entry.offset(2));
        WriteEntry { addr: decode_addr(encoded), value, extra, flag: encoded & ENC_FLAG_BIT != 0 }
    }

    /// Overwrites the value of an existing write-log entry (used when a
    /// transaction writes the same location twice).
    pub(crate) fn set_write_value(&self, p: &mut dyn Platform, index: u32, value: u64) {
        assert!(index < self.ws_len, "write entry {index} out of bounds");
        p.store_private(self.ws_entry_addr(index).offset(1), value);
    }

    /// Rewrites the extra word and flag of an existing write-log entry.
    /// Commit-time-locking designs use this to record the previous ORec
    /// contents when they acquire locks during commit.
    pub(crate) fn set_write_extra_flag(
        &self,
        p: &mut dyn Platform,
        index: u32,
        extra: u64,
        flag: bool,
    ) {
        assert!(index < self.ws_len, "write entry {index} out of bounds");
        let entry = self.ws_entry_addr(index);
        let encoded = p.load_private(entry) & !ENC_FLAG_BIT;
        p.store_private(entry, encoded | if flag { ENC_FLAG_BIT } else { 0 });
        p.store_private(entry.offset(2), extra);
    }

    /// Scans the write log (newest first) for the latest value written to
    /// `addr`. Each scanned entry costs a metadata load — this is the
    /// read-after-write lookup cost that commit-time-locking and write-back
    /// designs pay on every read.
    pub fn find_write(&self, p: &mut dyn Platform, addr: Addr) -> Option<(u32, u64)> {
        let target = encode_addr(addr);
        for i in (0..self.ws_len).rev() {
            let entry = self.ws_entry_addr(i);
            let encoded = p.load_private(entry) & !ENC_FLAG_BIT;
            if encoded == target {
                let value = p.load_private(entry.offset(1));
                return Some((i, value));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{Dpu, DpuConfig, TaskletCtx, TaskletStats, Tier};

    fn with_platform<R>(f: impl FnOnce(&mut dyn Platform, &mut TxSlot) -> R) -> R {
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut stats = TaskletStats::new();
        let rs = dpu.alloc(Tier::Wram, 8 * READ_ENTRY_WORDS).unwrap();
        let ws = dpu.alloc(Tier::Wram, 4 * WRITE_ENTRY_WORDS).unwrap();
        let mut slot = TxSlot::new(3, rs, 8, ws, 4);
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 3, 1, 0);
        f(&mut ctx, &mut slot)
    }

    #[test]
    fn read_log_roundtrip() {
        with_platform(|p, slot| {
            slot.push_read(p, Addr::mram(10), 42);
            slot.push_read(p, Addr::wram(3), 7);
            assert_eq!(slot.read_set_len(), 2);
            assert_eq!(slot.read_entry(p, 0), ReadEntry { addr: Addr::mram(10), aux: 42 });
            assert_eq!(slot.read_entry(p, 1), ReadEntry { addr: Addr::wram(3), aux: 7 });
        });
    }

    #[test]
    fn write_log_roundtrip_with_flags() {
        with_platform(|p, slot| {
            slot.push_write(p, Addr::mram(5), 100, 9, true);
            slot.push_write(p, Addr::mram(6), 200, 0, false);
            let e0 = slot.write_entry(p, 0);
            assert_eq!(e0.addr, Addr::mram(5));
            assert_eq!(e0.value, 100);
            assert_eq!(e0.extra, 9);
            assert!(e0.flag);
            let e1 = slot.write_entry(p, 1);
            assert!(!e1.flag);
            assert!(!slot.is_read_only());
        });
    }

    #[test]
    fn find_write_returns_latest_value() {
        with_platform(|p, slot| {
            assert_eq!(slot.find_write(p, Addr::mram(5)), None);
            slot.push_write(p, Addr::mram(5), 1, 0, false);
            slot.push_write(p, Addr::mram(9), 2, 0, false);
            slot.push_write(p, Addr::mram(5), 3, 0, false);
            assert_eq!(slot.find_write(p, Addr::mram(5)), Some((2, 3)));
            assert_eq!(slot.find_write(p, Addr::mram(9)), Some((1, 2)));
            slot.set_write_value(p, 1, 20);
            assert_eq!(slot.find_write(p, Addr::mram(9)), Some((1, 20)));
        });
    }

    #[test]
    fn reset_clears_logs_but_not_abort_counter() {
        with_platform(|p, slot| {
            slot.push_read(p, Addr::wram(1), 0);
            slot.push_write(p, Addr::wram(2), 0, 0, false);
            slot.note_abort(AbortReason::ReadConflict);
            slot.reset_logs();
            assert_eq!(slot.read_set_len(), 0);
            assert_eq!(slot.write_set_len(), 0);
            assert!(slot.is_read_only());
            assert_eq!(slot.consecutive_aborts(), 1);
            slot.note_commit();
            assert_eq!(slot.consecutive_aborts(), 0);
        });
    }

    #[test]
    fn abort_histogram_accumulates_per_reason_across_commits() {
        with_platform(|_, slot| {
            slot.note_abort(AbortReason::WriteConflict);
            slot.note_abort(AbortReason::WriteConflict);
            slot.note_abort(AbortReason::ValidationFailed);
            assert_eq!(slot.abort_histogram()[AbortReason::WriteConflict.index()], 2);
            assert_eq!(slot.abort_histogram()[AbortReason::ValidationFailed.index()], 1);
            // A commit resets the consecutive counter but keeps the
            // histogram: the adaptive retry policy wants the tasklet's
            // longer-term contention signature, not just the current duel.
            slot.note_commit();
            assert_eq!(slot.consecutive_aborts(), 0);
            assert_eq!(slot.abort_histogram().iter().sum::<u64>(), 3);
        });
    }

    #[test]
    fn a_cloned_slot_starts_with_scratch_of_its_own() {
        with_platform(|_, slot| {
            slot.scratch.staged.extend([(1, 2), (3, 4)]);
            slot.scratch.burst.push(5);
            let clone = slot.clone();
            assert!(clone.scratch.staged.is_empty() && clone.scratch.burst.is_empty());
            assert_eq!(clone.scratch.staged.capacity(), 0, "not even the capacity is copied");
            assert_eq!(slot.scratch.staged.len(), 2, "the original keeps its buffers");
        });
    }

    #[test]
    fn resetting_host_state_keeps_only_the_scratch() {
        with_platform(|p, slot| {
            let fresh = format!("{slot:?}");
            slot.push_read(p, Addr::wram(1), 0);
            slot.push_write(p, Addr::wram(2), 0, 0, false);
            slot.note_abort(AbortReason::Explicit);
            slot.stamp_first_attempt(5);
            slot.snapshot = 9;
            slot.reset_host_state();
            assert_eq!(format!("{slot:?}"), fresh, "every field is what `new` set");
            slot.scratch.staged.reserve(16);
            let grown = slot.scratch.staged.capacity();
            slot.reset_host_state();
            assert_eq!(slot.scratch.staged.capacity(), grown, "the buffers stay");
        });
    }

    #[test]
    #[should_panic(expected = "read set overflow")]
    fn read_set_overflow_panics() {
        with_platform(|p, slot| {
            for i in 0..9 {
                slot.push_read(p, Addr::wram(i), 0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "write log overflow")]
    fn write_log_overflow_panics() {
        with_platform(|p, slot| {
            for i in 0..5 {
                slot.push_write(p, Addr::wram(i), 0, 0, false);
            }
        });
    }
}
