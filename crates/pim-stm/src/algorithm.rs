//! The [`TmAlgorithm`] trait implemented by every STM design, the factory
//! that maps an [`StmKind`] to its implementation, and a convenience
//! retry-loop for closure-style transactions.

use pim_sim::Addr;

use crate::config::StmKind;
use crate::error::Abort;
use crate::platform::Platform;
use crate::policy::{
    CommitTime, ComposedTm, EncounterTime, InvisibleOrec, ValueValidation, VisibleReadLocks,
    WriteBack, WriteThrough,
};
use crate::shared::StmShared;
use crate::txslot::TxSlot;

/// A word-based software transactional memory algorithm.
///
/// Implementations are stateless: all shared state lives in DPU memory
/// behind [`StmShared`] and all per-transaction state in the [`TxSlot`], so
/// a single `&'static dyn TmAlgorithm` can serve every tasklet.
///
/// # Abort contract
///
/// When `read`, `write` or `commit` return [`Abort`], the algorithm has
/// already rolled back its side effects (released ownership records and
/// read/write locks, undone write-through stores). The caller only needs to
/// account the abort ([`Platform::abort_attempt`]) and restart the
/// transaction from [`TmAlgorithm::begin`].
pub trait TmAlgorithm: Send + Sync {
    /// Which point of the design space this algorithm implements.
    fn kind(&self) -> StmKind;

    /// Starts (or restarts) a transaction attempt.
    fn begin(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform);

    /// Transactional read of one word.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if a conflict with a concurrent transaction was
    /// detected; the attempt must be retried.
    fn read(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
    ) -> Result<u64, Abort>;

    /// Transactional write of one word.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if a conflict with a concurrent transaction was
    /// detected; the attempt must be retried.
    fn write(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        value: u64,
    ) -> Result<(), Abort>;

    /// Attempts to commit the transaction.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if final validation or commit-time lock acquisition
    /// failed; the attempt must be retried.
    fn commit(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<(), Abort>;

    /// Explicitly abandons the current attempt: rolls back any exposed
    /// writes and releases every lock, exactly as an internally detected
    /// conflict would. Used by workloads (e.g. Labyrinth) that decide to
    /// restart after observing application-level interference; the caller
    /// still accounts the abort via [`Platform::abort_attempt`].
    fn cancel(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform) {
        let _ = (shared, tx, p);
    }

    /// Transactional read of `out.len()` consecutive words.
    ///
    /// The default implementation runs the full per-word read protocol
    /// ([`crate::access::read_record_word_wise`]), which is sound for every
    /// design. All seven built-in designs override it with the shared
    /// record-access layer ([`crate::access`]), which honours
    /// [`crate::StmKnobs::read_strategy`]: under
    /// [`crate::ReadStrategy::Batched`] the record's data moves as **one
    /// MRAM DMA burst per contiguous run** while the per-word metadata
    /// protocol still runs against the staged words.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with side effects already rolled back
    /// exactly as for [`TmAlgorithm::read`].
    fn read_record(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        out: &mut [u64],
    ) -> Result<(), Abort> {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.read(shared, tx, p, addr.offset(i as u32))?;
        }
        Ok(())
    }

    /// Transactional write of consecutive words.
    ///
    /// The default implementation runs the full per-word write protocol
    /// (sound for every design; write-back designs only touch their redo log
    /// here, so there is no data DMA to batch until commit).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with side effects already rolled back
    /// exactly as for [`TmAlgorithm::write`].
    fn write_record(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        values: &[u64],
    ) -> Result<(), Abort> {
        for (i, value) in values.iter().enumerate() {
            self.write(shared, tx, p, addr.offset(i as u32), *value)?;
        }
        Ok(())
    }
}

// The seven coherent cells of the policy grid (all other cells fail
// `ComposedTm::new`'s coherence check at compile time). Each legacy
// `StmKind` resolves onto one of these compositions; the retired monolithic
// implementations are deleted, their behaviour pinned as goldens by the
// policy equivalence suite.
static NOREC: ComposedTm<ValueValidation, CommitTime, WriteBack> = ComposedTm::new(ValueValidation);
static OREC_CTL_WB: ComposedTm<InvisibleOrec, CommitTime, WriteBack> =
    ComposedTm::new(InvisibleOrec);
static OREC_ETL_WB: ComposedTm<InvisibleOrec, EncounterTime, WriteBack> =
    ComposedTm::new(InvisibleOrec);
static OREC_ETL_WT: ComposedTm<InvisibleOrec, EncounterTime, WriteThrough> =
    ComposedTm::new(InvisibleOrec);
static VR_CTL_WB: ComposedTm<VisibleReadLocks, CommitTime, WriteBack> =
    ComposedTm::new(VisibleReadLocks);
static VR_ETL_WB: ComposedTm<VisibleReadLocks, EncounterTime, WriteBack> =
    ComposedTm::new(VisibleReadLocks);
static VR_ETL_WT: ComposedTm<VisibleReadLocks, EncounterTime, WriteThrough> =
    ComposedTm::new(VisibleReadLocks);

/// Returns the (stateless, statically allocated) implementation of `kind` —
/// the [`ComposedTm`] policy composition the kind's
/// [`crate::config::TmComposition`] describes.
pub fn algorithm_for(kind: StmKind) -> &'static dyn TmAlgorithm {
    match kind {
        StmKind::Norec => &NOREC,
        StmKind::TinyCtlWb => &OREC_CTL_WB,
        StmKind::TinyEtlWb => &OREC_ETL_WB,
        StmKind::TinyEtlWt => &OREC_ETL_WT,
        StmKind::VrCtlWb => &VR_CTL_WB,
        StmKind::VrEtlWb => &VR_ETL_WB,
        StmKind::VrEtlWt => &VR_ETL_WT,
    }
}

/// Handle passed to transaction bodies by [`run_transaction`] and
/// [`crate::TxEngine::transaction`] — i.e. by **both** executors.
///
/// Besides the word-based inherent methods kept for backwards compatibility,
/// `TxView` implements the typed [`crate::var::TxOps`] facade, so bodies can
/// be written once against `TxOps` and run anywhere.
pub struct TxView<'a> {
    alg: &'a dyn TmAlgorithm,
    shared: &'a StmShared,
    tx: &'a mut TxSlot,
    p: &'a mut dyn Platform,
}

impl<'a> TxView<'a> {
    /// Binds an algorithm, shared metadata, a transaction descriptor and a
    /// platform into a body handle (used by the retry loop in
    /// [`crate::engine`]).
    pub(crate) fn new(
        alg: &'a dyn TmAlgorithm,
        shared: &'a StmShared,
        tx: &'a mut TxSlot,
        p: &'a mut dyn Platform,
    ) -> Self {
        TxView { alg, shared, tx, p }
    }
}

impl TxView<'_> {
    /// Transactional read.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`]; the body should return it via `?` so the retry
    /// loop can restart the transaction.
    pub fn read(&mut self, addr: Addr) -> Result<u64, Abort> {
        self.alg.read(self.shared, self.tx, self.p, addr)
    }

    /// Transactional write.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`]; the body should return it via `?`.
    pub fn write(&mut self, addr: Addr, value: u64) -> Result<(), Abort> {
        self.alg.write(self.shared, self.tx, self.p, addr, value)
    }

    /// Models non-transactional computation inside the transaction body.
    pub fn compute(&mut self, instructions: u64) {
        self.p.compute(instructions);
    }

    /// Identifier of the executing tasklet.
    pub fn tasklet_id(&self) -> usize {
        self.p.tasklet_id()
    }
}

impl crate::var::TxOps for TxView<'_> {
    fn read_word(&mut self, addr: Addr) -> Result<u64, Abort> {
        self.alg.read(self.shared, self.tx, self.p, addr)
    }

    fn write_word(&mut self, addr: Addr, value: u64) -> Result<(), Abort> {
        self.alg.write(self.shared, self.tx, self.p, addr, value)
    }

    fn read_words(&mut self, addr: Addr, out: &mut [u64]) -> Result<(), Abort> {
        self.alg.read_record(self.shared, self.tx, self.p, addr, out)
    }

    fn write_words(&mut self, addr: Addr, values: &[u64]) -> Result<(), Abort> {
        self.alg.write_record(self.shared, self.tx, self.p, addr, values)
    }

    fn compute(&mut self, instructions: u64) {
        self.p.compute(instructions);
    }

    fn tasklet_id(&self) -> usize {
        self.p.tasklet_id()
    }

    fn cancel(&mut self) -> Abort {
        self.alg.cancel(self.shared, self.tx, self.p);
        Abort::new(crate::error::AbortReason::Explicit)
    }

    fn raw_load(&mut self, addr: Addr) -> u64 {
        self.p.load(addr)
    }

    fn raw_store(&mut self, addr: Addr, value: u64) {
        self.p.store(addr, value)
    }

    fn raw_copy(&mut self, src: Addr, dst: Addr, words: u32) {
        self.p.copy(src, dst, words)
    }
}

/// Runs `body` as a transaction, retrying on abort until it commits, and
/// returns the body's result.
///
/// This is a thin wrapper over the shared retry core in [`crate::engine`]
/// (see [`crate::engine::run_retry_loop`]); the step-granular
/// [`crate::TxEngine`] API uses the same core, so accounting and back-off
/// are identical across execution styles.
///
/// The whole transaction executes within the caller's time slice, so this
/// helper is intended for the threaded executor and for examples; the
/// experiment harness uses step-granular tasklet programs instead (see
/// `pim-workloads`), which interleave individual operations of concurrent
/// transactions.
pub fn run_transaction<R>(
    alg: &dyn TmAlgorithm,
    shared: &StmShared,
    tx: &mut TxSlot,
    p: &mut dyn Platform,
    body: impl FnMut(&mut TxView<'_>) -> Result<R, Abort>,
) -> R {
    crate::engine::run_retry_loop(alg, shared, tx, p, None, body)
}

pub use crate::engine::backoff;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmConfig;
    use pim_sim::{Dpu, DpuConfig, TaskletCtx, TaskletStats, Tier};

    #[test]
    fn factory_returns_matching_kinds() {
        for kind in StmKind::ALL {
            assert_eq!(algorithm_for(kind).kind(), kind);
        }
    }

    #[test]
    fn run_transaction_commits_simple_increments_for_every_design() {
        for kind in StmKind::ALL {
            let mut dpu = Dpu::new(DpuConfig::small());
            let cfg = StmConfig::small_wram(kind);
            let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
            let mut slot = shared.register_tasklet(&mut dpu, 0).unwrap();
            let counter = dpu.alloc(Tier::Mram, 1).unwrap();
            let mut stats = TaskletStats::new();
            let alg = algorithm_for(kind);
            for _ in 0..10 {
                let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
                run_transaction(alg, &shared, &mut slot, &mut ctx, |tx| {
                    let v = tx.read(counter)?;
                    tx.write(counter, v + 1)?;
                    Ok(())
                });
            }
            assert_eq!(dpu.peek(counter), 10, "{kind} lost updates");
            assert_eq!(stats.commits, 10, "{kind} commit count");
            assert_eq!(stats.aborts, 0, "{kind} should not abort single-threaded");
        }
    }

    #[test]
    fn explicit_cancel_rolls_back_and_the_retry_succeeds() {
        use crate::var::TxOps;
        for kind in StmKind::ALL {
            let mut dpu = Dpu::new(DpuConfig::small());
            let cfg = StmConfig::small_wram(kind);
            let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
            let mut slot = shared.register_tasklet(&mut dpu, 0).unwrap();
            let data = dpu.alloc(Tier::Mram, 1).unwrap();
            dpu.poke(data, 7);
            let mut stats = TaskletStats::new();
            let alg = algorithm_for(kind);
            let mut attempts = 0;
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            run_transaction(alg, &shared, &mut slot, &mut ctx, |tx| {
                attempts += 1;
                let v = tx.read(data)?;
                tx.write(data, v + 1)?;
                if attempts == 1 {
                    // Application-level restart: the write (even an exposed
                    // write-through store) must be rolled back and every
                    // lock released so the retry can reacquire them.
                    return Err(tx.cancel());
                }
                Ok(())
            });
            assert_eq!(attempts, 2, "{kind}: cancel must trigger exactly one retry");
            assert_eq!(dpu.peek(data), 8, "{kind}: only the committed increment survives");
            assert_eq!(stats.aborts, 1, "{kind}: the cancelled attempt is accounted");
            assert_eq!(stats.commits, 1, "{kind}");
        }
    }

    #[test]
    fn raw_ops_bypass_instrumentation() {
        use crate::var::TxOps;
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::small_wram(StmKind::TinyEtlWb);
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        let mut slot = shared.register_tasklet(&mut dpu, 0).unwrap();
        let src = dpu.alloc(Tier::Mram, 4).unwrap();
        let dst = dpu.alloc(Tier::Mram, 4).unwrap();
        dpu.poke_block(src, &[1, 2, 3, 4]);
        let mut stats = TaskletStats::new();
        let alg = algorithm_for(StmKind::TinyEtlWb);
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
        run_transaction(alg, &shared, &mut slot, &mut ctx, |tx| {
            tx.raw_copy(src, dst, 4);
            let v = tx.raw_load(dst.offset(1));
            tx.raw_store(dst.offset(1), v * 10);
            Ok(())
        });
        assert_eq!(dpu.peek_block(dst, 4), vec![1, 20, 3, 4]);
        // Raw accesses leave no trace in the transaction logs.
        assert_eq!(slot.read_set_len(), 0);
        assert_eq!(slot.write_set_len(), 0);
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
        // saturation window (2^10 base + jitter).
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
