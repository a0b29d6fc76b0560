//! The [`TmAlgorithm`] trait implemented by every STM design, and the
//! factory that maps an [`StmKind`] to its implementation.

use pim_sim::Addr;

use crate::config::{StmKind, TmComposition};
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
/// a single `&'static dyn TmAlgorithm` can serve every tasklet. The one
/// implementor is [`ComposedTm`]; [`crate::TxEngine`] holds the static
/// composition its configuration's [`StmKind`] names.
///
/// # Abort contract
///
/// When `read`, `write` or `commit` return [`Abort`], the algorithm has
/// already rolled back its side effects (released ownership records and
/// read/write locks, undone write-through stores). The caller only needs to
/// account the abort ([`Platform::abort_attempt`]) and restart the
/// transaction from [`TmAlgorithm::begin`].
pub trait TmAlgorithm: Send + Sync {
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
    fn cancel(&self, shared: &StmShared, tx: &mut TxSlot, p: &mut dyn Platform);

    /// Transactional read of `out.len()` consecutive words through the
    /// shared record-access layer ([`crate::access`]), which honours
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
    ) -> Result<(), Abort>;

    /// Transactional write of consecutive words.
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
    ) -> Result<(), Abort>;
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

/// The statics, each keyed by the grid cell its type parameters name — so
/// the factory below cannot hand out a composition under another cell's
/// name.
static DESIGNS: [(TmComposition, &dyn TmAlgorithm); 7] = [
    (NOREC.composition(), &NOREC),
    (OREC_CTL_WB.composition(), &OREC_CTL_WB),
    (OREC_ETL_WB.composition(), &OREC_ETL_WB),
    (OREC_ETL_WT.composition(), &OREC_ETL_WT),
    (VR_CTL_WB.composition(), &VR_CTL_WB),
    (VR_ETL_WB.composition(), &VR_ETL_WB),
    (VR_ETL_WT.composition(), &VR_ETL_WT),
];

/// Returns the (stateless, statically allocated) implementation of `kind` —
/// the [`ComposedTm`] policy composition the kind's [`TmComposition`]
/// describes.
pub(crate) fn algorithm_for(kind: StmKind) -> &'static dyn TmAlgorithm {
    let cell = kind.composition();
    let (_, alg) = DESIGNS
        .iter()
        .find(|(composition, _)| *composition == cell)
        .expect("every StmKind names one of the seven coherent cells");
    *alg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmConfig;
    use crate::engine::TxEngine;
    use crate::retry::backoff;
    use crate::var::TxOps;
    use pim_sim::{Dpu, DpuConfig, TaskletCtx, TaskletStats, Tier};

    #[test]
    fn factory_returns_matching_kinds() {
        // Every kind resolves (the factory's `expect` does not fire), and
        // the seven statics are seven distinct coherent cells, one per kind.
        for kind in StmKind::ALL {
            algorithm_for(kind);
        }
        let cells: std::collections::HashSet<TmComposition> =
            DESIGNS.iter().map(|(cell, _)| *cell).collect();
        assert_eq!(cells.len(), StmKind::ALL.len());
        assert!(cells.iter().all(|cell| cell.is_coherent() && cell.kind().is_some()));
    }

    /// One tasklet's engine over a fresh small-WRAM instance of `kind`.
    fn engine(dpu: &mut Dpu, kind: StmKind) -> TxEngine {
        let shared = StmShared::allocate(dpu, StmConfig::small_wram(kind)).unwrap();
        let slot = shared.register_tasklet(dpu, 0).unwrap();
        TxEngine::for_shared(shared, slot)
    }

    #[test]
    fn run_transaction_commits_simple_increments_for_every_design() {
        for kind in StmKind::ALL {
            let mut dpu = Dpu::new(DpuConfig::small());
            let mut engine = engine(&mut dpu, kind);
            let counter = dpu.alloc(Tier::Mram, 1).unwrap();
            let mut stats = TaskletStats::new();
            for _ in 0..10 {
                let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
                engine.transaction(&mut ctx, |tx| {
                    let v = tx.read_word(counter)?;
                    tx.write_word(counter, v + 1)
                });
            }
            assert_eq!(dpu.peek(counter), 10, "{kind} lost updates");
            assert_eq!(stats.commits, 10, "{kind} commit count");
            assert_eq!(stats.aborts, 0, "{kind} should not abort single-threaded");
        }
    }

    #[test]
    fn explicit_cancel_rolls_back_and_the_retry_succeeds() {
        for kind in StmKind::ALL {
            let mut dpu = Dpu::new(DpuConfig::small());
            let mut engine = engine(&mut dpu, kind);
            let data = dpu.alloc(Tier::Mram, 1).unwrap();
            dpu.poke(data, 7);
            let mut stats = TaskletStats::new();
            let mut attempts = 0;
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            engine.transaction(&mut ctx, |tx| {
                attempts += 1;
                let v = tx.read_word(data)?;
                tx.write_word(data, v + 1)?;
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
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut engine = engine(&mut dpu, StmKind::TinyEtlWb);
        let src = dpu.alloc(Tier::Mram, 4).unwrap();
        let dst = dpu.alloc(Tier::Mram, 4).unwrap();
        dpu.poke_block(src, &[1, 2, 3, 4]);
        let mut stats = TaskletStats::new();
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
        engine.transaction(&mut ctx, |tx| {
            tx.raw_copy(src, dst, 4);
            let v = tx.raw_load(dst.offset(1));
            tx.raw_store(dst.offset(1), v * 10);
            Ok(())
        });
        assert_eq!(dpu.peek_block(dst, 4), vec![1, 20, 3, 4]);
        // Raw accesses leave no trace in the transaction logs.
        assert_eq!(engine.slot().read_set_len(), 0);
        assert_eq!(engine.slot().write_set_len(), 0);
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
