//! The transaction engine: the one per-tasklet transaction object, and the
//! single retry / back-off / accounting core behind every way of running a
//! transaction.
//!
//! [`TxEngine`] holds a tasklet's copy of the shared STM metadata and its
//! transaction descriptor. Each operation matches the
//! configuration's [`StmKind`] onto the [`ComposedTm`] cell it names (the
//! private `with_design!` macro, one exhaustive `match`). It runs
//! transactions in two styles, on either executor:
//!
//! * [`TxEngine::transaction`] is *the* retry loop — attempt accounting,
//!   bounded randomised back-off, phase restoration — for closure
//!   bodies ([`crate::threaded::TaskletTx`] wraps an engine);
//! * the step API ([`TxEngine::begin`], [`TxEngine::read`], …,
//!   [`TxEngine::on_abort`]) serves state machines that must yield to a
//!   scheduler between operations. The retry loop is written in terms of
//!   it, so both styles account identically.
//!
//! Either way a body sees one handle, [`EngineOps`]: the engine with a
//! platform bound, and the only [`crate::var::TxOps`] implementor.

use pim_sim::{Addr, Phase};

use crate::config::StmKind;
use crate::error::{Abort, AbortReason};
use crate::platform::Platform;
use crate::policy::{
    CommitTime, ComposedTm, EncounterTime, InvisibleOrec, ValueValidation, VisibleReadLocks,
    WriteBack, WriteThrough,
};
use crate::shared::StmShared;
use crate::txslot::TxSlot;

/// Evaluates `$body` with `$alg` bound to the [`ComposedTm`] cell that
/// `$kind` names. The `match` is exhaustive, so a new [`StmKind`] does not
/// compile until it names a cell, and each cell is built in a `const`
/// block, so an incoherent one fails the build.
macro_rules! with_design {
    ($kind:expr, $alg:ident => $body:expr) => {
        with_design!(@cells $kind, $alg => $body;
            Norec: ValueValidation, CommitTime, WriteBack;
            TinyCtlWb: InvisibleOrec, CommitTime, WriteBack;
            TinyEtlWb: InvisibleOrec, EncounterTime, WriteBack;
            TinyEtlWt: InvisibleOrec, EncounterTime, WriteThrough;
            VrCtlWb: VisibleReadLocks, CommitTime, WriteBack;
            VrEtlWb: VisibleReadLocks, EncounterTime, WriteBack;
            VrEtlWt: VisibleReadLocks, EncounterTime, WriteThrough;
        )
    };
    (@cells $kind:expr, $alg:ident => $body:expr; $($k:ident: $r:ident, $l:ident, $w:ident;)*) => {
        match $kind {
            $(StmKind::$k => {
                let $alg = const { ComposedTm::<$r, $l, $w>::new($r) };
                $body
            })*
        }
    };
}

/// Commit/abort tallies of one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxCounters {
    /// Transactions committed.
    pub commits: u64,
    /// Attempts aborted.
    pub aborts: u64,
}

/// Per-tasklet transactional machinery: this tasklet's copy of the shared
/// metadata (whose configuration names the STM design) and its descriptor,
/// usable from both execution styles.
///
/// * **Closure style** — [`TxEngine::transaction`] runs a body to commit;
///   the body receives an [`EngineOps`] and therefore the whole typed
///   [`crate::var::TxOps`] facade.
/// * **Step style** — workload state machines that must yield to the
///   discrete-event scheduler between operations drive
///   [`TxEngine::begin`] / [`TxEngine::read`] / [`TxEngine::write`] /
///   [`TxEngine::commit`] themselves and call [`TxEngine::on_abort`] to
///   rewind. [`TxEngine::ops`] briefly binds a platform to the engine so
///   even individual steps can use the typed facade.
pub struct TxEngine {
    shared: StmShared,
    slot: TxSlot,
    counters: TxCounters,
}

impl TxEngine {
    /// Creates the machinery for one tasklet over `shared`, whose
    /// configuration names the design every operation dispatches to.
    pub fn for_shared(shared: StmShared, slot: TxSlot) -> Self {
        TxEngine { shared, slot, counters: TxCounters::default() }
    }

    /// Gives the descriptor back, so a host that pools descriptors (the
    /// threaded executor) can build a fresh engine over it next time.
    pub(crate) fn into_slot(self) -> TxSlot {
        self.slot
    }

    /// Runs `body` as a transaction, retrying on abort until it commits,
    /// and returns its result. Commits and aborts are tallied on this
    /// engine.
    pub fn transaction<R>(
        &mut self,
        p: &mut dyn Platform,
        mut body: impl FnMut(&mut EngineOps<'_>) -> Result<R, Abort>,
    ) -> R {
        // One call = one transaction: fresh stamps for the service layer.
        self.slot.clear_stamps();
        loop {
            self.begin(p);
            let result = body(&mut self.ops(p));
            match result.and_then(|value| self.commit(p).map(|()| value)) {
                Ok(value) => {
                    p.set_phase(Phase::OtherExec);
                    return value;
                }
                Err(abort) => self.on_abort(p, abort.reason),
            }
            p.set_phase(Phase::OtherExec);
        }
    }

    /// Binds `p` to this engine so one or more *individual* operations can go
    /// through the typed [`crate::var::TxOps`] facade between scheduler
    /// steps.
    pub fn ops<'a>(&'a mut self, p: &'a mut dyn Platform) -> EngineOps<'a> {
        EngineOps { engine: self, p }
    }

    /// Starts a transaction attempt (also used to restart after an abort).
    ///
    /// The first attempt since the last [`TxEngine::take_stamps`] harvest is
    /// stamped with the platform clock; retries keep the original stamp.
    pub fn begin(&mut self, p: &mut dyn Platform) {
        p.begin_attempt();
        self.slot.stamp_first_attempt(p.timestamp());
        with_design!(self.kind(), alg => alg.begin(&self.shared, &mut self.slot, p));
    }

    /// Transactional read of one word.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying algorithm.
    pub fn read(&mut self, p: &mut dyn Platform, addr: Addr) -> Result<u64, Abort> {
        with_design!(self.kind(), alg => alg.read(&self.shared, &mut self.slot, p, addr))
    }

    /// Transactional write of one word.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying algorithm.
    pub fn write(&mut self, p: &mut dyn Platform, addr: Addr, value: u64) -> Result<(), Abort> {
        with_design!(self.kind(), alg => alg.write(&self.shared, &mut self.slot, p, addr, value))
    }

    /// Transactional read of `out.len()` consecutive words (one MRAM DMA
    /// burst where the design allows it).
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying algorithm.
    pub fn read_record(
        &mut self,
        p: &mut dyn Platform,
        addr: Addr,
        out: &mut [u64],
    ) -> Result<(), Abort> {
        with_design!(self.kind(), alg => alg.read_record(&self.shared, &mut self.slot, p, addr, out))
    }

    /// Transactional write of consecutive words (see
    /// [`TxEngine::read_record`]).
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the underlying algorithm.
    pub fn write_record(
        &mut self,
        p: &mut dyn Platform,
        addr: Addr,
        values: &[u64],
    ) -> Result<(), Abort> {
        with_design!(self.kind(), alg => {
            alg.write_record(&self.shared, &mut self.slot, p, addr, values)
        })
    }

    /// Attempts to commit; on success the attempt is accounted as committed:
    /// the platform resolves its in-flight attempt, the descriptor resets
    /// its consecutive-abort counter and stamps the commit. The stamp comes
    /// *after* `commit_attempt` because a platform may answer
    /// [`Platform::timestamp`] with the reading it took at that boundary
    /// (the threaded executor does); the simulator's clock does not move in
    /// between.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`]; the caller must then call
    /// [`TxEngine::on_abort`] and restart the transaction body.
    pub fn commit(&mut self, p: &mut dyn Platform) -> Result<(), Abort> {
        with_design!(self.kind(), alg => alg.commit(&self.shared, &mut self.slot, p))?;
        p.commit_attempt();
        self.slot.note_commit();
        self.slot.stamp_commit(p.timestamp());
        self.counters.commits += 1;
        Ok(())
    }

    /// Explicitly abandons the current attempt (releasing locks and undoing
    /// exposed writes) without the algorithm having detected a conflict.
    /// The caller must still call [`TxEngine::on_abort`] afterwards.
    pub fn cancel(&mut self, p: &mut dyn Platform) {
        with_design!(self.kind(), alg => alg.cancel(&self.shared, &mut self.slot, p));
    }

    /// Accounts an aborted attempt — the cycles it consumed become wasted
    /// time, and `reason` feeds both the platform's profile and the
    /// descriptor's local histogram — then applies the configured
    /// [`crate::RetryPolicy`] back-off. Callers hold the reason because the
    /// step that failed returned it inside [`Abort`].
    ///
    /// This is the single emission point for the retry axis: every abort on
    /// every executor flows through here, so `--retry` sweeps need no
    /// per-algorithm (or per-body) support.
    pub fn on_abort(&mut self, p: &mut dyn Platform, reason: AbortReason) {
        p.abort_attempt_with(reason);
        self.slot.note_abort(reason);
        crate::retry::apply(self.shared.config().knobs.retry, &self.slot, p);
        self.counters.aborts += 1;
    }

    /// Shared STM metadata handles.
    pub fn shared(&self) -> &StmShared {
        &self.shared
    }

    /// This tasklet's transaction descriptor (log sizes, stamps).
    pub fn slot(&self) -> &TxSlot {
        &self.slot
    }

    /// The design this engine runs.
    pub fn kind(&self) -> StmKind {
        self.shared.config().kind
    }

    /// Transactions committed by this tasklet.
    pub fn commits(&self) -> u64 {
        self.counters.commits
    }

    /// Attempts aborted by this tasklet.
    pub fn aborts(&self) -> u64 {
        self.counters.aborts
    }

    /// Both tallies at once.
    pub fn counters(&self) -> TxCounters {
        self.counters
    }

    /// The in-flight (or just-committed) transaction's platform-clock stamps
    /// (see [`crate::txslot::TxStamps`]).
    pub fn stamps(&self) -> crate::txslot::TxStamps {
        self.slot.stamps()
    }

    /// Harvests the last transaction's stamps and clears them so the next
    /// [`TxEngine::begin`] stamps a fresh first attempt. Service drivers
    /// call this once per committed request.
    pub fn take_stamps(&mut self) -> crate::txslot::TxStamps {
        self.slot.take_stamps()
    }

    /// Returns the engine's host-side bookkeeping to what a newly built
    /// engine over a newly registered descriptor has — zero tallies, no
    /// consecutive aborts, an all-zero abort histogram, no stamps — and
    /// keeps the descriptor's staging buffers. Round-based hosts (the fleet
    /// dispatcher) call it between rounds, when no transaction is in
    /// flight, so no round inherits another's host-side bookkeeping.
    pub fn reset_host_state(&mut self) {
        self.slot.reset_host_state();
        self.counters = TxCounters::default();
    }
}

impl std::fmt::Debug for TxEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxEngine")
            .field("kind", &self.kind())
            .field("commits", &self.counters.commits)
            .field("aborts", &self.counters.aborts)
            .finish()
    }
}

/// A [`TxEngine`] with a platform bound for the duration of one or more
/// operations: the handle every transaction body receives, whether
/// [`TxEngine::transaction`] runs it to commit or a step-granular state
/// machine drives it one operation at a time.
pub struct EngineOps<'a> {
    engine: &'a mut TxEngine,
    p: &'a mut dyn Platform,
}

impl crate::var::TxOps for EngineOps<'_> {
    #[inline]
    fn read_word(&mut self, addr: Addr) -> Result<u64, Abort> {
        self.engine.read(self.p, addr)
    }

    #[inline]
    fn write_word(&mut self, addr: Addr, value: u64) -> Result<(), Abort> {
        self.engine.write(self.p, addr, value)
    }

    #[inline]
    fn read_words(&mut self, addr: Addr, out: &mut [u64]) -> Result<(), Abort> {
        self.engine.read_record(self.p, addr, out)
    }

    #[inline]
    fn write_words(&mut self, addr: Addr, values: &[u64]) -> Result<(), Abort> {
        self.engine.write_record(self.p, addr, values)
    }

    #[inline]
    fn compute(&mut self, instructions: u64) {
        self.p.compute(instructions);
    }

    #[inline]
    fn tasklet_id(&self) -> usize {
        self.p.tasklet_id()
    }

    #[inline]
    fn cancel(&mut self) -> Abort {
        self.engine.cancel(self.p);
        Abort::new(AbortReason::Explicit)
    }

    #[inline]
    fn raw_load(&mut self, addr: Addr) -> u64 {
        self.p.load(addr)
    }

    #[inline]
    fn raw_store(&mut self, addr: Addr, value: u64) {
        self.p.store(addr, value)
    }

    #[inline]
    fn raw_copy(&mut self, src: Addr, dst: Addr, words: u32) {
        self.p.copy(src, dst, words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmConfig;
    use crate::var::TxOps;
    use pim_sim::{Dpu, DpuConfig, TaskletCtx, TaskletStats, Tier};

    #[test]
    fn every_kind_dispatches_to_the_cell_it_names() {
        for kind in StmKind::ALL {
            assert_eq!(with_design!(kind, alg => alg.composition()), kind.composition(), "{kind}");
        }
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
            {
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
            }
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
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            engine.transaction(&mut ctx, |tx| {
                tx.raw_copy(src, dst, 4);
                let v = tx.raw_load(dst.offset(1));
                tx.raw_store(dst.offset(1), v * 10);
                Ok(())
            });
        }
        assert_eq!(dpu.peek_block(dst, 4), vec![1, 20, 3, 4]);
        // Raw accesses leave no trace in the transaction logs.
        assert_eq!(engine.slot().read_set_len(), 0);
        assert_eq!(engine.slot().write_set_len(), 0);
    }
}
