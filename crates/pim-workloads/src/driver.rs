//! The cross-executor workload driver: one tasklet loop, every executor.
//!
//! A paper benchmark is a tasklet loop around transactions: ready the next
//! transaction, run it to commit, repeat. Each half is written **once**:
//!
//! * the transaction is a resumable [`TxBody`] state machine, written
//!   against the typed [`TxOps`] facade (`TVar`/`TArray`, `get`/`set`,
//!   records, raw DMA);
//! * the loop around it is a [`TaskletLoop`]: what the tasklet does between
//!   transactions and after a commit.
//!
//! One driver per executor runs any loop:
//!
//! * **Simulator** — [`SimTasklet`] is the tasklet's scheduler program: the
//!   loop's steps between transactions, and each body through
//!   [`SimTxRunner`], the one state machine that steps every simulated
//!   transaction (begin, one body operation per scheduler step, commit,
//!   abort-restart), so the scheduler interleaves individual operations of
//!   concurrent tasklets — which is what makes conflicts, aborts and the
//!   paper's time-breakdown plots meaningful.
//! * **Threaded executor** — [`run_loop`] runs the same loop on a thread,
//!   and [`run_tx_body`] each body to completion inside one
//!   [`pim_stm::threaded::TaskletTx::transaction`] closure that re-runs it
//!   from [`TxBody::reset`] on abort.
//!
//! # The contract of a tasklet loop
//!
//! * **One call, one scheduler step.** On the simulator each call of
//!   [`TaskletLoop::between`] is one scheduler step: at most one bounded
//!   piece of non-transactional work, charged through the [`Platform`] it
//!   is given (KMeans's scan of one centroid), then what comes next
//!   ([`Next`]). A step that charges nothing still costs the scheduler's
//!   instruction floor, so moving work between calls moves the clock.
//! * **The handover is a step of its own.** The step on which `between`
//!   hands over a body ([`Next::Run`]) ends there; the transaction begins on
//!   the next step. Readying a transaction (drawing its targets, installing
//!   a point) happens outside it so that retries reuse it, as the paper's
//!   tasklets ready their inputs before they start one: other tasklets
//!   interleave between the two, and the attempt's accounting starts with
//!   its begin.
//! * **After a commit.** [`TaskletLoop::committed`] runs inside the step
//!   that commits, and its answer takes effect there: a loop whose next
//!   body is ready at once answers [`Next::Run`] and the next step begins
//!   it, with no handover step (Labyrinth's pop → route); one that is done
//!   answers [`Next::Finish`] on the commit step.
//! * **Parking.** A loop with nothing to do until the platform clock reads
//!   *t* answers [`Next::Park`]. The simulator idles the tasklet until
//!   cycle *t* without charging busy cycles; a thread waits until the wall
//!   clock ([`pim_stm::threaded::wall_clock_nanos`]) reads *t*. Either way
//!   the next `between` sees a [`Platform::timestamp`] at or past *t*.
//! * **Which cancels are final.** An attempt the body gives up with
//!   [`TxOps::cancel`] rewinds and retries, like a detected conflict
//!   (Labyrinth's taken cell). On the simulator, a body whose
//!   [`TxBody::cancel_is_final`] holds ends its transaction there instead:
//!   the abort is accounted, the transaction does not commit, and the next
//!   step asks `between` again (the fleet's probe, which the host
//!   re-dispatches).
//!
//! # Rules for body authors
//!
//! These restate the `TxOps` contract (see `pim_stm::var`) plus the step
//! discipline the simulator adds:
//!
//! * **Propagate aborts** — every operation returns `Result<_, Abort>`;
//!   bubble it up with `?`. Never swallow an `Abort`: the retry machinery
//!   must see it to roll back and restart the attempt.
//! * **No side effects** — a body may run (and be rewound) many times before
//!   it commits. Mutating captured state is only sound if
//!   [`TxBody::reset`] restores it; everything else (I/O, counters the
//!   harness reads) belongs *outside* the body, keyed on the committed
//!   result.
//! * **One operation per step** — [`TxBody::step`] should issue roughly one
//!   transactional operation (or one bounded block of non-transactional
//!   work) per call, so the simulator can interleave tasklets between
//!   operations.
//! * **Application-level restarts use [`TxOps::cancel`]** — when the body
//!   must give up on an attempt for its own reasons (not a detected
//!   conflict), return `Err(tx.cancel())`; fabricating an `Abort` without
//!   cancelling leaks locks and exposed stores.
//!
//! [`TxMachine`] is [`pim_stm::TxEngine`] under this crate's name, so on
//! both executors a body receives the same [`EngineOps`] handle.

use std::borrow::BorrowMut;

use pim_sim::{Dpu, SimRng, StepStatus, TaskletCtx, TaskletProgram};
use pim_stm::threaded::TaskletTx;
use pim_stm::{Abort, AbortReason, Platform, StmShared, TxOps, TxStamps};

pub use pim_stm::engine::{EngineOps, TxCounters};
pub use pim_stm::TxEngine as TxMachine;

/// What a [`TxBody`] step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyStep {
    /// The body has more operations to issue.
    Continue,
    /// The body just issued its last operation; the transaction can commit.
    Done,
}

/// A transaction body written once against [`TxOps`] and resumable one
/// operation at a time.
///
/// Implementations keep their own program counter so the simulator can
/// interleave other tasklets between operations; the threaded executor just
/// loops [`TxBody::step`] until [`BodyStep::Done`]. See the
/// [module documentation](self) for the authoring rules.
pub trait TxBody {
    /// Rewinds the body to the start of the transaction. Called before the
    /// first step of every attempt, including retries after an abort.
    fn reset(&mut self);

    /// Issues the next operation of the body.
    ///
    /// # Errors
    ///
    /// Propagates [`Abort`] from the transactional operations (or from
    /// [`TxOps::cancel`]); the caller rewinds via [`TxBody::reset`] and
    /// retries.
    fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort>;

    /// Whether an attempt this body gives up with [`TxOps::cancel`] ends
    /// the transaction uncommitted instead of retrying it. Only
    /// [`SimTxRunner`] reads it: a final cancel hands the transaction back
    /// to a host that re-dispatches it (the fleet's), and the threaded
    /// executor has none, so there a cancel always retries.
    fn cancel_is_final(&self) -> bool {
        false
    }
}

/// Result of one [`SimTxRunner::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxStatus {
    /// The transaction is still executing (or restarting after an abort).
    InFlight,
    /// The transaction just committed; the body's outcome can be harvested.
    Committed,
    /// The body cancelled an attempt and its cancel is final
    /// ([`TxBody::cancel_is_final`]): the transaction ended uncommitted.
    Cancelled,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunnerState {
    Begin,
    Step,
    Commit,
}

/// Drives a [`TxBody`] on the simulator, one operation per scheduler step,
/// with the begin / commit / abort-restart bookkeeping. The machine is
/// owned (`M` = [`TxMachine`]) or borrowed (`&mut TxMachine`) by a host
/// that keeps one per tasklet across runs.
#[derive(Debug)]
pub struct SimTxRunner<M = TxMachine> {
    machine: M,
    state: RunnerState,
}

impl<M: BorrowMut<TxMachine>> SimTxRunner<M> {
    /// Wraps a per-tasklet transaction machine.
    pub(crate) fn new(machine: M) -> Self {
        SimTxRunner { machine, state: RunnerState::Begin }
    }

    /// The underlying machine (for commit/abort tallies).
    pub(crate) fn machine(&self) -> &TxMachine {
        self.machine.borrow()
    }

    /// Mutable access to the underlying machine.
    pub(crate) fn machine_mut(&mut self) -> &mut TxMachine {
        self.machine.borrow_mut()
    }

    /// Advances the in-flight transaction by one scheduler step: begin, one
    /// body operation, or commit. Returns [`TxStatus::Committed`] on the
    /// step that commits and [`TxStatus::Cancelled`] on the step whose
    /// final cancel ends it; other aborted attempts rewind transparently.
    pub(crate) fn step<B: TxBody>(&mut self, ctx: &mut TaskletCtx<'_>, body: &mut B) -> TxStatus {
        let machine = self.machine.borrow_mut();
        match self.state {
            RunnerState::Begin => {
                machine.begin(ctx);
                body.reset();
                self.state = RunnerState::Step;
                TxStatus::InFlight
            }
            RunnerState::Step => match body.step(&mut machine.ops(ctx)) {
                Ok(BodyStep::Continue) => TxStatus::InFlight,
                Ok(BodyStep::Done) => {
                    self.state = RunnerState::Commit;
                    TxStatus::InFlight
                }
                Err(abort) => {
                    machine.on_abort(ctx, abort.reason);
                    self.state = RunnerState::Begin;
                    if abort.reason == AbortReason::Explicit && body.cancel_is_final() {
                        TxStatus::Cancelled
                    } else {
                        TxStatus::InFlight
                    }
                }
            },
            RunnerState::Commit => {
                self.state = RunnerState::Begin;
                match machine.commit(ctx) {
                    Ok(()) => TxStatus::Committed,
                    Err(abort) => {
                        machine.on_abort(ctx, abort.reason);
                        TxStatus::InFlight
                    }
                }
            }
        }
    }
}

/// What a tasklet does next, as its [`TaskletLoop`] answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Run a transaction on [`TaskletLoop::body`], beginning on the next
    /// step.
    Run,
    /// Ask [`TaskletLoop::between`] again on the next step.
    Between,
    /// Nothing to do until the platform clock ([`Platform::timestamp`])
    /// reads this; then ask [`TaskletLoop::between`] again. The simulator
    /// parks the tasklet without charging busy cycles; a thread waits for
    /// the wall clock ([`TaskletTx::park_until`]).
    Park(u64),
    /// The tasklet is done.
    Finish,
}

/// One tasklet's loop around its transactions, run by [`SimTasklet`] on the
/// simulator and by [`run_loop`] on threads. See the
/// [module documentation](self) for the contract.
pub trait TaskletLoop {
    /// The transaction body the loop hands over.
    type Body: TxBody;

    /// Whether the first body is ready when the loop is built, so the first
    /// step begins it; otherwise the first step asks
    /// [`TaskletLoop::between`].
    const READY: bool = false;

    /// One scheduler step between transactions: at most one bounded piece
    /// of non-transactional work, charged through `p`, then what comes
    /// next.
    fn between(&mut self, p: &mut dyn Platform) -> Next;

    /// The body a [`Next::Run`] hands over.
    fn body(&mut self) -> &mut Self::Body;

    /// Runs inside the step that commits the body: harvest its outcome and
    /// the transaction's `stamps`, and say what comes next. The default
    /// asks [`TaskletLoop::between`] on the next step.
    fn committed(&mut self, p: &mut dyn Platform, stamps: TxStamps) -> Next {
        let _ = (p, stamps);
        Next::Between
    }
}

/// The simulator program of any [`TaskletLoop`]: its steps between
/// transactions, and each transaction through [`SimTxRunner`].
#[derive(Debug)]
pub struct SimTasklet<L, M = TxMachine> {
    runner: SimTxRunner<M>,
    tasklet: L,
    in_transaction: bool,
}

impl<L: TaskletLoop, M: BorrowMut<TxMachine>> SimTasklet<L, M> {
    /// The program of `tasklet` over `machine`.
    pub fn new(machine: M, tasklet: L) -> Self {
        SimTasklet { runner: SimTxRunner::new(machine), tasklet, in_transaction: L::READY }
    }
}

impl<L: TaskletLoop, M: BorrowMut<TxMachine>> TaskletProgram for SimTasklet<L, M> {
    fn step(&mut self, ctx: &mut TaskletCtx<'_>) -> StepStatus {
        let next = if self.in_transaction {
            match self.runner.step(ctx, self.tasklet.body()) {
                TxStatus::InFlight => return StepStatus::Running,
                TxStatus::Committed => {
                    let stamps = self.runner.machine().stamps();
                    self.tasklet.committed(ctx, stamps)
                }
                TxStatus::Cancelled => Next::Between,
            }
        } else {
            self.tasklet.between(ctx)
        };
        self.in_transaction = next == Next::Run;
        match next {
            Next::Run => {
                // Fresh stamps for the transaction about to begin.
                self.runner.machine_mut().take_stamps();
                StepStatus::Running
            }
            Next::Between => StepStatus::Running,
            Next::Park(at) => StepStatus::IdleUntil(at),
            Next::Finish => StepStatus::Finished,
        }
    }

    fn label(&self) -> &str {
        std::any::type_name::<L>()
    }
}

/// A workload's simulator programs: for each tasklet `t`, its transaction
/// logs registered on `shared`, then its loop `make(dpu, t)` in a
/// [`SimTasklet`].
///
/// # Panics
///
/// Panics if the per-tasklet logs do not fit the metadata tier.
pub fn sim_tasklets<L: TaskletLoop + 'static>(
    dpu: &mut Dpu,
    shared: &StmShared,
    tasklets: usize,
    mut make: impl FnMut(&mut Dpu, usize) -> L,
) -> Vec<Box<dyn TaskletProgram>> {
    (0..tasklets)
        .map(|t| {
            let slot = shared
                .register_tasklet(dpu, t)
                .expect("per-tasklet STM logs must fit in the metadata tier");
            let machine = TxMachine::for_shared(shared.clone(), slot);
            Box::new(SimTasklet::new(machine, make(dpu, t))) as Box<dyn TaskletProgram>
        })
        .collect()
}

/// Runs a [`TxBody`] to completion (retrying on abort) on the threaded
/// executor — the *same* body type [`SimTxRunner`] drives on the simulator.
pub fn run_tx_body<B: TxBody>(tasklet: &mut TaskletTx<'_>, body: &mut B) {
    tasklet.transaction(|tx| {
        body.reset();
        loop {
            if body.step(tx)? == BodyStep::Done {
                return Ok(());
            }
        }
    });
}

/// Runs a [`TaskletLoop`] to its end on one threaded tasklet — the *same*
/// loop [`SimTasklet`] steps on the simulator.
pub fn run_loop<L: TaskletLoop>(tasklet: &mut TaskletTx<'_>, mut lp: L) {
    let mut next = if L::READY { Next::Run } else { Next::Between };
    loop {
        next = match next {
            Next::Run => {
                run_tx_body(tasklet, lp.body());
                let stamps = tasklet.last_tx_stamps();
                lp.committed(tasklet.platform(), stamps)
            }
            Next::Between => lp.between(tasklet.platform()),
            Next::Park(at) => {
                tasklet.park_until(at);
                lp.between(tasklet.platform())
            }
            Next::Finish => return,
        };
    }
}

/// Derives tasklet `tasklet`'s private RNG stream for a run seeded with
/// `seed`.
///
/// Both executors use this, so a seeded workload draws identical per-tasklet
/// random sequences on the simulator and on real threads — the property the
/// cross-executor equivalence tests rely on. (The simulator's builders fork
/// streams sequentially from one parent; this reproduces the `tasklet`-th
/// fork without shared mutable state.)
pub fn tasklet_rng(seed: u64, tasklet: usize) -> SimRng {
    let mut parent = SimRng::new(seed);
    let mut stream = parent.fork(0);
    for t in 1..=tasklet {
        stream = parent.fork(t as u64);
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{Dpu, DpuConfig, TaskletStats, Tier};
    use pim_stm::var::TVar;
    use pim_stm::{MetadataPlacement, StmConfig, StmKind, StmShared};

    #[test]
    fn machine_tracks_commits_and_aborts() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram);
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        let slot0 = shared.register_tasklet(&mut dpu, 0).unwrap();
        let slot1 = shared.register_tasklet(&mut dpu, 1).unwrap();
        let data = dpu.alloc(Tier::Mram, 1).unwrap();
        let mut m0 = TxMachine::for_shared(shared.clone(), slot0);
        let mut m1 = TxMachine::for_shared(shared, slot1);
        let mut stats0 = TaskletStats::new();
        let mut stats1 = TaskletStats::new();

        // m0 commits a write.
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats0, 0, 2, 0);
            m0.begin(&mut ctx);
            m0.write(&mut ctx, data, 1).unwrap();
            m0.commit(&mut ctx).unwrap();
        }
        // m0 holds a lock, so m1's write aborts and is accounted.
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats0, 0, 2, 0);
            m0.begin(&mut ctx);
            m0.write(&mut ctx, data, 2).unwrap();
        }
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats1, 1, 2, 0);
            m1.begin(&mut ctx);
            let abort = m1.write(&mut ctx, data, 3).unwrap_err();
            m1.on_abort(&mut ctx, abort.reason);
        }
        assert_eq!(m0.commits(), 1);
        assert_eq!(m1.aborts(), 1);
        assert_eq!(stats0.commits, 1);
        assert_eq!(stats1.aborts, 1);
        assert!(format!("{m1:?}").contains("aborts"));
    }

    /// A minimal body: increment a counter in two steps (read, then write).
    struct IncrementBody {
        counter: TVar<u64>,
        observed: Option<u64>,
    }

    impl TxBody for IncrementBody {
        fn reset(&mut self) {
            self.observed = None;
        }

        fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort> {
            match self.observed {
                None => {
                    self.observed = Some(tx.get(self.counter)?);
                    Ok(BodyStep::Continue)
                }
                Some(value) => {
                    tx.set(self.counter, value + 1)?;
                    Ok(BodyStep::Done)
                }
            }
        }
    }

    #[test]
    fn sim_runner_steps_a_body_through_begin_ops_commit() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram);
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        let slot = shared.register_tasklet(&mut dpu, 0).unwrap();
        let counter: TVar<u64> = pim_stm::var::alloc_var(&mut dpu, Tier::Mram).unwrap();
        let mut runner = SimTxRunner::new(TxMachine::for_shared(shared, slot));
        let mut body = IncrementBody { counter, observed: None };
        let mut stats = TaskletStats::new();
        let mut steps = 0;
        loop {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            steps += 1;
            if runner.step(&mut ctx, &mut body) == TxStatus::Committed {
                break;
            }
            assert!(steps < 16, "runner must reach commit");
        }
        // begin + two ops + commit, one scheduler step each.
        assert_eq!(steps, 4);
        assert_eq!(pim_stm::var::peek_var(&dpu, counter), 1);
        assert_eq!(runner.machine().commits(), 1);
    }

    #[test]
    fn the_same_body_runs_on_the_threaded_executor() {
        let cfg =
            StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram).with_lock_table_entries(64);
        let mut dpu = pim_stm::threaded::ThreadedDpu::new(cfg).unwrap();
        let counter: TVar<u64> = dpu.alloc_var(Tier::Mram).unwrap();
        let report = dpu
            .run(4, |mut tasklet| {
                let mut body = IncrementBody { counter, observed: None };
                for _ in 0..50 {
                    run_tx_body(&mut tasklet, &mut body);
                }
            })
            .unwrap();
        assert_eq!(dpu.peek_var(counter), 200, "increments lost under concurrency");
        assert_eq!(report.commits, 200);
    }

    /// A body whose every attempt gives up at once, with a final cancel.
    struct RejectBody;

    impl TxBody for RejectBody {
        fn reset(&mut self) {}

        fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort> {
            Err(tx.cancel())
        }

        fn cancel_is_final(&self) -> bool {
            true
        }
    }

    #[test]
    fn a_final_cancel_ends_the_transaction() {
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram);
        let mut dpu = Dpu::new(DpuConfig::small());
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        let slot = shared.register_tasklet(&mut dpu, 0).unwrap();
        let mut runner = SimTxRunner::new(TxMachine::for_shared(shared, slot));
        let mut stats = TaskletStats::new();
        // Begin, then the cancelling step ends the transaction.
        for status in [TxStatus::InFlight, TxStatus::Cancelled] {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            assert_eq!(runner.step(&mut ctx, &mut RejectBody), status);
        }
        assert_eq!(runner.machine().counters(), TxCounters { commits: 0, aborts: 1 });
    }

    /// Parks once, two milliseconds past the clock it first sees; the next
    /// `between` must see the clock at or past that, and finishes.
    struct ParkOnce(Option<u64>);

    impl TaskletLoop for ParkOnce {
        type Body = IncrementBody;

        fn between(&mut self, p: &mut dyn Platform) -> Next {
            let now = p.timestamp();
            match self.0 {
                None => {
                    self.0 = Some(now + 2_000_000);
                    Next::Park(now + 2_000_000)
                }
                Some(at) => {
                    assert!(now >= at, "between saw {now} ns, before the park target {at} ns");
                    Next::Finish
                }
            }
        }

        fn body(&mut self) -> &mut IncrementBody {
            unreachable!("the loop never runs a transaction")
        }
    }

    #[test]
    fn a_threaded_park_waits_for_the_wall_clock() {
        let cfg = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram);
        let mut dpu = pim_stm::threaded::ThreadedDpu::new(cfg).unwrap();
        let start = std::time::Instant::now();
        dpu.run(1, |mut tasklet| run_loop(&mut tasklet, ParkOnce(None))).unwrap();
        assert!(start.elapsed() >= std::time::Duration::from_millis(2));
    }

    #[test]
    fn tasklet_rng_matches_sequential_forks() {
        let mut parent = SimRng::new(99);
        for t in 0..4usize {
            let mut expected = parent.fork(t as u64);
            let mut derived = tasklet_rng(99, t);
            for _ in 0..8 {
                assert_eq!(derived.next_u64(), expected.next_u64(), "tasklet {t}");
            }
        }
    }
}
