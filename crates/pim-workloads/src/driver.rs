//! The cross-executor workload driver: one transaction body, every executor.
//!
//! # The `TxOps` path is the default
//!
//! Workload transaction logic in this crate is written **once**, against the
//! typed [`TxOps`] facade (`TVar`/`TArray`, `get`/`set`, records, raw DMA),
//! as a resumable [`TxBody`] state machine. The same body then runs on both
//! executors:
//!
//! * **Simulator** — [`SimTxRunner`] drives the body one operation per
//!   scheduler step (through [`TxMachine::ops`]), so the discrete-event
//!   scheduler interleaves individual transactional operations of concurrent
//!   tasklets — which is what makes conflicts, aborts and the paper's
//!   time-breakdown plots meaningful. The runner owns the begin / commit /
//!   abort-restart bookkeeping that each workload used to hand-roll.
//! * **Threaded executor** — [`run_tx_body`] loops the body to completion
//!   inside one [`pim_stm::threaded::TaskletTx::transaction`] closure; the
//!   shared retry core re-runs the body from [`TxBody::reset`] on abort.
//!
//! The word-based API ([`TxMachine::read`] / [`TxMachine::write`] on raw
//! addresses) remains available underneath as an escape hatch for code that
//! computes addresses dynamically, but new workloads should not need it:
//! pointer-chasing structures can wrap raw addresses in typed handles (see
//! `linked_list`).
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

use pim_sim::{SimRng, TaskletCtx};
use pim_stm::threaded::TaskletTx;
use pim_stm::{Abort, TxOps};

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
}

/// Result of one [`SimTxRunner::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxStatus {
    /// The transaction is still executing (or restarting after an abort).
    InFlight,
    /// The transaction just committed; the body's outcome can be harvested.
    Committed,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunnerState {
    Begin,
    Step,
    Commit,
}

/// Drives a [`TxBody`] on the simulator, one operation per scheduler step,
/// with the begin / commit / abort-restart bookkeeping every workload
/// previously duplicated.
#[derive(Debug)]
pub struct SimTxRunner {
    machine: TxMachine,
    state: RunnerState,
}

impl SimTxRunner {
    /// Wraps a per-tasklet transaction machine.
    pub fn new(machine: TxMachine) -> Self {
        SimTxRunner { machine, state: RunnerState::Begin }
    }

    /// The underlying machine (for commit/abort tallies).
    pub fn machine(&self) -> &TxMachine {
        &self.machine
    }

    /// Mutable access to the underlying machine. Service drivers use this to
    /// harvest per-transaction latency stamps ([`TxMachine::take_stamps`])
    /// after each committed request.
    pub fn machine_mut(&mut self) -> &mut TxMachine {
        &mut self.machine
    }

    /// Advances the in-flight transaction by one scheduler step: begin, one
    /// body operation, or commit. Returns [`TxStatus::Committed`] on the
    /// step that commits; aborted attempts rewind transparently.
    pub fn step<B: TxBody>(&mut self, ctx: &mut TaskletCtx<'_>, body: &mut B) -> TxStatus {
        match self.state {
            RunnerState::Begin => {
                self.machine.begin(ctx);
                body.reset();
                self.state = RunnerState::Step;
                TxStatus::InFlight
            }
            RunnerState::Step => {
                match body.step(&mut self.machine.ops(ctx)) {
                    Ok(BodyStep::Continue) => {}
                    Ok(BodyStep::Done) => self.state = RunnerState::Commit,
                    Err(abort) => {
                        self.machine.on_abort(ctx, abort.reason);
                        self.state = RunnerState::Begin;
                    }
                }
                TxStatus::InFlight
            }
            RunnerState::Commit => match self.machine.commit(ctx) {
                Ok(()) => {
                    self.state = RunnerState::Begin;
                    TxStatus::Committed
                }
                Err(abort) => {
                    self.machine.on_abort(ctx, abort.reason);
                    self.state = RunnerState::Begin;
                    TxStatus::InFlight
                }
            },
        }
    }
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
