//! The lowest-virtual-time discrete-event scheduler that interleaves tasklet
//! programs on one DPU.
//!
//! # The ready queue
//!
//! Unfinished tasklets wait in a binary min-heap keyed on `(clock, tid)`, so
//! the next tasklet to dispatch is the heap's root. Three facts make that
//! heap produce exactly the order a full scan for the smallest
//! `(clock, tid)` would:
//!
//! * **keys are unique** — every key carries its tasklet id, so the minimum
//!   is never ambiguous and the `tid` tie-break needs no extra rule;
//! * **only the stepped tasklet's key changes** — a step advances the clock
//!   of the tasklet at the root and of nobody else;
//! * **a key only grows** — a step takes at least one instruction slot, so
//!   re-keying the root is one sift-down.
//!
//! A dispatch therefore costs O(log n) comparisons for n unfinished
//! tasklets (O(1) to read the root, one sift-down to re-key or remove it),
//! where the scan cost O(n). The scan survives as the reference scheduler of
//! this module's differential test.
//!
//! The key is one `u64`, `clock << tid_bits | tid`, where `tid_bits` is the
//! width of the largest tasklet id of the run (0 bits for one program, 5 for
//! 17–32). Because the tid fills the low bits below the clock, integers
//! order exactly as `(clock, tid)` tuples do, and a sift-down compares one
//! word instead of two. The price is a **clock bound**: a queued tasklet's
//! clock must stay at or below `u64::MAX >> tid_bits` cycles (about 52
//! years of simulated time at 350 MHz for 24 tasklets), and
//! [`Scheduler::run`] panics if a step or an `IdleUntil` target carries it
//! past that bound. A finished tasklet leaves the queue, so its final clock
//! is not bounded.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::atomic_reg::AtomicRegisterStats;
use crate::ctx::TaskletCtx;
use crate::dpu::Dpu;
use crate::latency::Cycles;
use crate::program::{StepStatus, TaskletProgram};
use crate::stats::{PhaseBreakdown, TaskletStats};

/// Deterministic tasklet scheduler.
///
/// On every iteration the runnable tasklet with the smallest virtual clock
/// executes one program step; the cycles the step charges advance that
/// tasklet's clock. Ties are broken by tasklet id, so runs are fully
/// reproducible.
#[derive(Debug, Clone)]
pub struct Scheduler {
    max_steps: u64,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    /// Creates a scheduler with a large step budget (far above what any
    /// legitimate experiment needs, but small enough that a livelocked or
    /// non-terminating program fails fast instead of hanging the test
    /// suite).
    pub fn new() -> Self {
        Scheduler { max_steps: 200_000_000 }
    }

    /// Overrides the safety step budget.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Runs `programs` (one per tasklet) to completion on `dpu` and returns
    /// the run report. Programs may borrow from the caller — a round's
    /// shared input, a slot to leave state in — because every one of them
    /// is dropped before `run` returns.
    ///
    /// # Panics
    ///
    /// Panics if the number of programs exceeds the DPU's `max_tasklets`, if
    /// the step budget is exhausted (which indicates a non-terminating
    /// program), or if an unfinished tasklet's clock passes the ready
    /// queue's clock bound (see the module docs).
    pub fn run(
        &self,
        dpu: &mut Dpu,
        mut programs: Vec<Box<dyn TaskletProgram + '_>>,
    ) -> DpuRunReport {
        assert!(
            programs.len() <= dpu.config().max_tasklets,
            "{} programs exceed the DPU's {} hardware threads",
            programs.len(),
            dpu.config().max_tasklets
        );
        let mut stats: Vec<TaskletStats> = vec![TaskletStats::new(); programs.len()];
        // The ready queue (see the module docs): every unfinished tasklet,
        // keyed `clock << tid_bits | tid`, smallest key at the root.
        let tid_bits = usize::BITS - programs.len().saturating_sub(1).leading_zeros();
        let tid_mask = (1u64 << tid_bits) - 1;
        let clock_bound: Cycles = u64::MAX >> tid_bits;
        let mut ready: BinaryHeap<Reverse<u64>> = (0..programs.len() as u64).map(Reverse).collect();
        let mut steps: u64 = 0;

        while let Some(&Reverse(key)) = ready.peek() {
            assert!(
                steps < self.max_steps,
                "scheduler step budget of {} exhausted; a tasklet program is not terminating",
                self.max_steps
            );
            steps += 1;
            let (start, tid) = (key >> tid_bits, (key & tid_mask) as usize);

            let remaining = ready.len();
            let instr_floor = dpu.latency().instruction_cycles(remaining);
            let (status, end) = {
                let mut ctx = TaskletCtx::new(dpu, &mut stats[tid], tid, remaining, start);
                let status = programs[tid].step(&mut ctx);
                (status, ctx.finish())
            };
            // Guarantee forward progress even if a step charged nothing.
            let mut clock = if end > start { end } else { start + instr_floor };
            // An idle-until step additionally advances the clock to the
            // requested cycle without charging anything: the tasklet is
            // parked until its next request arrival, not burning issue slots.
            if let StepStatus::IdleUntil(target) = status {
                clock = clock.max(target);
            }

            let mut root = ready.peek_mut().expect("the stepped tasklet is still at the root");
            if status == StepStatus::Finished {
                stats[tid].finish_cycles = clock;
                PeekMut::pop(root);
            } else {
                assert!(
                    clock <= clock_bound,
                    "tasklet {tid}'s clock {clock} exceeds the ready queue's clock bound of \
                     {clock_bound} cycles (u64::MAX >> {tid_bits} tid bits)"
                );
                // Re-keyed in place; dropping `root` sifts it down.
                root.0 = clock << tid_bits | tid as u64;
            }
        }

        DpuRunReport::from_parts(dpu, stats)
    }
}

/// Aggregated result of running a set of tasklet programs on one DPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DpuRunReport {
    /// Per-tasklet statistics, indexed by tasklet id.
    pub tasklet_stats: Vec<TaskletStats>,
    /// Virtual time at which the last tasklet finished.
    pub makespan_cycles: Cycles,
    /// DPU clock frequency used to convert cycles to seconds.
    pub clock_hz: u64,
    /// Usage statistics of the hardware atomic register.
    pub atomic_stats: AtomicRegisterStats,
}

impl DpuRunReport {
    fn from_parts(dpu: &Dpu, tasklet_stats: Vec<TaskletStats>) -> Self {
        let makespan_cycles = tasklet_stats.iter().map(|s| s.finish_cycles).max().unwrap_or(0);
        DpuRunReport {
            tasklet_stats,
            makespan_cycles,
            clock_hz: dpu.latency().clock_hz,
            atomic_stats: dpu.atomic_register().stats(),
        }
    }

    /// Total committed transactions across all tasklets.
    pub fn total_commits(&self) -> u64 {
        self.tasklet_stats.iter().map(|s| s.commits).sum()
    }

    /// Total aborted transaction attempts across all tasklets.
    pub fn total_aborts(&self) -> u64 {
        self.tasklet_stats.iter().map(|s| s.aborts).sum()
    }

    /// Abort rate in `[0, 1]` across all tasklets.
    pub fn abort_rate(&self) -> f64 {
        let commits = self.total_commits();
        let aborts = self.total_aborts();
        if commits + aborts == 0 {
            0.0
        } else {
            aborts as f64 / (commits + aborts) as f64
        }
    }

    /// Wall-clock duration of the run in (simulated) seconds.
    pub fn makespan_seconds(&self) -> f64 {
        self.makespan_cycles as f64 / self.clock_hz as f64
    }

    /// Committed transactions per simulated second — the paper's throughput
    /// metric.
    pub fn throughput_tx_per_sec(&self) -> f64 {
        let secs = self.makespan_seconds();
        if secs == 0.0 {
            0.0
        } else {
            self.total_commits() as f64 / secs
        }
    }

    /// Phase breakdown summed over all tasklets.
    pub fn breakdown(&self) -> PhaseBreakdown {
        self.tasklet_stats.iter().fold(PhaseBreakdown::new(), |acc, s| acc + s.breakdown)
    }

    /// MRAM DMA transfers issued across all tasklets (each pays one setup).
    /// Burst coalescing lowers this without changing the word count.
    pub fn total_mram_dma_setups(&self) -> u64 {
        self.tasklet_stats.iter().map(|s| s.mram_dma_setups).sum()
    }

    /// Words moved over the MRAM port across all tasklets.
    pub fn total_mram_dma_words(&self) -> u64 {
        self.tasklet_stats.iter().map(|s| s.mram_dma_words).sum()
    }

    /// Number of tasklets that took part in the run.
    pub fn tasklets(&self) -> usize {
        self.tasklet_stats.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpu::DpuConfig;
    use crate::mem::{Addr, Tier};
    use crate::program::{FnProgram, IdleProgram};
    use crate::rng::SimRng;
    use crate::stats::Phase;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// `(tid, start_clock)` of every dispatch, in dispatch order.
    type DispatchTrace = Rc<RefCell<Vec<(usize, Cycles)>>>;

    /// The reference scheduler of the differential tests: the ready queue
    /// of [`Scheduler::run`] replaced by a scan of every tasklet for the
    /// smallest `(clock, tid)` on every step.
    fn reference_run(dpu: &mut Dpu, mut programs: Vec<Box<dyn TaskletProgram>>) -> DpuRunReport {
        let n = programs.len();
        let mut clocks: Vec<Cycles> = vec![0; n];
        let mut finished: Vec<bool> = vec![false; n];
        let mut stats: Vec<TaskletStats> = vec![TaskletStats::new(); n];
        let mut remaining = n;

        while remaining > 0 {
            let tid = (0..n)
                .filter(|&i| !finished[i])
                .min_by_key(|&i| (clocks[i], i))
                .expect("remaining > 0 implies an unfinished tasklet");

            let start = clocks[tid];
            let instr_floor = dpu.latency().instruction_cycles(remaining);
            let (status, end) = {
                let mut ctx = TaskletCtx::new(dpu, &mut stats[tid], tid, remaining, start);
                let status = programs[tid].step(&mut ctx);
                (status, ctx.finish())
            };
            clocks[tid] = if end > start { end } else { start + instr_floor };
            if let StepStatus::IdleUntil(target) = status {
                clocks[tid] = clocks[tid].max(target);
            }

            if status == StepStatus::Finished {
                finished[tid] = true;
                stats[tid].finish_cycles = clocks[tid];
                remaining -= 1;
            }
        }

        DpuRunReport::from_parts(dpu, stats)
    }

    /// A program that logs every dispatch to `trace` and then draws its
    /// step from `seed`: nothing at all (a zero-cost step), a few
    /// instructions, a read-modify-write of `shared` (whose cost depends on
    /// who used the MRAM port before), or an `IdleUntil` whose target lies
    /// behind or ahead of its clock. It finishes after a seeded number of
    /// steps, so tasklets leave the queue at different times.
    fn seeded_program(seed: u64, shared: Addr, trace: DispatchTrace) -> Box<dyn TaskletProgram> {
        let mut rng = SimRng::new(seed);
        let mut steps_left = rng.next_range(48);
        Box::new(FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
            trace.borrow_mut().push((ctx.tasklet_id(), ctx.now()));
            if steps_left == 0 {
                ctx.compute(rng.next_range(3));
                return StepStatus::Finished;
            }
            steps_left -= 1;
            match rng.next_range(5) {
                0 => StepStatus::Running,
                1 => {
                    ctx.compute(1 + rng.next_range(8));
                    StepStatus::Running
                }
                2 => {
                    let value = ctx.load(shared);
                    ctx.store(shared, value + 1);
                    StepStatus::Running
                }
                3 => StepStatus::IdleUntil(ctx.now().saturating_sub(rng.next_range(500))),
                _ => StepStatus::IdleUntil(ctx.now() + 1 + rng.next_range(2_000)),
            }
        }))
    }

    /// A DPU whose `max_tasklets` fills the ready queue's tid field: 32
    /// programs use every value of their 5 tid bits.
    fn full_tid_width_dpu() -> Dpu {
        Dpu::new(DpuConfig { max_tasklets: 32, ..DpuConfig::small() })
    }

    /// Runs `tasklets` seeded programs under `run` on a fresh DPU and
    /// returns the dispatch trace and the report.
    fn traced_run(
        seed: u64,
        tasklets: usize,
        run: impl FnOnce(&mut Dpu, Vec<Box<dyn TaskletProgram>>) -> DpuRunReport,
    ) -> (Vec<(usize, Cycles)>, DpuRunReport) {
        let mut dpu = full_tid_width_dpu();
        let shared = dpu.alloc(Tier::Mram, 1).unwrap();
        let trace = DispatchTrace::default();
        let programs = (0..tasklets as u64)
            .map(|tid| seeded_program(seed.wrapping_add(tid), shared, Rc::clone(&trace)))
            .collect();
        let report = run(&mut dpu, programs);
        let dispatches = trace.take();
        (dispatches, report)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The ready queue dispatches exactly as the full scan does, up to a
        /// program count that fills the tid field.
        #[test]
        fn ready_queue_dispatches_like_the_reference_scan(
            seed in any::<u64>(),
            tasklets in 1usize..33,
        ) {
            let queue = traced_run(seed, tasklets, |dpu, programs| {
                Scheduler::new().run(dpu, programs)
            });
            let scan = traced_run(seed, tasklets, reference_run);
            let parted = queue.0.iter().zip(&scan.0).position(|(q, s)| q != s);
            prop_assert!(
                queue.0 == scan.0,
                "dispatch traces part at step {:?} ({} against {} dispatches)",
                parted,
                queue.0.len(),
                scan.0.len()
            );
            prop_assert_eq!(&queue.1, &scan.1);
        }
    }

    /// The ready queue's clock bound for `tasklets` programs, written out
    /// from the tid widths: 1 bit for 2 programs, 2 for 3–4, 5 for 17–32.
    fn clock_bound(tasklets: usize) -> Cycles {
        let tid_bits = match tasklets {
            1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            17..=32 => 5,
            _ => unreachable!("no test runs more than 32 programs"),
        };
        u64::MAX >> tid_bits
    }

    /// Runs `tasklets` programs under `run` that park at `IdleUntil`
    /// targets at and just below the clock bound — several at exactly the
    /// same target, so the tid alone orders them — and then finish with a
    /// zero-cost step. Returns the dispatch trace and the report.
    fn parked_at_the_bound_run(
        tasklets: usize,
        run: impl FnOnce(&mut Dpu, Vec<Box<dyn TaskletProgram>>) -> DpuRunReport,
    ) -> (Vec<(usize, Cycles)>, DpuRunReport) {
        let bound = clock_bound(tasklets);
        let trace = DispatchTrace::default();
        let programs = (0..tasklets)
            .map(|tid| {
                let trace = Rc::clone(&trace);
                let mut step = 0;
                Box::new(FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
                    trace.borrow_mut().push((ctx.tasklet_id(), ctx.now()));
                    step += 1;
                    match step {
                        1 => {
                            ctx.compute(tid as u64 % 3);
                            StepStatus::IdleUntil(bound / 2 + tid as u64 % 2)
                        }
                        2 => StepStatus::IdleUntil(bound - tid as u64 % 4),
                        _ => StepStatus::Finished,
                    }
                })) as Box<dyn TaskletProgram>
            })
            .collect();
        let report = run(&mut full_tid_width_dpu(), programs);
        let dispatches = trace.take();
        (dispatches, report)
    }

    #[test]
    fn idle_until_targets_at_the_clock_bound_dispatch_like_the_reference_scan() {
        for tasklets in [2, 3, 4, 5, 17, 32] {
            let queue = parked_at_the_bound_run(tasklets, |dpu, programs| {
                Scheduler::new().run(dpu, programs)
            });
            let scan = parked_at_the_bound_run(tasklets, reference_run);
            assert_eq!(queue, scan, "{tasklets} tasklets");
            let parked = queue.0.iter().filter(|&&(_, now)| now >= clock_bound(tasklets) - 3);
            assert_eq!(parked.count(), tasklets, "every tasklet woke near the bound");
        }
    }

    #[test]
    #[should_panic(
        expected = "exceeds the ready queue's clock bound of 9223372036854775807 cycles"
    )]
    fn an_idle_until_target_past_the_clock_bound_panics() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut parked = false;
        let sleeper = FnProgram::new(move |_ctx: &mut TaskletCtx<'_>| {
            if parked {
                return StepStatus::Finished;
            }
            parked = true;
            StepStatus::IdleUntil(clock_bound(2) + 1)
        });
        Scheduler::new().run(&mut dpu, vec![Box::new(sleeper), Box::new(IdleProgram)]);
    }

    #[test]
    #[should_panic(
        expected = "exceeds the ready queue's clock bound of 1152921504606846975 cycles"
    )]
    fn a_step_charged_past_the_clock_bound_panics() {
        let mut dpu = full_tid_width_dpu();
        let mut step = 0;
        let worker = FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
            step += 1;
            match step {
                1 => StepStatus::IdleUntil(clock_bound(9)),
                2 => {
                    ctx.compute(1);
                    StepStatus::Running
                }
                _ => StepStatus::Finished,
            }
        });
        let mut programs: Vec<Box<dyn TaskletProgram>> = vec![Box::new(worker)];
        programs.extend((1..9).map(|_| Box::new(IdleProgram) as Box<dyn TaskletProgram>));
        Scheduler::new().run(&mut dpu, programs);
    }

    #[test]
    fn tied_clocks_dispatch_in_tasklet_id_order() {
        // 24 tasklets whose steps all cost the same: every clock ties on
        // every round, so the tasklet id alone decides the order and each
        // dispatch sends the root to the bottom of the queue.
        const TASKLETS: usize = 24;
        const ROUNDS: u64 = 6;
        let mut dpu = Dpu::new(DpuConfig::small());
        let step_cycles = dpu.latency().instruction_cycles(TASKLETS);
        let trace = DispatchTrace::default();
        let programs = (0..TASKLETS)
            .map(|_| {
                let trace = Rc::clone(&trace);
                let mut left = ROUNDS;
                Box::new(FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
                    trace.borrow_mut().push((ctx.tasklet_id(), ctx.now()));
                    if left == 0 {
                        return StepStatus::Finished;
                    }
                    left -= 1;
                    ctx.compute(1);
                    StepStatus::Running
                })) as Box<dyn TaskletProgram>
            })
            .collect();
        Scheduler::new().run(&mut dpu, programs);
        let expected: Vec<(usize, Cycles)> = (0..=ROUNDS)
            .flat_map(|round| (0..TASKLETS).map(move |tid| (tid, round * step_cycles)))
            .collect();
        assert_eq!(trace.take(), expected);
    }

    #[test]
    fn empty_program_set_produces_empty_report() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let report = Scheduler::new().run(&mut dpu, Vec::new());
        assert_eq!(report.tasklets(), 0);
        assert_eq!(report.makespan_cycles, 0);
        assert_eq!(report.throughput_tx_per_sec(), 0.0);
    }

    #[test]
    fn single_tasklet_counter_increments_accumulate() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let counter = dpu.alloc(Tier::Mram, 1).unwrap();
        let mut remaining = 25u32;
        let prog = FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
            if remaining == 0 {
                return StepStatus::Finished;
            }
            let v = ctx.load(counter);
            ctx.store(counter, v + 1);
            remaining -= 1;
            StepStatus::Running
        });
        let report = Scheduler::new().run(&mut dpu, vec![Box::new(prog)]);
        assert_eq!(dpu.peek(counter), 25);
        assert!(report.makespan_cycles > 0);
    }

    #[test]
    fn interleaving_is_fair_and_deterministic() {
        // Two tasklets append their id to a log; with equal per-step costs the
        // scheduler must alternate them deterministically.
        fn run_once() -> Vec<u64> {
            let mut dpu = Dpu::new(DpuConfig::small());
            let log = dpu.alloc(Tier::Mram, 64).unwrap();
            let cursor = dpu.alloc(Tier::Mram, 1).unwrap();
            let mk = |id: u64| {
                let mut remaining = 8u32;
                FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
                    if remaining == 0 {
                        return StepStatus::Finished;
                    }
                    let c = ctx.load(cursor);
                    ctx.store(log.offset(c as u32), id);
                    ctx.store(cursor, c + 1);
                    remaining -= 1;
                    StepStatus::Running
                })
            };
            let report = Scheduler::new()
                .run(&mut dpu, vec![Box::new(mk(1)) as Box<dyn TaskletProgram>, Box::new(mk(2))]);
            assert_eq!(report.tasklets(), 2);
            dpu.peek_block(log, 16)
        }
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "scheduler must be deterministic");
        assert!(a.contains(&1) && a.contains(&2), "both tasklets must run");
    }

    #[test]
    fn makespan_grows_sublinearly_up_to_pipeline_depth() {
        // Pure-compute tasklets: per-tasklet time is independent of the
        // tasklet count up to the pipeline depth, so makespan stays flat while
        // total work scales — this is the linear-scaling property of the DPU.
        let run = |tasklets: usize| {
            let mut dpu = Dpu::new(DpuConfig::small());
            let programs: Vec<Box<dyn TaskletProgram>> = (0..tasklets)
                .map(|_| {
                    let mut remaining = 50u32;
                    Box::new(FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
                        if remaining == 0 {
                            return StepStatus::Finished;
                        }
                        ctx.compute(4);
                        remaining -= 1;
                        StepStatus::Running
                    })) as Box<dyn TaskletProgram>
                })
                .collect();
            Scheduler::new().run(&mut dpu, programs).makespan_cycles
        };
        let one = run(1);
        let eleven = run(11);
        let twentyfour = run(24);
        assert_eq!(one, eleven, "1..=11 tasklets of pure compute should not dilate each other");
        assert!(twentyfour > eleven, "beyond the pipeline depth issue slots are shared");
    }

    #[test]
    fn commits_and_phase_cycles_roll_up_into_report() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let word = dpu.alloc(Tier::Wram, 1).unwrap();
        let mk = || {
            let mut remaining = 5u32;
            FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
                if remaining == 0 {
                    return StepStatus::Finished;
                }
                ctx.begin_attempt();
                ctx.set_phase(Phase::Reading);
                ctx.load(word);
                ctx.commit_attempt();
                remaining -= 1;
                StepStatus::Running
            })
        };
        let report = Scheduler::new()
            .run(&mut dpu, vec![Box::new(mk()) as Box<dyn TaskletProgram>, Box::new(mk())]);
        assert_eq!(report.total_commits(), 10);
        assert_eq!(report.total_aborts(), 0);
        assert_eq!(report.abort_rate(), 0.0);
        assert!(report.breakdown().get(Phase::Reading) > 0);
        assert!(report.throughput_tx_per_sec() > 0.0);
    }

    #[test]
    fn zero_cost_steps_still_make_progress() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut remaining = 3u32;
        let prog = FnProgram::new(move |_ctx: &mut TaskletCtx<'_>| {
            if remaining == 0 {
                return StepStatus::Finished;
            }
            remaining -= 1;
            StepStatus::Running
        });
        let report =
            Scheduler::new().run(&mut dpu, vec![Box::new(prog) as Box<dyn TaskletProgram>]);
        assert!(report.makespan_cycles > 0, "scheduler must advance time even for no-op steps");
    }

    #[test]
    fn idle_until_advances_time_without_charging_cycles() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut state = 0u32;
        let prog = FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
            state += 1;
            match state {
                // Park until cycle 10_000 without doing any work.
                1 => StepStatus::IdleUntil(10_000),
                // Woken at (or after) the requested cycle.
                2 => {
                    assert!(ctx.now() >= 10_000, "woke too early at {}", ctx.now());
                    ctx.compute(1);
                    StepStatus::Running
                }
                // A target in the past must not rewind the clock.
                3 => StepStatus::IdleUntil(5),
                _ => StepStatus::Finished,
            }
        });
        let report =
            Scheduler::new().run(&mut dpu, vec![Box::new(prog) as Box<dyn TaskletProgram>]);
        assert!(report.makespan_cycles >= 10_000);
        // Only the single compute(1) charged cycles; idling charged nothing.
        let charged: u64 = report.tasklet_stats[0].breakdown.total();
        assert!(charged < 100, "idle waiting must not be charged as busy time, got {charged}");
    }

    #[test]
    fn idle_tasklet_yields_to_runnable_peers() {
        // One tasklet parks far in the future; another does real work. The
        // worker must finish long before the sleeper's wake-up time, i.e. the
        // sleeper never blocks the DPU.
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut parked = false;
        let sleeper = FnProgram::new(move |_ctx: &mut TaskletCtx<'_>| {
            if parked {
                StepStatus::Finished
            } else {
                parked = true;
                StepStatus::IdleUntil(1_000_000)
            }
        });
        let mut remaining = 10u32;
        let worker = FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
            if remaining == 0 {
                return StepStatus::Finished;
            }
            ctx.compute(1);
            remaining -= 1;
            StepStatus::Running
        });
        let report = Scheduler::new()
            .run(&mut dpu, vec![Box::new(sleeper) as Box<dyn TaskletProgram>, Box::new(worker)]);
        assert!(report.tasklet_stats[1].finish_cycles < 1_000_000);
        assert!(report.tasklet_stats[0].finish_cycles >= 1_000_000);
    }

    #[test]
    #[should_panic(expected = "step budget")]
    fn runaway_program_hits_step_budget() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let prog = FnProgram::new(|ctx: &mut TaskletCtx<'_>| {
            ctx.compute(1);
            StepStatus::Running
        });
        Scheduler::new()
            .with_max_steps(100)
            .run(&mut dpu, vec![Box::new(prog) as Box<dyn TaskletProgram>]);
    }

    #[test]
    #[should_panic(expected = "hardware threads")]
    fn too_many_programs_panics() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let programs: Vec<Box<dyn TaskletProgram>> =
            (0..25).map(|_| Box::new(IdleProgram) as Box<dyn TaskletProgram>).collect();
        Scheduler::new().run(&mut dpu, programs);
    }
}
