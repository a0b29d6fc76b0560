//! The [`TaskletProgram`] trait: how workloads are expressed for the
//! deterministic executor.
//!
//! A tasklet program is a small state machine. The scheduler calls
//! [`TaskletProgram::step`] repeatedly, handing the program a
//! [`TaskletCtx`]; each step should perform roughly one transactional
//! operation (a transactional read/write, a begin, a commit, a block of
//! non-transactional compute). Interleaving between tasklets happens at step
//! granularity in lowest-virtual-time order, so transactions of different
//! tasklets genuinely overlap and conflict.

use crate::ctx::TaskletCtx;
use crate::latency::Cycles;

/// Result of one program step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepStatus {
    /// The program has more work to do.
    Running,
    /// The program has no work until the given absolute cycle (an open-loop
    /// service tasklet waiting for its next request arrival). The scheduler
    /// advances the tasklet's clock to that cycle **without charging busy
    /// cycles** — idle waiting is not compute, back-off or queueing inside
    /// the STM — and steps the program again once it is due. A target in the
    /// past degrades to [`StepStatus::Running`].
    IdleUntil(Cycles),
    /// The program is finished and must not be stepped again.
    Finished,
}

/// A tasklet workload executed by the deterministic [`crate::Scheduler`].
pub trait TaskletProgram {
    /// Executes one step of the program, charging its cost to `ctx`.
    ///
    /// Implementations must guarantee progress: a program that returns
    /// [`StepStatus::Running`] forever without ever finishing will hit the
    /// scheduler's step limit and panic.
    fn step(&mut self, ctx: &mut TaskletCtx<'_>) -> StepStatus;

    /// Optional human-readable label used in diagnostics.
    fn label(&self) -> &str {
        "tasklet-program"
    }
}

impl<T: TaskletProgram + ?Sized> TaskletProgram for Box<T> {
    fn step(&mut self, ctx: &mut TaskletCtx<'_>) -> StepStatus {
        (**self).step(ctx)
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

/// A program built from a closure, mainly for tests and small examples.
pub struct FnProgram<F> {
    f: F,
}

impl<F> FnProgram<F>
where
    F: FnMut(&mut TaskletCtx<'_>) -> StepStatus,
{
    /// Wraps a closure as a program.
    pub fn new(f: F) -> Self {
        FnProgram { f }
    }
}

impl<F> TaskletProgram for FnProgram<F>
where
    F: FnMut(&mut TaskletCtx<'_>) -> StepStatus,
{
    fn step(&mut self, ctx: &mut TaskletCtx<'_>) -> StepStatus {
        (self.f)(ctx)
    }

    fn label(&self) -> &str {
        "fn-program"
    }
}

impl<F> std::fmt::Debug for FnProgram<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnProgram").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpu::{Dpu, DpuConfig};
    use crate::stats::TaskletStats;

    #[test]
    fn fn_program_runs_closure_until_done() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut stats = TaskletStats::new();
        let mut remaining = 3;
        let mut prog = FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
            ctx.compute(1);
            remaining -= 1;
            if remaining == 0 {
                StepStatus::Finished
            } else {
                StepStatus::Running
            }
        });
        let mut steps = 0;
        loop {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            steps += 1;
            if prog.step(&mut ctx) == StepStatus::Finished {
                break;
            }
        }
        assert_eq!(steps, 3);
        assert_eq!(prog.label(), "fn-program");
        assert!(format!("{prog:?}").contains("FnProgram"));
    }

    #[test]
    fn boxed_programs_delegate() {
        let mut boxed: Box<dyn TaskletProgram> =
            Box::new(FnProgram::new(|_: &mut TaskletCtx<'_>| StepStatus::Finished));
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut stats = TaskletStats::new();
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
        assert_eq!(boxed.step(&mut ctx), StepStatus::Finished);
        assert_eq!(boxed.label(), "fn-program");
    }
}
