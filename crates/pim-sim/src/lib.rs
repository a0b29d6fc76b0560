//! # pim-sim — a cycle-accounted simulator of the UPMEM PIM architecture
//!
//! The PIM-STM paper evaluates its STM designs on UPMEM hardware: DRAM DIMMs
//! whose chips embed *Data Processing Units* (DPUs). Each DPU owns a 64 MB
//! DRAM bank (**MRAM**), a 64 KB scratchpad (**WRAM**), a 24-thread in-order
//! core whose pipeline reaches full utilisation at **11 tasklets**, and a
//! 256-entry **atomic bit register** used to build locks. This crate provides
//! a deterministic, discrete-event model of exactly those resources so that
//! the STM library in `pim-stm` and the workloads in `pim-workloads` can be
//! executed and *timed* without the hardware.
//!
//! The simulator is organised around four ideas:
//!
//! 1. [`Dpu`] owns the two memory tiers, the atomic register and the bump
//!    allocators ([`mem`], [`atomic_reg`]).
//! 2. [`TaskletCtx`] is the handle a running tasklet uses to touch memory.
//!    Every access charges virtual cycles according to the latency model in
//!    [`latency`], attributed to an execution [`Phase`] so the paper's
//!    time-breakdown plots can be regenerated.
//! 3. [`Scheduler`] interleaves [`TaskletProgram`]s in lowest-virtual-time
//!    order, one transactional operation per step, which yields reproducible
//!    contention between concurrent transactions.
//! 4. [`system`] and [`energy`] model the multi-DPU system (CPU-mediated
//!    transfers, per-round orchestration) and the energy accounting used by
//!    the paper's §4.3 study.
//!
//! ## Quick example
//!
//! ```
//! use pim_sim::{Dpu, DpuConfig, Scheduler, TaskletProgram, TaskletCtx, StepStatus, Tier};
//!
//! /// A tasklet that increments a counter in MRAM a few times.
//! struct Incr { counter: pim_sim::Addr, remaining: u32 }
//!
//! impl TaskletProgram for Incr {
//!     fn step(&mut self, ctx: &mut TaskletCtx<'_>) -> StepStatus {
//!         if self.remaining == 0 {
//!             return StepStatus::Finished;
//!         }
//!         let v = ctx.load(self.counter);
//!         ctx.store(self.counter, v + 1);
//!         self.remaining -= 1;
//!         StepStatus::Running
//!     }
//! }
//!
//! let mut dpu = Dpu::new(DpuConfig::default());
//! let counter = dpu.alloc_zeroed(Tier::Mram, 1).expect("allocation fits");
//! let programs: Vec<Box<dyn TaskletProgram>> = (0..4)
//!     .map(|_| Box::new(Incr { counter, remaining: 10 }) as Box<dyn TaskletProgram>)
//!     .collect();
//! let report = Scheduler::new().run(&mut dpu, programs);
//! assert_eq!(dpu.peek(counter), 40);
//! assert!(report.makespan_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic_reg;
pub mod ctx;
pub mod dpu;
pub mod energy;
pub mod histogram;
pub mod latency;
pub mod mem;
pub mod program;
pub mod rng;
pub mod scheduler;
pub mod skew;
pub mod stats;
pub mod system;

pub use atomic_reg::AtomicBitRegister;
pub use ctx::TaskletCtx;
pub use dpu::{Dpu, DpuConfig};
pub use energy::EnergyModel;
pub use histogram::LatencyHistogram;
pub use latency::{Cycles, LatencyModel};
pub use mem::{Addr, AllocError, Tier};
pub use program::{StepStatus, TaskletProgram};
pub use rng::SimRng;
pub use scheduler::{DpuRunReport, Scheduler};
pub use skew::{KeyDist, KeySampler};
pub use stats::{Phase, PhaseBreakdown, ProfileCore, TaskletStats, ABORT_CODE_SLOTS, PHASES};
pub use system::{CpuTransferModel, MultiDpuPlan, MultiDpuReport, RoundPlan};
