//! # pim-stm-suite — facade crate of the PIM-STM reproduction
//!
//! This crate re-exports the individual workspace members so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`sim`] — the UPMEM DPU simulator substrate (`pim-sim`);
//! * [`stm`] — the PIM-STM library itself (`pim-stm`);
//! * [`workloads`] — the paper's evaluation workloads (`pim-workloads`);
//! * [`host`] — the CPU-side NOrec baseline (`host-stm`);
//! * [`fleet`] — the measured multi-DPU sharded runtime and its host
//!   orchestration layer (`pim-fleet`);
//! * [`service`] — the open-loop traffic generator, request admission and
//!   latency-under-load accounting layer (`pim-service`);
//! * [`exp`] — the experiment harness that regenerates every figure
//!   (`pim-exp`).
//!
//! See `ROADMAP.md` for the goals and open items, `CHANGES.md` for what each
//! change added, and `bench/README.md` for the performance ledger and how
//! to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use host_stm as host;
pub use pim_exp as exp;
pub use pim_fleet as fleet;
pub use pim_service as service;
pub use pim_sim as sim;
pub use pim_stm as stm;
pub use pim_workloads as workloads;
