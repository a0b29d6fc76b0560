//! # host-stm — the CPU-side baseline of the PIM-vs-CPU study
//!
//! Section 4.3 of the PIM-STM paper compares the multi-DPU ports of KMeans
//! and Labyrinth against their original CPU implementations, which use the
//! NOrec STM on x86 threads. This crate provides that baseline:
//!
//! * [`HostTm`] — a word-based NOrec STM for ordinary `std::thread`
//!   concurrency over `AtomicU64` cells (single global sequence lock,
//!   invisible reads, value-based validation, commit-time write-back);
//! * [`kmeans`] — a multi-threaded transactional KMeans assignment round;
//! * [`labyrinth`] — a multi-threaded transactional Lee router.
//!
//! The experiment harness (`pim-exp`) runs these natively, measures wall
//! time, and compares against the simulated multi-DPU execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod kmeans;
pub mod labyrinth;
pub mod norec;

pub use norec::HostTm;
