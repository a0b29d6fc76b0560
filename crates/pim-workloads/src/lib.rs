//! # pim-workloads — the PIM-STM evaluation workloads
//!
//! Rust ports of every benchmark used in §4.1 of the PIM-STM paper. Each
//! workload is written **once**: its transactions as resumable [`TxBody`]s
//! against the typed [`pim_stm::TxOps`] facade, and the tasklet loop around
//! them as a [`TaskletLoop`] — and that one loop runs on both executors
//! through [`spec::RunSpec::run_on`]:
//!
//! * on the deterministic **simulator**, [`driver::SimTasklet`] steps the
//!   loop and, through [`driver::SimTxRunner`], each body one operation per
//!   scheduler slot, so the discrete-event scheduler interleaves individual
//!   transactional operations of concurrent tasklets (which is what makes
//!   conflicts, aborts and the time-breakdown plots meaningful);
//! * on the **threaded executor**, [`driver::run_loop`] runs the same loop
//!   and [`driver::run_tx_body`] each body to completion inside one
//!   retry-managed transaction closure.
//!
//! The workloads:
//!
//! * [`array_bench`] — the synthetic ArrayBench micro-benchmark, workloads A
//!   (large read phase, low contention) and B (tiny, highly contended
//!   read-modify-write transactions);
//! * [`linked_list`] — a sorted transactional linked list exercised with
//!   `contains`/`add`/`remove` mixes (low- and high-contention variants);
//! * [`kmeans`] — the STAMP KMeans port (non-transactional nearest-centroid
//!   search, transactional centroid update), low and high contention;
//! * [`labyrinth`] — the STAMP Labyrinth port (Lee maze router on a 3-D
//!   grid; long transactions that copy the grid privately, route, then claim
//!   the path transactionally), S/M/L grid sizes;
//! * [`sharded`] — the fleet-scale sharded counter array: a global,
//!   shard-count-independent transaction stream range-partitioned across N
//!   DPUs, with host-side routing of cross-shard transactions
//!   (route-to-owner vs abort-and-retry). Driven by the `pim-fleet`
//!   orchestration layer rather than [`spec::RunSpec`].
//!
//! [`spec`] ties everything together: a [`spec::Workload`] names a paper
//! workload, and [`spec::RunSpec::run_on`] builds the DPU (simulated or
//! threaded), the STM instance and the tasklet loops, runs them and returns
//! the unified [`spec::WorkloadReport`] (commits, aborts, final-state
//! fingerprint, invariant checking, and — on the simulator — the full
//! cycle-level report the figures are drawn from).
//!
//! # Writing a new workload
//!
//! 1. **Shape the shared data with typed handles.** Allocate
//!    [`pim_stm::TVar`]s / [`pim_stm::TArray`]s through
//!    [`pim_stm::var::alloc_var`] / [`pim_stm::var::alloc_array`] — generic
//!    over [`pim_stm::shared::MetadataAllocator`], so the same `Data` struct
//!    builds on a simulated [`pim_sim::Dpu`] and on a
//!    [`pim_stm::threaded::ThreadedDpu`]. Pointer-shaped structures wrap
//!    their raw addresses in `TVar::new` (see [`linked_list`]).
//! 2. **Write each transaction as a [`TxBody`]** and the loop around them as
//!    a [`TaskletLoop`], following the [`driver`] rules: one operation per
//!    body step, inputs readied before the body so retries reuse them,
//!    `Err(tx.cancel())` for application-level restarts (see
//!    [`labyrinth::RouteTxBody`]), the raw facade ops for non-transactional
//!    bulk data.
//! 3. **Run it on both executors.** `build` wraps one loop per tasklet with
//!    [`driver::sim_tasklets`]; `run_threaded` runs the same loop with
//!    [`driver::run_loop`]. Derive per-tasklet RNG streams with
//!    [`driver::tasklet_rng`] so seeded runs draw identical sequences on both
//!    executors, then register the workload in [`spec`] (fingerprint +
//!    invariants) to get cross-executor checking for free.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array_bench;
pub mod driver;
pub mod kmeans;
pub mod labyrinth;
pub mod linked_list;
pub mod sharded;
pub mod spec;
pub mod structs;

pub use driver::{run_tx_body, BodyStep, Next, SimTasklet, TaskletLoop, TxBody, TxMachine};
pub use sharded::{GlobalTx, RoutingPolicy, ShardMap, ShardTx, ShardedWorkloadConfig};
pub use spec::{Executor, RunSpec, Workload, WorkloadReport};
pub use structs::{MapFull, TxHashMap, TxQueue};
