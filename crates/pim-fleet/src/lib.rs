//! # pim-fleet — a multi-DPU sharded runtime with a host orchestration layer
//!
//! The PIM-STM paper's multi-DPU study extrapolates from one simulated
//! DPU. This crate replaces that extrapolation with *measurement*: it
//! partitions a workload's data across N simulated DPUs (N scaling to
//! thousands — each shard DPU holds exactly the words its slice and STM
//! metadata allocate, and the shard simulators run in parallel across
//! host worker threads), drives them
//! with a round-structured host dispatcher, and merges the per-DPU
//! results into one fleet report. The analytic
//! [`pim_sim::MultiDpuPlan`] stays available as a cross-check baseline
//! ([`FleetReport::analytic_plan`]).
//!
//! ## The host-API contract
//!
//! **Primitive semantics** (SimplePIM-shaped, see [`host`]): the host owns
//! three data-movement primitives, each charged against the same
//! [`pim_sim::CpuTransferModel`] the analytic model uses —
//!
//! * `broadcast(bytes)` — one buffer replicated to all DPUs; the buffer
//!   crosses the host bus once (rank hardware fans out), so cost is
//!   DPU-count independent;
//! * `scatter(bytes_per_dpu)` — per-DPU payloads pushed in one
//!   rank-parallel bulk operation: one fixed overhead plus summed bytes
//!   over bulk bandwidth;
//! * `gather(bytes_per_dpu)` — the DPU→host mirror of scatter.
//!
//! Every invocation is recorded per primitive (calls/bytes/seconds) in a
//! [`TransferLedger`], so transfer cost is *explicit and attributable*
//! rather than folded into a constant.
//!
//! **The round model** — barrier, transfer-cost accounting, the optional
//! double-buffered pipeline and the optional skew-adaptive recut with its
//! migration cost — is stated once, in [`round`], together with the
//! [`ShardJob`] contract a workload implements to be driven through it.
//! [`run_rounds`] is the only round loop: [`runtime`] (this crate's
//! counter-array fleet, [`run`]) and `pim_service::fleet` (the
//! latency-under-load service) are its two jobs. In short: a round costs
//! `pre + compute + post` with `compute` the *slowest* shard's DPU time —
//! a skewed shard stalls the whole fleet, which is what the imbalance
//! statistics ([`Imbalance`]) quantify; every host cost is modeled
//! ([`HostCostModel`]), never measured, so a seeded run is bit-identical
//! on any machine and any `host_workers` setting; [`PipelineStats`] and
//! [`RebalanceStats`] report what the two optional mechanisms hid and
//! moved, and [`FleetReport::cumulative_throughput_series`] exposes a
//! recut's break-even round.
//!
//! **Fleet reports vs single-DPU profiles**: every shard produces
//! ordinary cycle-domain [`pim_stm::ExecProfile`]s; the fleet merges them
//! unchanged ([`FleetReport::profile`]), so per-`AbortReason` histograms,
//! per-phase cycles and DMA counters aggregate across the fleet with the
//! same schema as a single-DPU run. Per-shard placement of that work
//! lives alongside in [`FleetReport::shards`].
//!
//! [`baseline`] holds the CPU-baseline extrapolation constants shared
//! with the analytic Fig. 7/8 path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod host;
pub mod rebalance;
pub mod report;
pub mod round;
pub mod runtime;

pub use host::{HostCostModel, PrimitiveStats, TransferLedger};
pub use rebalance::{RebalancePolicy, Rebalancer};
pub use report::{FleetReport, Imbalance, PipelineStats, RebalanceStats, RoundStats, ShardStats};
pub use round::{
    migration_bytes, run_rounds, RoundLog, ShardJob, ShardRound, GATHER_SUMMARY_BYTES,
    MIGRATION_BYTES_PER_KEY, ROUND_DESCRIPTOR_BYTES,
};
pub use runtime::{resolve_host_workers, run, FleetConfig};
