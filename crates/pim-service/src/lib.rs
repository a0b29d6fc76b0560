//! # pim-service — latency under load for the PIM-STM runtimes
//!
//! The paper's harness (and this repo's `pim-exp` experiments) measure
//! *capacity*: closed-loop tasklets that fire the next transaction the
//! moment the previous one commits. That answers "how many transactions per
//! second can a DPU commit" but not the question a service operator asks:
//! **what latency does a client see at a given offered load?** This crate
//! adds the missing service layer, end to end:
//!
//! 1. **Open-loop traffic generation** ([`arrival`]) — seeded, deterministic
//!    arrival timestamps from [`ArrivalProcess::Poisson`],
//!    [`ArrivalProcess::Bursty`] (on/off-modulated Poisson) or the
//!    [`ArrivalProcess::ClosedLoop`] baseline, with zipfian key skew reusing
//!    `pim_sim::skew`.
//! 2. **Request admission** ([`single`]) — a queue in front of each DPU's
//!    tasklet pool. On the simulator an idle tasklet parks with
//!    [`pim_sim::StepStatus::IdleUntil`] until the next arrival (virtual
//!    time advances without charging busy cycles); on the threaded executor
//!    it sleeps until the wall-clock arrival.
//! 3. **Latency accounting** ([`latency`]) — every transaction is stamped
//!    `arrival → dispatch → first attempt → commit` (the engine half lives
//!    in `pim_stm::txslot::TxStamps`), cut into queueing / service / sojourn
//!    [`pim_sim::LatencyHistogram`]s tagged with the executor's
//!    [`pim_stm::TimeDomain`].
//! 4. **Service structures** ([`request`]) — get/put/transfer mixes served
//!    against the transactional hashmap and journal queue of
//!    `pim_workloads::structs`.
//!
//! [`fleet`] scales the same stream across sharded DPUs: arrivals routed by
//! `ShardMap` ownership, per-round global-clock anchoring (so round-barrier
//! waits land in queueing delay), skew-adaptive rebalancing with host-side
//! key migration, and the host pipeline's overlap accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod fleet;
pub mod latency;
pub mod request;
pub mod single;

pub use arrival::{ArrivalGen, ArrivalProcess};
pub use fleet::{run_service_fleet, ServiceFleetConfig, ServiceFleetReport, REQUEST_WIRE_BYTES};
pub use latency::{LatencyPanel, ServiceHistogram};
pub use request::{generate_requests, Request, RequestBody, RequestMix, RequestOp, ServiceTables};
pub use single::{run_service, run_service_sim, PanelComponent, ServiceConfig, ServiceReport};
