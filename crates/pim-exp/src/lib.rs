//! # pim-exp — the experiment harness
//!
//! One module per experiment of the PIM-STM paper. Each function builds the
//! workloads, sweeps the requested parameter space on the simulator (and, for
//! §4.3, measures the host CPU baseline natively), and returns plain data
//! structures that the `pim-exp` binary prints as the same series/rows the
//! paper plots:
//!
//! * [`design_space`] — Fig. 4, 5, 9 and 10: throughput, abort rate and time
//!   breakdown for every STM design as the tasklet count grows, with STM
//!   metadata in MRAM or WRAM;
//! * [`peak`] — Fig. 6: distribution across workloads of each design's peak
//!   throughput normalised to the per-workload best, folded from the
//!   Fig. 4/5/9/10 sweeps;
//! * [`multi_dpu`] — Fig. 7 and 8: multi-DPU KMeans/Labyrinth speed-up over
//!   the CPU baseline and the TDP-based energy comparison;
//! * [`fleet`] — the `--fleet` sweep: a *measured* weak-scaling curve and
//!   skew sweep on the [`pim_fleet`] sharded multi-DPU runtime, with the
//!   analytic multi-DPU plan as a cross-check column;
//! * [`grid`] — the `--grid` full-grid design-space search: every coherent
//!   composition × knob combination of one workload×placement cell, ranked,
//!   with the static defaults' slowdown-vs-best called out. Knobs are one
//!   static vector per run; this offline search is how to pick it;
//! * [`latency`] — the §3.1 measurement that motivates DPU-local
//!   transactions (local MRAM read vs CPU-mediated remote read);
//! * [`service`] — the `--service` mode: open-loop latency under offered
//!   load on the [`pim_service`] layer, single-DPU (both executors) and
//!   sharded across the fleet, reported as queueing / STM-service /
//!   sojourn quantiles per offered rate.
//!
//! Two infrastructure modules make the harness fast without changing a
//! single reported number:
//!
//! * [`pool`] — a deterministic bounded worker pool (`--workers N`) that
//!   fans out grid cells, sweep cells, `--repeat` iterations and fleet
//!   points as independent jobs and collects results by index, so every
//!   table and JSON dump is bit-identical for any worker count; it also
//!   owns the one thread budget shared with [`pim_fleet`]'s per-shard
//!   host workers (see [`pool::WorkerPool::inner_budget`]);
//! * [`cache`] — a content-addressed memo of completed simulator runs
//!   (canonical key = workload spec + every knob + seed + executor +
//!   schema version) with an optional `--cache-dir` on-disk tier, so the
//!   defaults-gap pass, overlapping burst ladders and repeated CI
//!   invocations skip cells that already ran. The tier is one append-only
//!   log per directory (`entries.jsonl`): it is read once when the cache
//!   opens, and each miss appends one line, the last line of a key wins.
//!
//! **Cells first, one repeat loop.** A measuring mode is a list of cells
//! run by [`repeat_cells`]: one pool job per cell × `--repeat` iteration,
//! then each cell's lower-median run plus a [`Spread`] per reported metric.
//! The sweep figures, `--workload`, fig6 (a fold over the sweep figures'
//! cells) and `--grid` list [`RunSpec`](pim_workloads::RunSpec)s, which the
//! `pim-exp` binary vets with
//! [`check_feasible`](pim_workloads::RunSpec::check_feasible) before any
//! cell runs and hands to [`run_cells`] (cache, progress line, simulator
//! clamped to one run). `--fleet` lists its scaling and skew points'
//! [`FleetConfig`](pim_fleet::FleetConfig)s, `--service` its rate ×
//! executor or fleet cells. fig7/8 simulate one reference run per workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod design_space;
pub mod fleet;
pub mod grid;
pub mod json;
pub mod latency;
pub mod multi_dpu;
pub mod peak;
pub mod pool;
pub mod report;
pub mod service;

pub use cache::{CacheStats, CachedRun, SimCache, CACHE_SCHEMA_VERSION};
pub use design_space::{
    repeat_cells, run_cells, BurstSweep, DesignSpacePoint, DesignSpaceSweep, Spread, SweepOptions,
};
pub use fleet::{FleetScalingPoint, FleetSkewPoint, FleetSweep, FleetSweepOptions};
pub use grid::{GridCell, GridOptions, GridSearch};
pub use latency::LatencyComparison;
pub use multi_dpu::{MultiDpuStudy, SpeedupPoint, MULTI_DPU_WORKLOADS};
pub use peak::PeakDistribution;
pub use pool::WorkerPool;
pub use report::render_table;
pub use service::{
    ServiceFleetKnobs, ServiceFleetPoint, ServicePoint, ServiceSweep, ServiceSweepOptions,
    DEFAULT_SERVICE_RATES,
};
