//! # pim-stm — software transactional memory for (simulated) UPMEM PIM devices
//!
//! This crate is a Rust reproduction of the **PIM-STM** library (Lopes,
//! Castro, Romano — ASPLOS 2024): a family of word-based software
//! transactional memory (STM) implementations designed for UPMEM Data
//! Processing Units, where up to 24 hardware tasklets share a 64 KB WRAM
//! scratchpad, a 64 MB MRAM bank and a 256-entry atomic bit register (and
//! nothing else — no compare-and-swap, no read/write locks).
//!
//! The library covers the paper's full design-space taxonomy (Fig. 2) — as
//! a real **policy grid**, not a flat list: every design is an instantiation
//! of the generic [`ComposedTm`]`<R, L, W>` engine ([`policy`] module) from
//! one value of each orthogonal axis, and every legacy [`StmKind`] is a
//! descriptor ([`StmKind::composition`]) naming its cell:
//!
//! | [`StmKind`] | grid name | read policy `R` | lock timing `L` | write policy `W` |
//! |---|---|---|---|---|
//! | `Norec` | `norec-ctl-wb` | value validation (seqlock) | commit time | write-back |
//! | `TinyCtlWb` | `orec-ctl-wb` | invisible ORec | commit time | write-back |
//! | `TinyEtlWb` | `orec-etl-wb` | invisible ORec | encounter time | write-back |
//! | `TinyEtlWt` | `orec-etl-wt` | invisible ORec | encounter time | write-through |
//! | `VrCtlWb` | `vr-ctl-wb` | visible read-locks | commit time | write-back |
//! | `VrEtlWb` | `vr-etl-wb` | visible read-locks | encounter time | write-back |
//! | `VrEtlWt` | `vr-etl-wt` | visible read-locks | encounter time | write-through |
//!
//! ## The policy-trait contract
//!
//! Each axis owns a fixed set of hooks (see [`policy`] for the precise
//! signatures and the equivalence guarantees):
//!
//! * [`policy::LockPolicy`] — pure *timing*: whether writes acquire
//!   ownership at encounter time or buffer until a commit-time acquisition
//!   pass, and whether reads must first consult the redo log;
//! * [`policy::WritePolicy`] — what a write *does* once ownership is held:
//!   redo log published by the shared [`writeback`] pass, or in-place store
//!   plus undo log replayed on abort;
//! * [`policy::ReadPolicy`] — everything touching conflict-detection
//!   metadata: the single-word read protocol, write-lock
//!   acquisition/release, commit-time acquisition, validation + commit
//!   ticket, and the [`access::RecordReader`]-shaped hooks of batched
//!   record reads. This axis subsumes the paper's metadata-granularity and
//!   read-visibility dimensions;
//! * [`RetryPolicy`] — the independent back-off axis ([`retry`] module),
//!   owned by the shared retry core rather than the algorithm: fixed
//!   window, bounded exponential (default), or adaptive back-off tuned from
//!   the tasklet's per-[`AbortReason`] abort histogram.
//!
//! Incoherent cells are rejected **at construction** (at compile time for
//! the seven cells [`TxEngine`] dispatches to): commit-time locking cannot
//! write through (a CTL transaction may abort after exposing stores that no
//! reader ever saw a lock for), and value validation composes only with
//! CTL + WB (no per-word locks to take at encounter time or to hold over an
//! exposed store). [`TmComposition::is_coherent`] is the single source of
//! truth; the seven coherent cells are exactly the paper's seven designs.
//! The retired monolithic implementations are gone: the policy equivalence
//! suite pins each composition to golden outcomes recorded while the
//! monoliths still existed, so the equivalence claim outlives the code.
//!
//! STM metadata (lock table, sequence lock, global clock, per-tasklet read
//! and write sets) can be placed in **WRAM** or **MRAM** via
//! [`MetadataPlacement`], reproducing the paper's memory-tier study.
//!
//! The algorithms are written against the [`Platform`] abstraction, so the
//! same code runs on two executors:
//!
//! * the deterministic, cycle-accounted simulator of [`pim_sim`] (used to
//!   regenerate the paper's figures), and
//! * [`threaded::ThreadedDpu`], which executes tasklets as real OS threads
//!   over atomic shared memory (used to test the algorithms under genuine
//!   concurrency and in the runnable examples).
//!
//! ## Quickstart: the typed facade
//!
//! Application code uses the typed, executor-agnostic facade of [`var`]:
//! [`TVar`] / [`TArray`] handles plus the [`TxOps`] operation set. A
//! transaction body is written **once**, generic over `TxOps`, and runs
//! unchanged on real threads and on the cycle-accounted simulator; the
//! word-based operations ([`TxOps::read_word`] / [`TxOps::write_word`] on
//! raw [`Addr`]s) remain available underneath.
//!
//! ```
//! use pim_stm::threaded::ThreadedDpu;
//! use pim_stm::{Abort, MetadataPlacement, StmConfig, StmKind, TArray, Tier, TxOps};
//!
//! // The transaction body: typed, executor-agnostic. Abort propagates via
//! // `?`; the retry loop rolls back and re-runs the body.
//! fn transfer<O: TxOps>(
//!     tx: &mut O,
//!     accounts: TArray<u64>,
//!     from: u32,
//!     to: u32,
//!     amount: u64,
//! ) -> Result<(), Abort> {
//!     let a = tx.get(accounts.at(from))?;
//!     let b = tx.get(accounts.at(to))?;
//!     tx.set(accounts.at(from), a - amount)?;
//!     tx.set(accounts.at(to), b + amount)?;
//!     Ok(())
//! }
//!
//! // Two tasklets each transfer money between two accounts 100 times; the
//! // total balance is preserved because transfers are transactions.
//! let config = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram);
//! let mut dpu = ThreadedDpu::new(config).expect("metadata fits in WRAM");
//! let accounts: TArray<u64> = dpu.alloc_array(Tier::Mram, 2).expect("data fits");
//! dpu.poke_var(accounts.at(0), 5_000u64);
//! dpu.poke_var(accounts.at(1), 5_000u64);
//!
//! dpu.run(2, |mut tasklet| {
//!     for _ in 0..100 {
//!         tasklet.transaction(|tx| transfer(tx, accounts, 0, 1, 10));
//!     }
//! })
//! .expect("2 tasklets is within the hardware limit");
//!
//! assert_eq!(dpu.peek_var(accounts.at(0)) + dpu.peek_var(accounts.at(1)), 10_000);
//! ```
//!
//! The same body runs on the simulator through [`TxEngine`] — see the [`var`]
//! module documentation for the full `TxOps` contract (abort propagation,
//! no side effects in bodies) and `examples/quickstart.rs` for the
//! two-executor tour. Multi-word values ([`var::TxRecord`]) move through
//! [`TxOps::read_record`] / [`TxOps::write_record`].
//!
//! ## The record-access layer: DMA-batched reads for every design
//!
//! Record reads go through the shared access layer ([`access`]), which
//! separates the per-design *metadata protocol* (ownership-record sample
//! and re-check for Tiny, read-lock acquisition for VR, the sequence-lock
//! bracket for NOrec — expressed as [`access::RecordReader`] hooks) from
//! *data movement*. Under [`ReadStrategy::Batched`] (the default) each
//! contiguous run of record words crosses the MRAM port as **one**
//! [`Platform::load_block`] burst, bounded by
//! [`StmKnobs::max_burst_words`]; the per-word checks then run against the
//! already-staged words and fall back to the word-wise read for any word
//! whose metadata moved under the burst. [`ReadStrategy::WordWise`] keeps
//! the original one-DMA-setup-per-word behaviour as the A/B baseline,
//! mirroring the write-side [`WriteBackStrategy`] knob. Both strategies
//! observe identical values and commit identically — only the DMA setup
//! count (visible in [`ExecProfile::dma_setups`]) differs. See the
//! [`access`] module documentation for the metadata-hook contract: when a
//! batched read must re-validate, fall back, or abort.
//!
//! On the write side, multi-word record writes under encounter-time locking
//! acquire their ownership records in one pass **sorted by lock-table
//! address and deduplicated** before any logging or data stores
//! ([`LockOrder::AddressSorted`], the default): the global acquisition
//! order turns symmetric lock-order duels into single losers, and a
//! conflicting record write now aborts before it has exposed a single
//! write-through store or pushed a single log entry.
//! [`LockOrder::RecordOrder`] restores the per-word baseline for A/B runs.
//!
//! ## Engine knobs: one static vector per run
//!
//! The retry policy, read strategy, write-back strategy, lock order and
//! burst cap travel together as one [`StmKnobs`] vector
//! ([`StmConfig::with_knobs`]). The vector is fixed for the whole run: the
//! engine consults it on every operation but never rewrites it. Finding the
//! best vector for a workload is an offline search (`pim-exp --grid`), not
//! a run-time decision.
//!
//! ## Execution profiles: one instrumentation spine for both executors
//!
//! Every run — simulated or threaded — produces the same per-tasklet
//! [`ExecProfile`] ([`profile`] module):
//!
//! * **attempts, commits, aborts** and an **abort histogram** keyed by
//!   [`AbortReason`]: the shared retry core ([`engine`]) resolves every
//!   abort with the reason the algorithm reported, so the histogram always
//!   sums to the abort count, for all seven designs, with no per-algorithm
//!   instrumentation;
//! * **per-phase time** ([`Phase`]): where a transaction's time goes —
//!   reading, writing, validating, committing, or wasted in attempts that
//!   aborted. The unit is *executor-native* and tagged by
//!   [`profile::TimeDomain`]: deterministic simulator **cycles**
//!   ([`profile::TimeDomain::Cycles`], behind the paper's figures) or
//!   monotonic **wall-clock nanoseconds** on the threaded executor
//!   ([`profile::TimeDomain::WallNanos`]). Counts and *structure* (phase
//!   fractions, abort mix) are comparable across executors; absolute times
//!   are not, and [`ExecProfile::merge`] refuses to mix domains;
//! * **MRAM DMA setups/words** (the burst-coalescing metric — both
//!   executors count one setup per MRAM-addressed transfer) and **back-off /
//!   lock-wait time** (an overlay over the phase buckets).
//!
//! On the simulator the profile is the cycle bookkeeping the scheduler
//! already keeps (`pim_sim::TaskletStats` is a thin adapter over the same
//! core — [`ExecProfile::from_sim`]); on the threaded executor each tasklet
//! thread fills its profile as it runs — counts, wasted, back-off and total
//! time exactly, the split of committed time over the phases from one timed
//! attempt in sixteen (see [`threaded`] for the sampling contract) — and
//! [`threaded::ThreadedDpu::run`] returns them in
//! [`threaded::ThreadedRunReport::profiles`].
//!
//! The same spine scales past one DPU: profiles are **merge-closed**
//! ([`ExecProfile::merge`] sums two same-domain profiles field by field,
//! and [`ExecProfile::merged`] folds any number of them), so a multi-DPU
//! fleet aggregates by construction — each shard DPU merges its tasklets'
//! cycle-domain profiles across dispatch rounds, and the fleet merges the
//! shard accumulators into one profile with the *same schema* as a
//! single-DPU run (this is how `pim-fleet` builds its fleet-wide report).
//! Merging is associative and order-independent for every counter, so
//! "merge per shard, then across shards" equals "merge everything at
//! once"; what merging deliberately *erases* — which shard did the work —
//! is reported alongside, not inside, the profile (the fleet's per-shard
//! stats and imbalance summary).
//!
//! ## Determinism as an API: parallel fan-out and memoisation upstream
//!
//! A simulated run is a *pure function* of its configuration: same
//! [`StmConfig`] (kind, placement, retry, read strategy, write-back,
//! lock order, burst cap), same workload parameters, same
//! seed → bit-identical commits, abort histograms, cycle counts and
//! memory fingerprint, on any machine. The experiment harness leans on
//! that contract twice (`pim_exp::pool` / `pim_exp::cache`):
//!
//! * **Independence** — distinct cells share no mutable state, so the
//!   harness may run them on any number of worker threads
//!   (`pim-exp --workers N`) and collect by index; every table and JSON
//!   dump is bit-identical for any `N`. Anything that would break this —
//!   global mutable state, iteration-order-dependent results, wall-clock
//!   reads inside the simulator — is a bug against this contract, not a
//!   harness concern. (Threaded-executor cells *measure* wall clock and
//!   are therefore excluded: they run serially and are never cached.)
//! * **Memoisability** — because the full knob vector plus seed *is* the
//!   result's identity, completed simulator runs are content-addressed:
//!   the cache key is exactly the canonical spelling of every field above
//!   plus the executor and a schema version, and the only invalidation
//!   policy is bumping that version when the simulator's semantics or the
//!   cached summary's shape change. Repeated cells (defaults-gap passes,
//!   overlapping burst ladders, warm `--cache-dir` CI re-runs) are read
//!   back instead of re-simulated, with zero tolerance for drift: a
//!   disk entry that fails any structural check is discarded and
//!   re-simulated, never trusted.
//!
//! ## The service layer: STM under open-loop traffic
//!
//! Everything above measures *throughput*: a fixed batch of transactions,
//! run to completion, makespan on the clock. The `pim-service` crate puts
//! the same engines behind a **request queue** and measures *latency under
//! offered load* instead — the question a key-value or ledger service
//! actually asks of its STM:
//!
//! * an **arrival process** (`pim_service::ArrivalProcess`) stamps each
//!   request with an arrival time — Poisson, bursty on/off, or closed-loop
//!   (the degenerate case where a request "arrives" the moment a tasklet
//!   frees up, so queueing delay is identically zero by construction);
//! * an **admission queue** sits between the stream and the tasklet pool;
//!   each committed request carries three stamps — arrival → dispatch →
//!   commit — split into **queueing delay**, **STM service time**, and
//!   total **sojourn time** (`pim_service::LatencyPanel`);
//! * the served state is built from the transactional structures of
//!   `pim_workloads` (`TxHashMap` key→balance store, `TxQueue` transfer
//!   journal) under a get/put/transfer mix with optional Zipfian skew —
//!   every operation is one STM transaction, so aborts and retries show
//!   up as service-time tail, exactly where a service would feel them.
//!
//! Latency quantiles ride the same merge-closed spine as the profiles:
//! samples land in a log-bucketed `pim_sim::LatencyHistogram` whose merge
//! is element-wise and therefore exact, associative and commutative — so
//! per-tasklet, per-worker and per-shard panels aggregate into fleet-wide
//! p50/p95/p99 without keeping a single raw sample, and the result is
//! independent of worker and shard count. Both executors serve the same
//! streams (cycles vs. wall nanoseconds, domain-tagged like
//! [`profile::TimeDomain`]), and `pim-fleet` runs the service sharded
//! across many simulated DPUs. The harness front-end is
//! `pim-exp --service` (latency-vs-offered-load tables and JSON).

// Unsafe is denied everywhere except the two audited syscall shims of
// `threaded::affinity` (best-effort thread pinning has no safe-Rust,
// no-dependency equivalent).
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod access;
pub mod config;
pub mod engine;
mod error;
pub mod locktable;
pub mod platform;
pub mod policy;
pub mod profile;
pub mod retry;
pub mod rwlock;
pub mod shared;
pub mod threaded;
pub mod txslot;
pub mod var;
pub mod writeback;

pub use config::{
    LockOrder, LockTiming, MetadataPlacement, ReadStrategy, RetryPolicy, StmConfig, StmKind,
    StmKnobs, TmComposition, WriteBackStrategy, WritePolicy,
};
pub use engine::{TxCounters, TxEngine};
pub use error::{Abort, AbortReason, RunError};
pub use platform::Platform;
pub use policy::ComposedTm;
pub use profile::{ExecProfile, TimeDomain};
pub use shared::StmShared;
pub use txslot::{TxSlot, TxStamps};
pub use var::{TArray, TVar, TxOps, TxRecord, TxWord};

// Re-export the simulator types that appear in this crate's public API so
// downstream users only need one import path.
pub use pim_sim::{Addr, Phase, Tier};
