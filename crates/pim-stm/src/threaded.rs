//! A threaded executor: the same STM algorithms running on real OS threads
//! over atomic shared memory.
//!
//! The deterministic simulator in [`pim_sim`] is what regenerates the paper's
//! figures, but it interleaves tasklets cooperatively. To gain confidence
//! that the algorithms are actually safe under arbitrary interleavings — and
//! to give library users something they can run natively — this module
//! provides [`ThreadedDpu`]: a "DPU" whose WRAM and MRAM are banks of
//! [`AtomicU64`] and whose tasklets are `std::thread`s. The
//! [`crate::Platform`] implementation maps `atomic_update` onto a
//! compare-and-swap loop (the role the acquire/release bit register plays on
//! real hardware).
//!
//! Simulated cycles are *not* modelled here, but execution **is** profiled:
//! each tasklet thread charges monotonic wall-clock nanoseconds into the
//! same [`ExecProfile`] schema the simulator fills with cycles (tagged
//! [`TimeDomain::WallNanos`] so the units are never confused), including the
//! abort-reason histogram, per-phase time, MRAM-addressed DMA traffic and
//! spin-wait time. Threaded runs are therefore a second performance signal —
//! directly comparable on counts and structure, not on absolute time — in
//! addition to being the correctness cross-check.
//!
//! # The sampled phase clock
//!
//! Reading the clock costs about as much as a short transaction's whole
//! memory traffic, and a transaction switches phase a couple of dozen times,
//! so the executor pays for what it does rather than for how it is watched:
//!
//! * **Exact.** The clock is read at every attempt *boundary*
//!   ([`Platform::begin_attempt`], `commit_attempt`, `abort_attempt*`),
//!   around every spin-wait, when a [`TaskletTx::park_until`] wait ends,
//!   and when the thread's platform is created and dropped. Commits,
//!   aborts, the abort histogram and DMA counts are plain counters.
//!   [`Phase::Wasted`] (the whole interval of each aborted attempt),
//!   back-off time, the time between attempts and each profile's
//!   *total* time are sums of boundary-to-boundary intervals: nothing is
//!   estimated and no interval is dropped or counted twice.
//! * **Estimated.** Phase switches *inside* an attempt read the clock on one
//!   attempt in [`PHASE_SAMPLE_PERIOD`] only (the first, then every
//!   sixteenth, whether it commits or aborts). The committed time of the
//!   other attempts is known exactly as a total and is split over the
//!   non-wasted phases in the proportions the timed committed attempts
//!   measured — once, when the thread's platform drops, so a profile is
//!   complete when [`ThreadedDpu::run`] returns it and not before. If no
//!   timed attempt committed, that time goes to [`Phase::OtherExec`].
//! * **The period** is a constant, not a knob. At 16 the per-switch reads add
//!   under a tenth to a short transaction (1/16 of ≈ 24 reads against the
//!   two boundary reads every attempt keeps), and a tasklet that commits a
//!   few thousand transactions still times hundreds of them; a shorter
//!   period buys precision nobody reads, a longer one starves short runs of
//!   samples. A fixed stride cannot favour contended or quiet transactions.
//!
//! [`Platform::timestamp`] answers with the platform's last reading instead
//! of reading the clock again; the retry core asks right after a boundary,
//! so its stamps are the boundary readings themselves.
//!
//! # What is backed
//!
//! A threaded DPU has the simulator's 64 KB / 64 MB shape
//! ([`pim_sim::DpuConfig::default`]; [`ThreadedDpu::with_capacity`] names
//! others), but the capacities only bound allocation: each bank starts
//! empty and grows by exactly the words an allocation hands out, with the
//! simulator's [`AllocError`] when they do not fit. Allocation goes through
//! `&mut` on the host, before [`ThreadedDpu::run`] spawns a thread, so no
//! lock guards it. An access to a word never allocated panics.
//!
//! The simulator backs a whole tier on first use with one `vec![0; n]`, which
//! the kernel hands out as lazily zeroed pages. That does not carry over: a
//! `Vec<AtomicU64>` is written word by word, turning zeroed integers into
//! atomics takes `unsafe`, which this crate denies, and glibc would serve a
//! repeated request of megabytes from its heap and clear it there anyway.
//!
//! # Memory ordering
//!
//! Every access to shared state — data words, ORecs, rw-locks, the global
//! clock, the sequence lock, every CAS — is `SeqCst`. The one exception is
//! [`Platform::load_private`]/[`Platform::store_private`], `Relaxed`, which
//! only [`TxSlot`]'s log accessors call: a tasklet's read set and write log
//! are touched by that tasklet alone while threads run, and by the host or a
//! later run's thread only across `join`/`spawn`, which order them.

pub mod affinity;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pim_sim::{Addr, AllocError, DpuConfig, Phase, PhaseBreakdown, Tier};

use crate::config::StmConfig;
use crate::engine::{EngineOps, TxEngine};
use crate::error::{Abort, AbortReason, RunError};
use crate::platform::{AtomicOutcome, Platform};
use crate::profile::{ExecProfile, TimeDomain};
use crate::shared::{MetadataAllocator, StmShared};
use crate::txslot::TxSlot;
use crate::var::{self, TArray, TVar, TxRecord};

pub use crate::rwlock::MAX_TASKLETS;

/// One attempt in this many has its phase switches timed (see the
/// [module documentation](self) for what that leaves exact and why 16).
pub const PHASE_SAMPLE_PERIOD: u32 = 16;

/// The process-wide epoch of [`wall_clock_nanos`] (first call wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from `from` to `to` (0 if `to` is earlier).
fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Monotonic nanoseconds since the process-wide epoch (first call wins).
///
/// This is the threaded executor's [`Platform::timestamp`] clock **and** the
/// clock a service driver should stamp arrivals/dispatches with, so queueing
/// delay (`dispatch − arrival`) and STM service time (`commit −
/// first_attempt`) are measured on one time base across all threads.
pub fn wall_clock_nanos() -> u64 {
    nanos_between(epoch(), Instant::now())
}

/// Atomic word storage shared by all tasklet threads: one bank per tier,
/// as long as the words allocated from it.
#[derive(Debug)]
struct SharedMemory {
    wram: Vec<AtomicU64>,
    mram: Vec<AtomicU64>,
    /// Capacity of each tier in words, WRAM first.
    capacity: [u32; 2],
}

impl SharedMemory {
    fn new(wram_words: u32, mram_words: u32) -> Self {
        SharedMemory { wram: Vec::new(), mram: Vec::new(), capacity: [wram_words, mram_words] }
    }

    fn bank(&self, tier: Tier) -> &[AtomicU64] {
        match tier {
            Tier::Wram => &self.wram,
            Tier::Mram => &self.mram,
        }
    }

    fn cell(&self, addr: Addr) -> &AtomicU64 {
        let bank = self.bank(addr.tier);
        bank.get(addr.word as usize).unwrap_or_else(|| {
            let (tier, word, allocated) = (addr.tier, addr.word, bank.len());
            panic!(
                "access to {tier} word {word} is outside the {allocated} words allocated in {tier}"
            )
        })
    }

    /// Bump-allocates `words` zeroed words in `tier`, growing its bank by
    /// exactly that many.
    fn alloc(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        let (bank, capacity) = match tier {
            Tier::Wram => (&mut self.wram, self.capacity[0]),
            Tier::Mram => (&mut self.mram, self.capacity[1]),
        };
        let used = bank.len() as u32;
        if words > capacity - used {
            return Err(AllocError {
                tier,
                requested_words: words,
                available_words: capacity - used,
            });
        }
        bank.resize_with(bank.len() + words as usize, || AtomicU64::new(0));
        Ok(Addr { tier, word: used })
    }
}

impl MetadataAllocator for SharedMemory {
    fn alloc_words(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        self.alloc(tier, words)
    }
}

/// Per-thread [`Platform`] over the shared atomic memory.
///
/// Besides executing operations, it maintains this tasklet's
/// [`ExecProfile`] in wall-clock nanoseconds with the **sampled phase
/// clock** of the [module documentation](self): every attempt boundary
/// reads the clock, so attempt counts, [`Phase::Wasted`], back-off and the
/// profile's total time are exact; phase switches read it on one attempt in
/// [`PHASE_SAMPLE_PERIOD`], and the committed time of the untimed attempts
/// is split over the phases in the timed attempts' proportions when the
/// platform drops. Time is buffered per attempt and collapsed into wasted
/// time on abort exactly like the simulator's cycle accounting,
/// MRAM-addressed traffic is counted as DMA setups/words with the
/// simulator's per-transfer rules, and spin-waits are recorded as back-off
/// time.
#[derive(Debug)]
pub struct ThreadPlatform<'a> {
    memory: &'a SharedMemory,
    profile: &'a mut ExecProfile,
    tasklet_id: usize,
    phase: Phase,
    /// The last clock reading: start of the interval not yet charged to any
    /// phase, and the answer to [`Platform::timestamp`].
    mark: Instant,
    /// Whether an attempt is being accounted (mirrors the simulator's
    /// transactional flag).
    in_attempt: bool,
    /// Whether the current attempt's phase switches read the clock.
    timed: bool,
    /// Attempts still to begin before the next timed one.
    until_timed: u32,
    /// [`PHASE_SAMPLE_PERIOD`], except in the unit tests' full-rate
    /// reference.
    period: u32,
    /// Total time of the committed attempts that were not timed, folded
    /// into the profile on drop.
    untimed_committed: u64,
    /// Per-phase time of the committed attempts that were timed: the
    /// proportions `untimed_committed` is split in.
    timed_committed: PhaseBreakdown,
}

impl<'a> ThreadPlatform<'a> {
    fn new(memory: &'a SharedMemory, profile: &'a mut ExecProfile, tasklet_id: usize) -> Self {
        // Fix the epoch before the first reading so no stamp precedes it.
        epoch();
        ThreadPlatform {
            memory,
            profile,
            tasklet_id,
            phase: Phase::OtherExec,
            mark: Instant::now(),
            in_attempt: false,
            timed: false,
            until_timed: 0,
            period: PHASE_SAMPLE_PERIOD,
            untimed_committed: 0,
            timed_committed: PhaseBreakdown::new(),
        }
    }

    /// The full-rate reference the sampled clock is tested against: with
    /// `period` 1 every attempt is timed and nothing is estimated.
    #[cfg(test)]
    fn with_sample_period(mut self, period: u32) -> Self {
        assert!(period >= 1);
        self.period = period;
        self
    }

    /// Reads the clock, returning the nanoseconds since the previous reading
    /// and starting a new interval. One read serves both purposes so no
    /// time falls between intervals.
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let nanos = nanos_between(self.mark, now);
        self.mark = now;
        nanos
    }

    /// Reads the clock and charges the interval it closes to the current
    /// phase: buffered while an attempt is in flight, resolved otherwise.
    fn flush_elapsed(&mut self) {
        let nanos = self.lap();
        if self.in_attempt {
            self.profile.core.charge_attempt(self.phase, nanos);
        } else {
            self.profile.core.charge_direct(self.phase, nanos);
        }
    }

    /// Closes the in-flight attempt's last interval at an abort boundary;
    /// the caller resolves the abort, which turns the whole attempt —
    /// timed or not — into wasted time.
    fn end_aborted_attempt(&mut self) {
        self.flush_elapsed();
        self.in_attempt = false;
        self.timed = false;
    }

    /// Counts `words` words moved to/from an MRAM address as one DMA
    /// transfer, matching the simulator's setup-per-transfer accounting.
    fn note_dma(&mut self, tier: Tier, words: u32) {
        if tier == Tier::Mram {
            self.profile.core.note_mram_dma(words);
        }
    }
}

impl Drop for ThreadPlatform<'_> {
    fn drop(&mut self) {
        // Charge the tail interval so the profile covers the whole thread.
        self.flush_elapsed();
        // Fold in the committed time of the untimed attempts, split in the
        // proportions the timed committed attempts measured. Each share is
        // at most the whole, so the remainder cannot underflow.
        let sampled = self.timed_committed.total();
        let mut rest = self.untimed_committed;
        if sampled > 0 {
            for (phase, time) in self.timed_committed.iter() {
                let share = u128::from(self.untimed_committed) * u128::from(time);
                let share = (share / u128::from(sampled)) as u64;
                self.profile.core.charge_direct(phase, share);
                rest -= share;
            }
        }
        // The rounding remainder — or, with no timed commit to go by, all
        // of it — is application time as far as anyone measured.
        self.profile.core.charge_direct(Phase::OtherExec, rest);
    }
}

impl Platform for ThreadPlatform<'_> {
    fn load(&mut self, addr: Addr) -> u64 {
        self.note_dma(addr.tier, 1);
        self.memory.cell(addr).load(Ordering::SeqCst)
    }

    fn store(&mut self, addr: Addr, value: u64) {
        self.note_dma(addr.tier, 1);
        self.memory.cell(addr).store(value, Ordering::SeqCst)
    }

    // `Relaxed` is sound under the ownership rule of
    // `Platform::load_private`: the word belongs to this tasklet's logs, no
    // other thread accesses it while tasklets run, and `ThreadedDpu::run`'s
    // spawn and join order it against the host and against the thread that
    // uses the same slot in a later run. Program order within the thread is
    // all a log needs. Counted as DMA exactly like `load`/`store`.
    fn load_private(&mut self, addr: Addr) -> u64 {
        self.note_dma(addr.tier, 1);
        self.memory.cell(addr).load(Ordering::Relaxed)
    }

    fn store_private(&mut self, addr: Addr, value: u64) {
        self.note_dma(addr.tier, 1);
        self.memory.cell(addr).store(value, Ordering::Relaxed)
    }

    fn load_block(&mut self, addr: Addr, out: &mut [u64]) {
        if out.is_empty() {
            return;
        }
        self.note_dma(addr.tier, out.len() as u32);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.memory.cell(addr.offset(i as u32)).load(Ordering::SeqCst);
        }
    }

    fn store_block(&mut self, addr: Addr, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        self.note_dma(addr.tier, values.len() as u32);
        for (i, value) in values.iter().enumerate() {
            self.memory.cell(addr.offset(i as u32)).store(*value, Ordering::SeqCst);
        }
    }

    fn copy(&mut self, src: Addr, dst: Addr, words: u32) {
        if words == 0 {
            return;
        }
        // One transfer per MRAM side, like the simulator's copy_block.
        self.note_dma(src.tier, words);
        self.note_dma(dst.tier, words);
        for i in 0..words {
            let value = self.memory.cell(src.offset(i)).load(Ordering::SeqCst);
            self.memory.cell(dst.offset(i)).store(value, Ordering::SeqCst);
        }
    }

    fn atomic_update(
        &mut self,
        addr: Addr,
        update: &mut dyn FnMut(u64) -> Option<u64>,
    ) -> AtomicOutcome {
        let cell = self.memory.cell(addr);
        let mut current = cell.load(Ordering::SeqCst);
        let outcome = loop {
            match update(current) {
                None => break AtomicOutcome { previous: current, updated: false },
                Some(new) => {
                    match cell.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst) {
                        Ok(_) => break AtomicOutcome { previous: current, updated: true },
                        Err(observed) => current = observed,
                    }
                }
            }
        };
        // The read-modify-write touches memory like a load (plus a store
        // when it updates) — mirror the simulator's DMA counting.
        self.note_dma(addr.tier, 1);
        if outcome.updated {
            self.note_dma(addr.tier, 1);
        }
        outcome
    }

    fn set_phase(&mut self, phase: Phase) -> Phase {
        // Only a timed attempt pays for the clock here; otherwise the
        // interval stays open until the next boundary closes it.
        if self.timed {
            self.flush_elapsed();
        }
        std::mem::replace(&mut self.phase, phase)
    }

    fn begin_attempt(&mut self) {
        self.flush_elapsed();
        self.in_attempt = true;
        self.timed = self.until_timed == 0;
        self.until_timed = if self.timed { self.period - 1 } else { self.until_timed - 1 };
    }

    fn commit_attempt(&mut self) {
        if self.timed {
            self.flush_elapsed();
            self.timed_committed += self.profile.core.attempt;
        } else {
            // The whole attempt is this one interval.
            self.untimed_committed += self.lap();
        }
        self.in_attempt = false;
        self.timed = false;
        self.profile.core.resolve_commit();
    }

    fn abort_attempt(&mut self) {
        self.end_aborted_attempt();
        self.profile.core.resolve_abort(None);
    }

    fn abort_attempt_with(&mut self, reason: AbortReason) {
        self.end_aborted_attempt();
        self.profile.core.resolve_abort(Some(reason.index()));
    }

    fn tasklet_id(&self) -> usize {
        self.tasklet_id
    }

    fn timestamp(&self) -> u64 {
        nanos_between(epoch(), self.mark)
    }

    /// Modelled instruction counts cost nothing here: the host already
    /// executes the real work (the sort, the BFS, the distance loop) in
    /// real time, and burning a `pause` per modelled instruction on top
    /// would charge it twice.
    fn compute(&mut self, instructions: u64) {
        let _ = instructions;
    }

    /// Waiting is the point here, so this does burn (bounded) `pause`s,
    /// timed by two clock reads of its own into the back-off overlay.
    fn spin_wait(&mut self, instructions: u64) {
        let start = Instant::now();
        for _ in 0..instructions.min(1024) {
            std::hint::spin_loop();
        }
        self.profile.core.note_backoff(nanos_between(start, Instant::now()));
    }
}

/// Handle given to each tasklet closure by [`ThreadedDpu::run`]: the
/// per-thread platform and this tasklet's [`TxEngine`]. The engine is built
/// for the run over a descriptor from the DPU's slot pool, so repeated `run`
/// calls reuse the same per-tasklet logs instead of exhausting the bump
/// allocator.
pub struct TaskletTx<'a> {
    platform: ThreadPlatform<'a>,
    engine: &'a mut TxEngine,
}

impl TaskletTx<'_> {
    /// Runs `body` as a transaction, retrying until it commits, and returns
    /// its result.
    pub fn transaction<R>(
        &mut self,
        body: impl FnMut(&mut EngineOps<'_>) -> Result<R, Abort>,
    ) -> R {
        self.engine.transaction(&mut self.platform, body)
    }

    /// This tasklet's platform, for the work it does between transactions
    /// (see [`Platform::compute`]: modelled instructions cost nothing here).
    pub fn platform(&mut self) -> &mut dyn Platform {
        &mut self.platform
    }

    /// Identifier of this tasklet (0-based).
    pub fn tasklet_id(&self) -> usize {
        self.platform.tasklet_id
    }

    /// Waits until [`wall_clock_nanos`] reads `at`: sleeps most of a gap
    /// over 100 µs (the margin absorbs wake-up jitter) and yields through
    /// the rest. Then closes the platform's clock interval, so
    /// [`Platform::timestamp`] reads the instant the wait ended.
    pub fn park_until(&mut self, at: u64) {
        loop {
            match at.saturating_sub(wall_clock_nanos()) {
                0 => break,
                gap if gap > 100_000 => std::thread::sleep(Duration::from_nanos(gap - 50_000)),
                _ => std::thread::yield_now(),
            }
        }
        self.platform.flush_elapsed();
    }

    /// Platform-clock stamps (first attempt / commit, in wall nanoseconds —
    /// see [`wall_clock_nanos`]) of the most recent
    /// [`TaskletTx::transaction`] call. Service drivers read these to
    /// separate STM retry time from queueing delay.
    pub fn last_tx_stamps(&self) -> crate::txslot::TxStamps {
        self.engine.stamps()
    }
}

impl std::fmt::Debug for ThreadedDpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedDpu")
            .field("config", &self.config)
            .field("slots", &self.slots.len())
            .field("pin_threads", &self.pin_threads)
            .finish_non_exhaustive()
    }
}

impl MetadataAllocator for ThreadedDpu {
    fn alloc_words(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        self.memory.alloc(tier, words)
    }
}

impl var::WordAccess for ThreadedDpu {
    fn peek_word(&self, addr: Addr) -> u64 {
        self.peek(addr)
    }

    fn poke_word(&mut self, addr: Addr, value: u64) {
        self.poke(addr, value)
    }
}

/// Result of a [`ThreadedDpu::run`] call: aggregate commit/abort counts plus
/// the per-tasklet wall-clock execution profiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadedRunReport {
    /// Committed transactions across all tasklets.
    pub commits: u64,
    /// Aborted attempts across all tasklets.
    pub aborts: u64,
    /// One [`TimeDomain::WallNanos`] profile per tasklet, indexed by tasklet
    /// id.
    pub profiles: Vec<ExecProfile>,
    /// How many tasklet threads were actually pinned to a core (see
    /// [`affinity`]): between 0 (pinning unsupported, disabled, or more
    /// tasklets than allowed CPUs) and the tasklet count. Unpinned runs are
    /// correct but their wall-clock profiles carry more scheduling noise.
    pub pinned_tasklets: usize,
}

impl ThreadedRunReport {
    /// All tasklets' profiles merged into one (`None` for a zero-tasklet
    /// run).
    pub fn merged_profile(&self) -> Option<ExecProfile> {
        ExecProfile::merged(&self.profiles)
    }
}

/// A DPU whose tasklets are real threads over atomic shared memory.
pub struct ThreadedDpu {
    memory: SharedMemory,
    shared: StmShared,
    config: StmConfig,
    /// Per-tasklet transaction descriptors, registered on first use and
    /// reused by every subsequent [`ThreadedDpu::run`] call (the metadata
    /// allocator is bump-only, so re-registering each run would leak).
    slots: Vec<TxSlot>,
    /// Whether tasklet threads should pin themselves to cores (default on;
    /// see [`affinity`] for the best-effort rules).
    pin_threads: bool,
    /// Phase-clock period of the tasklet platforms, so the unit tests can
    /// run the full-rate (period 1) reference next to the sampled clock.
    #[cfg(test)]
    sample_period: u32,
}

impl ThreadedDpu {
    /// Creates a threaded DPU with a UPMEM DPU's capacities
    /// ([`DpuConfig::default`]: 64 KB of WRAM, 64 MB of MRAM), backing only
    /// the STM metadata (see [what is backed](self#what-is-backed)).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the STM metadata does not fit in the
    /// configured tier.
    pub fn new(config: StmConfig) -> Result<Self, AllocError> {
        let DpuConfig { wram_words, mram_words, .. } = DpuConfig::default();
        Self::with_capacity(config, wram_words, mram_words)
    }

    /// Creates a threaded DPU with explicit WRAM/MRAM capacities (in words),
    /// for a run that must find out what does not fit in a smaller DPU.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the STM metadata does not fit.
    pub fn with_capacity(
        config: StmConfig,
        wram_words: u32,
        mram_words: u32,
    ) -> Result<Self, AllocError> {
        let mut memory = SharedMemory::new(wram_words, mram_words);
        let shared = StmShared::allocate(&mut memory, config)?;
        Ok(ThreadedDpu {
            memory,
            shared,
            config,
            slots: Vec::new(),
            pin_threads: true,
            #[cfg(test)]
            sample_period: PHASE_SAMPLE_PERIOD,
        })
    }

    /// Enables or disables best-effort thread→core pinning for subsequent
    /// [`ThreadedDpu::run`] calls (default: enabled). See [`affinity`].
    pub fn set_thread_pinning(&mut self, enabled: bool) {
        self.pin_threads = enabled;
    }

    /// The configuration this DPU was created with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// The shared STM metadata handles (addresses of the sequence lock,
    /// clock and lock table).
    pub fn stm_shared(&self) -> &StmShared {
        &self.shared
    }

    /// Allocates `words` zeroed words of application data in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier is exhausted.
    pub fn alloc(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        self.memory.alloc(tier, words)
    }

    /// Allocates one zeroed typed variable in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier is exhausted.
    pub fn alloc_var<T: TxRecord>(&mut self, tier: Tier) -> Result<TVar<T>, AllocError> {
        var::alloc_var(&mut self.memory, tier)
    }

    /// Allocates a zeroed typed array of `len` records in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier is exhausted (or the array's word
    /// count overflows the address space).
    pub fn alloc_array<T: TxRecord>(
        &mut self,
        tier: Tier,
        len: u32,
    ) -> Result<TArray<T>, AllocError> {
        var::alloc_array(&mut self.memory, tier, len)
    }

    /// Reads a word without going through a transaction (only safe while no
    /// tasklets are running — the host-side access pattern of UPMEM).
    /// Panics if `addr` was never allocated.
    pub fn peek(&self, addr: Addr) -> u64 {
        self.memory.cell(addr).load(Ordering::SeqCst)
    }

    /// Writes a word without going through a transaction (see
    /// [`ThreadedDpu::peek`]).
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.memory.cell(addr).store(value, Ordering::SeqCst)
    }

    /// Reads a typed variable without going through a transaction (see
    /// [`ThreadedDpu::peek`]).
    pub fn peek_var<T: TxRecord>(&self, var: TVar<T>) -> T {
        var::peek_var(self, var)
    }

    /// Writes a typed variable without going through a transaction (see
    /// [`ThreadedDpu::peek`]).
    pub fn poke_var<T: TxRecord>(&mut self, var: TVar<T>, value: T) {
        var::poke_var(self, var, value)
    }

    /// Launches `tasklets` OS threads, each running `body` with its own
    /// [`TaskletTx`] handle, waits for all of them and returns the aggregate
    /// commit/abort counts.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::TooManyTasklets`] if `tasklets` exceeds
    /// [`MAX_TASKLETS`] and [`RunError::Alloc`] if allocating the
    /// per-tasklet transaction logs fails.
    ///
    /// # Panics
    ///
    /// Panics if a tasklet thread panics.
    pub fn run<F>(&mut self, tasklets: usize, body: F) -> Result<ThreadedRunReport, RunError>
    where
        F: Fn(TaskletTx<'_>) + Send + Sync,
    {
        if tasklets > MAX_TASKLETS {
            return Err(RunError::TooManyTasklets { requested: tasklets, max: MAX_TASKLETS });
        }
        // Register only the tasklets not yet in the pool; already-registered
        // slots are reused, so repeated runs consume no further metadata.
        // Each registration is a single all-or-nothing allocation, so a
        // failure partway leaks nothing: the slots registered so far stay in
        // the pool and serve any smaller run.
        for t in self.slots.len()..tasklets {
            self.slots.push(self.shared.register_tasklet(&mut self.memory, t)?);
        }
        // The pooled descriptors move into fresh engines for this run and
        // back into the pool after it.
        let mut engines: Vec<TxEngine> = self
            .slots
            .drain(..tasklets)
            .map(|slot| TxEngine::for_shared(self.shared.clone(), slot))
            .collect();
        let memory = &self.memory;
        let mut profiles: Vec<ExecProfile> =
            (0..tasklets).map(|_| ExecProfile::new(TimeDomain::WallNanos)).collect();
        let body = &body;
        // Pin each tasklet thread to one allowed CPU (the PR-3 wall-clock
        // noise follow-up) — but only when every tasklet can have its own
        // core: doubling spinning tasklets up on one core serialises their
        // back-off windows, which is worse than letting the OS balance them.
        let allowed = if self.pin_threads { affinity::allowed_cpus() } else { Vec::new() };
        let pin = tasklets <= allowed.len();
        let allowed = &allowed;
        #[cfg(test)]
        let sample_period = self.sample_period;
        let (mut pinned_tasklets, mut panicked) = (0, false);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let engines = engines.iter_mut();
            for ((tasklet_id, engine), profile) in engines.enumerate().zip(profiles.iter_mut()) {
                handles.push(scope.spawn(move || {
                    let pinned = pin && affinity::pin_current_thread(allowed, tasklet_id);
                    let platform = ThreadPlatform::new(memory, profile, tasklet_id);
                    #[cfg(test)]
                    let platform = platform.with_sample_period(sample_period);
                    body(TaskletTx { platform, engine });
                    pinned
                }));
            }
            for handle in handles {
                match handle.join() {
                    Ok(pinned) => pinned_tasklets += usize::from(pinned),
                    Err(_) => panicked = true,
                }
            }
        });
        // Back into the pool before a tasklet's panic propagates, so the
        // DPU keeps every descriptor it registered.
        self.slots.splice(0..0, engines.into_iter().map(TxEngine::into_slot));
        assert!(!panicked, "tasklet thread panicked");
        Ok(ThreadedRunReport {
            commits: profiles.iter().map(ExecProfile::commits).sum(),
            aborts: profiles.iter().map(ExecProfile::aborts).sum(),
            profiles,
            pinned_tasklets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StmKind;
    use crate::var::TxOps;

    #[test]
    fn counter_increments_are_not_lost_under_real_concurrency() {
        for kind in StmKind::ALL {
            let mut dpu = ThreadedDpu::new(StmConfig::small_wram(kind)).unwrap();
            let counter = dpu.alloc(Tier::Mram, 1).unwrap();
            let per_tasklet = 200u64;
            let report = dpu
                .run(4, |mut tx| {
                    for _ in 0..per_tasklet {
                        tx.transaction(|view| {
                            let v = view.read_word(counter)?;
                            view.write_word(counter, v + 1)?;
                            Ok(())
                        });
                    }
                })
                .unwrap();
            assert_eq!(dpu.peek(counter), 4 * per_tasklet, "{kind} lost increments");
            assert_eq!(report.commits, 4 * per_tasklet, "{kind} commit count");
        }
    }

    #[test]
    fn disjoint_transfers_preserve_total_balance() {
        for kind in [StmKind::Norec, StmKind::TinyEtlWt, StmKind::VrEtlWb] {
            let mut dpu = ThreadedDpu::new(StmConfig::small_wram(kind)).unwrap();
            let accounts = dpu.alloc(Tier::Mram, 8).unwrap();
            for i in 0..8 {
                dpu.poke(accounts.offset(i), 1000);
            }
            dpu.run(8, |mut tx| {
                let id = tx.tasklet_id() as u32;
                for step in 0..100u32 {
                    let from = accounts.offset((id + step) % 8);
                    let to = accounts.offset((id + step + 3) % 8);
                    if from == to {
                        continue;
                    }
                    tx.transaction(|view| {
                        let a = view.read_word(from)?;
                        let b = view.read_word(to)?;
                        view.write_word(from, a.wrapping_sub(1))?;
                        view.write_word(to, b.wrapping_add(1))?;
                        Ok(())
                    });
                }
            })
            .unwrap();
            let total: u64 = (0..8).map(|i| dpu.peek(accounts.offset(i))).sum();
            assert_eq!(total, 8000, "{kind} violated balance conservation");
        }
    }

    #[test]
    fn allocation_failures_are_reported() {
        let config = StmConfig::small_wram(StmKind::TinyEtlWb).with_lock_table_entries(1_000_000);
        assert!(ThreadedDpu::new(config).is_err());
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::Norec)).unwrap();
        assert!(dpu.alloc(Tier::Wram, 1_000_000).is_err());
        // The errors at a UPMEM DPU's capacity: NOrec's two global words in
        // WRAM leave the rest of its 64 KB, and MRAM is all free.
        let DpuConfig { wram_words, mram_words, .. } = DpuConfig::default();
        assert_eq!(
            dpu.alloc(Tier::Mram, mram_words + 1),
            Err(AllocError {
                tier: Tier::Mram,
                requested_words: mram_words + 1,
                available_words: mram_words
            })
        );
        let rest = dpu.alloc(Tier::Wram, wram_words - 2).unwrap();
        assert_eq!(rest, Addr::wram(2));
        assert_eq!(
            dpu.alloc(Tier::Wram, 1),
            Err(AllocError { tier: Tier::Wram, requested_words: 1, available_words: 0 })
        );
        // At a small explicit capacity, and a failed allocation backs
        // nothing.
        let mut dpu =
            ThreadedDpu::with_capacity(StmConfig::small_wram(StmKind::Norec), 1024, 64).unwrap();
        assert_eq!(
            dpu.alloc(Tier::Mram, 65),
            Err(AllocError { tier: Tier::Mram, requested_words: 65, available_words: 64 })
        );
        assert_eq!(backed_words(&dpu), (2, 0));
        assert_eq!(dpu.alloc(Tier::Mram, 60), Ok(Addr::mram(0)));
        assert_eq!(
            dpu.alloc(Tier::Mram, 5),
            Err(AllocError { tier: Tier::Mram, requested_words: 5, available_words: 4 })
        );
        assert_eq!(backed_words(&dpu), (2, 60));
    }

    /// Words backed in WRAM and MRAM.
    fn backed_words(dpu: &ThreadedDpu) -> (usize, usize) {
        (dpu.memory.wram.len(), dpu.memory.mram.len())
    }

    #[test]
    fn a_fresh_dpu_backs_exactly_its_stm_metadata() {
        let tiny = StmConfig::new(StmKind::TinyEtlWb, crate::MetadataPlacement::Mram);
        let entries = tiny.lock_table_entries as usize;
        let split = tiny.with_lock_table_placement(crate::MetadataPlacement::Wram);
        // Two global words, in the metadata tier, and the lock table in its
        // own tier.
        for (config, metadata) in [
            (StmConfig::small_wram(StmKind::Norec), (2, 0)),
            (tiny, (0, entries + 2)),
            (split, (entries, 2)),
        ] {
            let mut dpu = ThreadedDpu::new(config).unwrap();
            assert_eq!(backed_words(&dpu), metadata, "{config:?}");
            // Registering two tasklets backs their logs in the metadata tier;
            // an allocation backs its words and the next starts after them.
            dpu.run(2, |_| {}).unwrap();
            let logs = 2 * config.per_tasklet_metadata_words() as usize;
            let registered = match config.metadata_tier() {
                Tier::Wram => (metadata.0 + logs, metadata.1),
                Tier::Mram => (metadata.0, metadata.1 + logs),
            };
            assert_eq!(backed_words(&dpu), registered, "{config:?}");
            let data = dpu.alloc(Tier::Mram, 5).unwrap();
            assert_eq!(data, Addr::mram(registered.1 as u32));
            assert_eq!(backed_words(&dpu), (registered.0, registered.1 + 5), "{config:?}");
            // Allocated words read 0.
            assert!((0..5).all(|i| dpu.peek(data.offset(i)) == 0));
        }
    }

    #[test]
    #[should_panic(expected = "access to mram word 8 is outside the 8 words allocated in mram")]
    fn an_access_to_a_word_never_allocated_panics() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::Norec)).unwrap();
        let data = dpu.alloc(Tier::Mram, 8).unwrap();
        dpu.peek(data.offset(8));
    }

    #[test]
    fn too_many_tasklets_is_an_error_not_a_panic() {
        use crate::error::RunError;
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::Norec)).unwrap();
        let err = dpu.run(25, |_| {}).unwrap_err();
        assert_eq!(err, RunError::TooManyTasklets { requested: 25, max: MAX_TASKLETS });
        // The limit itself is fine.
        assert!(dpu.run(MAX_TASKLETS, |_| {}).is_ok());
    }

    #[test]
    fn failed_run_leaves_a_usable_dpu() {
        // WRAM sized so 4 tasklets' logs fit but 5 do not (224 words per
        // tasklet with StmConfig::small_wram, plus 2 shared NOrec words).
        let config = StmConfig::small_wram(StmKind::Norec);
        let mut dpu = ThreadedDpu::with_capacity(config, 1024, 1024).unwrap();
        let err = dpu.run(5, |_| {}).unwrap_err();
        assert!(matches!(err, crate::error::RunError::Alloc(_)), "got {err:?}");
        // Registration is all-or-nothing per tasklet and successfully
        // registered slots stay pooled, so a smaller run still fits.
        assert!(dpu.run(4, |_| {}).is_ok());
    }

    #[test]
    fn repeated_runs_reuse_tasklet_logs() {
        // WRAM holds 4 tasklets' logs once, not twice: only slot pooling
        // lets the DPU be driven repeatedly.
        let mut dpu =
            ThreadedDpu::with_capacity(StmConfig::small_wram(StmKind::Norec), 1024, 1024).unwrap();
        let counter = dpu.alloc(Tier::Mram, 1).unwrap();
        for round in 1..=10u64 {
            dpu.run(4, |mut tx| {
                tx.transaction(|view| {
                    let v = view.read_word(counter)?;
                    view.write_word(counter, v + 1)?;
                    Ok(())
                });
            })
            .unwrap_or_else(|e| panic!("round {round} failed: {e}"));
            assert_eq!(dpu.peek(counter), 4 * round);
        }
    }

    #[test]
    fn run_reports_per_tasklet_wall_clock_profiles() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::TinyEtlWb)).unwrap();
        let counter = dpu.alloc(Tier::Mram, 1).unwrap();
        let report = dpu
            .run(4, |mut tx| {
                for _ in 0..100 {
                    tx.transaction(|view| {
                        let v = view.read_word(counter)?;
                        view.write_word(counter, v + 1)?;
                        Ok(())
                    });
                }
            })
            .unwrap();
        assert_eq!(report.profiles.len(), 4);
        let merged = report.merged_profile().unwrap();
        assert_eq!(merged.time_domain, TimeDomain::WallNanos);
        assert_eq!(merged.commits(), report.commits);
        assert_eq!(merged.aborts(), report.aborts);
        // Every abort the retry core resolves carries its reason.
        assert_eq!(merged.histogram_total(), report.aborts);
        assert!(merged.total_time() > 0, "wall-clock time must accrue");
        // The counter lives in MRAM: transactional traffic must show up as
        // DMA words.
        assert!(merged.dma_words() > 0);
        for profile in &report.profiles {
            assert_eq!(profile.commits(), 100);
        }
    }

    /// Transactions of [`array_a_cell`].
    const ARRAY_A_TXS: u64 = 1_500;

    /// The STM configuration and ArrayBench-A array of both cells.
    fn array_a_dpu() -> (ThreadedDpu, Addr) {
        let config = StmConfig::new(StmKind::TinyEtlWb, crate::MetadataPlacement::Mram)
            .with_read_set_capacity(128)
            .with_write_set_capacity(32);
        let mut dpu = ThreadedDpu::new(config).unwrap();
        let array = dpu.alloc(Tier::Mram, 12_500).unwrap();
        (dpu, array)
    }

    /// Transaction `n` of an ArrayBench-A-shaped cell — five random 20-word
    /// record reads over 2 500 words, then 20 random read-modify-writes over
    /// 10 000 — with every fifth transaction cancelling its first attempt,
    /// so a run has aborts and back-off yet repeats exactly. Draws its
    /// offsets from `rng`.
    fn array_a_tx<P: Platform>(
        engine: &mut TxEngine,
        platform: &mut P,
        array: Addr,
        n: u64,
        rng: &mut pim_sim::SimRng,
    ) {
        let reads: [u32; 5] = std::array::from_fn(|_| rng.next_range(2_480) as u32);
        let updates: [u32; 20] = std::array::from_fn(|_| 2_500 + rng.next_range(10_000) as u32);
        let mut first = true;
        engine.transaction(platform, |view| {
            let mut record = [0u64; 20];
            for at in reads {
                view.read_words(array.offset(at), &mut record)?;
            }
            if n.is_multiple_of(5) && std::mem::take(&mut first) {
                return Err(view.cancel());
            }
            for at in updates {
                let v = view.read_word(array.offset(at))?;
                view.write_word(array.offset(at), v + 1)?;
            }
            Ok(())
        });
    }

    /// The ArrayBench-A-shaped cell on one thread of a run. Returns the
    /// tasklet's profile and the thread's own measure of its body.
    fn array_a_cell(sample_period: u32) -> (ExecProfile, u64) {
        let (mut dpu, array) = array_a_dpu();
        dpu.sample_period = sample_period;
        let body_nanos = AtomicU64::new(0);
        let report = dpu
            .run(1, |mut tx| {
                let start = Instant::now();
                let mut rng = pim_sim::SimRng::new(42);
                for n in 0..ARRAY_A_TXS {
                    array_a_tx(tx.engine, &mut tx.platform, array, n, &mut rng);
                }
                body_nanos.store(nanos_between(start, Instant::now()), Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(report.commits, ARRAY_A_TXS);
        (report.profiles[0], body_nanos.into_inner())
    }

    /// Transactions per chunk of [`interleaved_array_a`]: four sample
    /// periods.
    const CHUNK_TXS: u64 = 4 * PHASE_SAMPLE_PERIOD as u64;

    /// The cell on a full-rate and a sampled clock at once: one thread
    /// alternates the two arms every [`CHUNK_TXS`] transactions, both arms
    /// running the same transactions, each on its own descriptor. A chunk
    /// runs on a platform of its own that lives only while the chunk runs,
    /// so an arm's profile holds its own transactions and nothing of the
    /// other arm's, and whatever slows the thread for longer than a chunk
    /// slows both arms alike. Returns one (full-rate, sampled) profile pair
    /// per chunk.
    fn interleaved_array_a(chunks: u64) -> Vec<[ExecProfile; 2]> {
        let (mut dpu, array) = array_a_dpu();
        let mut engines = [0, 1].map(|id| {
            let slot = dpu.shared.register_tasklet(&mut dpu.memory, id).unwrap();
            TxEngine::for_shared(dpu.shared.clone(), slot)
        });
        let mut rngs = [pim_sim::SimRng::new(42), pim_sim::SimRng::new(42)];
        let arms = [1, PHASE_SAMPLE_PERIOD];
        (0..chunks)
            .map(|chunk| {
                let mut profiles = [ExecProfile::new(TimeDomain::WallNanos); 2];
                for (arm, profile) in profiles.iter_mut().enumerate() {
                    let mut platform = ThreadPlatform::new(&dpu.memory, profile, arm)
                        .with_sample_period(arms[arm]);
                    for n in chunk * CHUNK_TXS..(chunk + 1) * CHUNK_TXS {
                        array_a_tx(&mut engines[arm], &mut platform, array, n, &mut rngs[arm]);
                    }
                }
                profiles
            })
            .collect()
    }

    /// Shares of the phases a committed attempt can be in, over their sum —
    /// the part of a profile the sampled clock estimates.
    fn committed_shares(profile: &ExecProfile) -> Vec<f64> {
        let phases = Phase::ALL.iter().filter(|&&p| p != Phase::Wasted);
        let times: Vec<f64> = phases.map(|&p| profile.phase(p) as f64).collect();
        let total: f64 = times.iter().sum();
        times.iter().map(|t| t / total).collect()
    }

    #[test]
    fn sampled_clock_counts_exactly_and_covers_the_whole_thread() {
        let (full, _) = array_a_cell(1);
        let (sampled, body_nanos) = array_a_cell(PHASE_SAMPLE_PERIOD);
        // Everything that is not a time is untouched by the period.
        assert_eq!(sampled.commits(), full.commits());
        assert_eq!(sampled.aborts(), full.aborts());
        assert_eq!(sampled.aborts(), 300, "every fifth transaction cancels once");
        assert_eq!(sampled.core.abort_codes, full.core.abort_codes);
        assert_eq!(sampled.dma_setups(), full.dma_setups());
        assert_eq!(sampled.dma_words(), full.dma_words());
        assert_eq!(sampled.core.attempt.total(), 0, "nothing is left in the attempt buffer");
        // The platform lives from just before the body to just after it and
        // no interval is dropped, so the profile's total brackets the
        // thread's own measure from above — by 5 % and a scheduling hiccup
        // at the very most.
        let total = sampled.total_time();
        assert!(total >= body_nanos, "total {total} ns misses part of the body's {body_nanos} ns");
        assert!(
            total - body_nanos <= body_nanos / 20 + 2_000_000,
            "total {total} ns overshoots the body's {body_nanos} ns"
        );
        assert!(sampled.phase(Phase::Wasted) > 0 && sampled.backoff_time() > 0);
    }

    #[test]
    fn sampled_phase_shares_agree_with_the_full_rate_clock() {
        // The two clocks run interleaved in one thread, chunk by chunk (see
        // `interleaved_array_a`), so a busy box slows both alike. What
        // interleaving cannot share is a preemption: it lands inside one
        // attempt of one arm, and a few milliseconds there outweigh a whole
        // chunk. A chunk that took more than twice its arm's median was
        // preempted, so the pair it belongs to is left out; on the rest,
        // every estimated share is within 0.05 (absolute) of the full-rate
        // clock's, and a quiet run agrees to 0.01.
        let chunks = interleaved_array_a(48);
        let limits = [0, 1].map(|arm| {
            let mut totals: Vec<u64> = chunks.iter().map(|pair| pair[arm].total_time()).collect();
            totals.sort_unstable();
            2 * totals[totals.len() / 2]
        });
        let quiet: Vec<&[ExecProfile; 2]> = chunks
            .iter()
            .filter(|pair| pair.iter().zip(limits).all(|(p, limit)| p.total_time() <= limit))
            .collect();
        let [full, sampled] = [0, 1].map(|arm| {
            committed_shares(&ExecProfile::merged(quiet.iter().map(|pair| &pair[arm])).unwrap())
        });
        let differ = full.iter().zip(&sampled).map(|(f, s)| (f - s).abs()).fold(0.0, f64::max);
        assert!(differ <= 0.05, "phase shares differ by {differ:.3} over {} chunks", quiet.len());
    }

    #[test]
    fn wasted_and_total_time_are_sums_of_boundary_intervals() {
        // Drive a platform by hand: `timestamp()` is the boundary reading,
        // so the intervals the profile must hold can be summed from outside.
        let mut memory = SharedMemory::new(16, 16);
        memory.alloc(Tier::Mram, 16).unwrap();
        let mut profile = ExecProfile::new(TimeDomain::WallNanos);
        let outer = Instant::now();
        let (first, last, wasted, between) = {
            let mut p = ThreadPlatform::new(&memory, &mut profile, 0);
            let first = p.timestamp();
            let (mut wasted, mut between, mut resolved) = (0, 0, first);
            for attempt in 0..40 {
                p.begin_attempt();
                let begun = p.timestamp();
                between += begun - resolved;
                p.set_phase(Phase::Reading);
                p.load(Addr::mram(3));
                p.set_phase(Phase::Writing);
                p.store(Addr::mram(3), attempt);
                if attempt % 3 == 0 {
                    p.abort_attempt_with(AbortReason::ReadConflict);
                    wasted += p.timestamp() - begun;
                    resolved = p.timestamp();
                    p.spin_wait(64);
                } else {
                    p.commit_attempt();
                    resolved = p.timestamp();
                }
                p.set_phase(Phase::OtherExec);
            }
            (first, resolved, wasted, between)
        };
        let outer = nanos_between(outer, Instant::now());
        assert_eq!((profile.commits(), profile.aborts()), (26, 14));
        // Aborted attempts — the timed ones (attempts 0, 16, 32; 0 aborts)
        // and the untimed alike — are wasted from begin to abort, exactly.
        assert_eq!(profile.phase(Phase::Wasted), wasted);
        // Back-off is timed by its own two reads inside the gap that
        // follows each abort.
        assert!(profile.backoff_time() > 0 && profile.backoff_time() <= between);
        // The total is every interval from creation to drop: at least up to
        // the last boundary seen from here, at most what this test took.
        let total = profile.total_time();
        assert!(total >= last - first && total <= outer, "{total} ∉ [{}, {outer}]", last - first);
        // What the sampled clock estimates is only how the rest — the
        // committed attempts' time — divides among the phases.
        assert!(profile.phase(Phase::Reading) > 0 && profile.phase(Phase::Writing) > 0);
    }

    #[test]
    fn thread_pinning_is_best_effort_and_reported() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::Norec)).unwrap();
        let counter = dpu.alloc(Tier::Mram, 1).unwrap();
        let body = |mut tx: TaskletTx<'_>| {
            tx.transaction(|view| {
                let v = view.read_word(counter)?;
                view.write_word(counter, v + 1)?;
                Ok(())
            });
        };
        let report = dpu.run(2, body).unwrap();
        // Pinning never exceeds the tasklet count and, with affinity
        // support and >= 2 allowed CPUs, pins every tasklet.
        assert!(report.pinned_tasklets <= 2);
        if affinity::allowed_cpus().len() >= 2 {
            assert_eq!(report.pinned_tasklets, 2, "both tasklets should pin on this platform");
        }
        // Disabling pinning is honoured regardless of platform support.
        dpu.set_thread_pinning(false);
        let unpinned = dpu.run(2, body).unwrap();
        assert_eq!(unpinned.pinned_tasklets, 0);
        assert_eq!(dpu.peek(counter), 4, "pinning must not affect correctness");
    }

    #[test]
    fn oversubscribed_runs_skip_pinning() {
        // More tasklets than allowed CPUs → pinning would double spinning
        // tasklets up on one core, so the run proceeds unpinned.
        let allowed = affinity::allowed_cpus().len();
        if allowed == 0 || allowed >= MAX_TASKLETS {
            return; // cannot oversubscribe on this machine
        }
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::TinyEtlWb)).unwrap();
        let report = dpu.run(allowed + 1, |_| {}).unwrap();
        assert_eq!(report.pinned_tasklets, 0);
    }

    #[test]
    fn zero_word_raw_copies_leave_the_same_dma_counts_on_both_executors() {
        // Empty copies between every pair of tiers, then one 3-word copy
        // from MRAM so the counters are seen to move.
        fn copies(tx: &mut impl TxOps, mram: Addr, wram: Addr) -> Result<(), Abort> {
            for (src, dst) in [(mram, mram.offset(4)), (mram, wram), (wram, mram), (wram, wram)] {
                tx.raw_copy(src, dst, 0);
            }
            tx.raw_copy(mram, wram.offset(4), 3);
            Ok(())
        }
        let config = StmConfig::small_wram(StmKind::Norec);

        let mut threaded = ThreadedDpu::new(config).unwrap();
        let mram = threaded.alloc(Tier::Mram, 8).unwrap();
        let wram = threaded.alloc(Tier::Wram, 8).unwrap();
        let report = threaded
            .run(1, |mut tasklet| tasklet.transaction(|tx| copies(tx, mram, wram)))
            .unwrap();
        let on_threads = (report.profiles[0].dma_setups(), report.profiles[0].dma_words());

        let mut dpu = pim_sim::Dpu::new(pim_sim::DpuConfig::small());
        let shared = StmShared::allocate(&mut dpu, config).unwrap();
        let slot = shared.register_tasklet(&mut dpu, 0).unwrap();
        let mut engine = TxEngine::for_shared(shared, slot);
        let mram = dpu.alloc(Tier::Mram, 8).unwrap();
        let wram = dpu.alloc(Tier::Wram, 8).unwrap();
        let mut stats = pim_sim::TaskletStats::new();
        {
            let mut ctx = pim_sim::TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            engine.transaction(&mut ctx, |tx| copies(tx, mram, wram));
        }
        let on_sim = (stats.mram_dma_setups, stats.mram_dma_words);

        assert_eq!(on_threads, on_sim);
        assert_eq!(on_sim, (1, 3), "only the 3-word copy moves data");
    }

    #[test]
    fn typed_alloc_and_peek_poke_roundtrip() {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(StmKind::Norec)).unwrap();
        let var = dpu.alloc_var::<(u32, u32)>(Tier::Mram).unwrap();
        dpu.poke_var(var, (7, 9));
        assert_eq!(dpu.peek_var(var), (7, 9));
        let arr = dpu.alloc_array::<[i64; 2]>(Tier::Mram, 3).unwrap();
        dpu.poke_var(arr.at(2), [-1, 1]);
        assert_eq!(dpu.peek_var(arr.at(2)), [-1, 1]);
        assert_eq!(dpu.peek_var(arr.at(0)), [0, 0]);
    }
}
