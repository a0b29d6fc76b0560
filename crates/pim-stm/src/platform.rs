//! The [`Platform`] abstraction: everything an STM algorithm needs from the
//! machine it runs on.
//!
//! The STM implementations never touch a DPU or a thread directly — they are
//! written against this trait, which provides word loads/stores, an atomic
//! read-modify-write built from the UPMEM acquire/release primitives, phase
//! accounting and transaction-attempt accounting. Two implementations exist:
//!
//! * [`pim_sim::TaskletCtx`] — the deterministic, cycle-accounted simulator
//!   (used for all figures), implemented in this module;
//! * [`crate::threaded::ThreadPlatform`] — real OS threads over atomic
//!   memory (used for concurrency tests and examples).

use pim_sim::{Addr, Phase, TaskletCtx, Tier};

/// Result of an atomic read-modify-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicOutcome {
    /// Value observed before any update.
    pub previous: u64,
    /// Whether the update closure produced a new value that was stored.
    pub updated: bool,
}

/// Machine abstraction used by every STM algorithm.
pub trait Platform {
    /// Loads one word.
    fn load(&mut self, addr: Addr) -> u64;

    /// Stores one word.
    fn store(&mut self, addr: Addr, value: u64);

    /// Loads one word of **owner-private** memory: a word that only the
    /// calling tasklet reads or writes while tasklets run.
    ///
    /// Costs exactly what [`Platform::load`] costs — the default forwards to
    /// it, so the simulator's cycle and DMA accounting cannot tell the two
    /// apart. A platform may implement it with a weaker hardware ordering
    /// than `load` (the threaded executor uses `Relaxed` where `load` is
    /// `SeqCst`), which is sound only under the ownership rule a caller must
    /// meet: **for the whole time tasklets are running, no tasklet other
    /// than the caller touches the word, by any access path**; anyone else
    /// (the host, a later run's tasklet) reads or writes it only across a
    /// thread spawn or join. The per-tasklet read set and write/undo log
    /// behind [`crate::TxSlot`] meet it, and [`crate::TxSlot`]'s log
    /// accessors are the only callers. Never use it for data words, ORecs,
    /// rw-locks, the global clock or the sequence lock.
    fn load_private(&mut self, addr: Addr) -> u64 {
        self.load(addr)
    }

    /// Stores one word of owner-private memory (see
    /// [`Platform::load_private`] for the cost and the ownership rule).
    fn store_private(&mut self, addr: Addr, value: u64) {
        self.store(addr, value)
    }

    /// Loads `out.len()` consecutive words starting at `addr`.
    ///
    /// The default implementation loads word by word; platforms with a DMA
    /// engine override it so a multi-word record costs one burst (setup paid
    /// once) instead of `out.len()` independent transfers. **No atomicity is
    /// implied across the words** — algorithms must bracket the burst with
    /// their own validation (as NOrec's record read does with the sequence
    /// lock).
    fn load_block(&mut self, addr: Addr, out: &mut [u64]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.load(addr.offset(i as u32));
        }
    }

    /// Stores `values` to consecutive words starting at `addr` (see
    /// [`Platform::load_block`] for the cost model and atomicity caveat).
    fn store_block(&mut self, addr: Addr, values: &[u64]) {
        for (i, value) in values.iter().enumerate() {
            self.store(addr.offset(i as u32), *value);
        }
    }

    /// Copies `words` consecutive words from `src` to `dst` with plain
    /// (uninstrumented) DMA, the way the UPMEM `mram_read`/`mram_write`
    /// helpers move bulk data. **No atomicity across the words** — intended
    /// for tasklet-private staging buffers and racy snapshots that are
    /// transactionally re-validated before anything depends on them.
    fn copy(&mut self, src: Addr, dst: Addr, words: u32) {
        for i in 0..words {
            let value = self.load(src.offset(i));
            self.store(dst.offset(i), value);
        }
    }

    /// Atomically applies `update` to the word at `addr`.
    ///
    /// The closure receives the current value; returning `Some(new)` stores
    /// `new`, returning `None` leaves the word unchanged. On UPMEM this is
    /// realised with the hardware acquire/release bit register (there is no
    /// compare-and-swap instruction); on the threaded executor it is a CAS
    /// loop.
    fn atomic_update(
        &mut self,
        addr: Addr,
        update: &mut dyn FnMut(u64) -> Option<u64>,
    ) -> AtomicOutcome;

    /// Switches the accounting phase, returning the previous one.
    fn set_phase(&mut self, phase: Phase) -> Phase;

    /// Starts accounting a new transaction attempt.
    fn begin_attempt(&mut self);

    /// Resolves the current attempt as committed.
    fn commit_attempt(&mut self);

    /// Resolves the current attempt as aborted (its cycles become wasted
    /// time).
    fn abort_attempt(&mut self);

    /// Resolves the current attempt as aborted *with the reason the
    /// algorithm reported*, so the platform's profile can maintain the
    /// abort-reason histogram. The shared retry core always uses this
    /// variant; the default implementation discards the reason and falls
    /// back to [`Platform::abort_attempt`].
    fn abort_attempt_with(&mut self, reason: crate::error::AbortReason) {
        let _ = reason;
        self.abort_attempt();
    }

    /// Identifier of the executing tasklet (0-based, < 24).
    fn tasklet_id(&self) -> usize;

    /// Current reading of this platform's clock in its native time domain:
    /// the tasklet's virtual cycle count on the simulator, nanoseconds since
    /// the process-wide epoch on the threaded executor — where it is the
    /// reading the platform took at its last accounting boundary
    /// ([`Platform::begin_attempt`], `commit_attempt`/`abort_attempt*`), not
    /// a fresh one, so the retry core asks for it right *after* those calls.
    /// The retry core stamps each transaction's first attempt and commit
    /// with this clock so the service layer can separate queueing delay from
    /// STM retry time (see [`crate::txslot::TxStamps`]). Platforms without a
    /// clock report 0 — stamps then carry no information but nothing breaks.
    fn timestamp(&self) -> u64 {
        0
    }

    /// Models `instructions` instructions of non-memory work.
    fn compute(&mut self, instructions: u64);

    /// Busy-waits for roughly `instructions` instructions (used by back-off
    /// and by NOrec's wait-for-even-sequence-lock loop). Defaults to
    /// [`Platform::compute`].
    fn spin_wait(&mut self, instructions: u64) {
        self.compute(instructions);
    }

    /// Compare-and-swap built on [`Platform::atomic_update`]: stores `new`
    /// iff the current value equals `expected`. Returns the previous value
    /// and whether the swap happened.
    fn compare_and_swap(&mut self, addr: Addr, expected: u64, new: u64) -> AtomicOutcome {
        self.atomic_update(addr, &mut |current| if current == expected { Some(new) } else { None })
    }

    /// Atomic fetch-and-add built on [`Platform::atomic_update`]. Returns the
    /// previous value.
    fn fetch_add(&mut self, addr: Addr, delta: u64) -> u64 {
        self.atomic_update(addr, &mut |current| Some(current.wrapping_add(delta))).previous
    }
}

/// Bit set in an encoded address when it refers to MRAM.
const ENC_MRAM_BIT: u64 = 1 << 32;
/// Bit used by algorithms to attach a boolean flag to a stored address (for
/// example "this write-log entry acquired its ownership record").
pub const ENC_FLAG_BIT: u64 = 1 << 63;

/// Encodes an [`Addr`] into a single word so it can be stored in read/write
/// logs that live in simulated memory.
pub fn encode_addr(addr: Addr) -> u64 {
    let tier_bit = match addr.tier {
        Tier::Wram => 0,
        Tier::Mram => ENC_MRAM_BIT,
    };
    u64::from(addr.word) | tier_bit
}

/// Decodes a word produced by [`encode_addr`] (ignoring [`ENC_FLAG_BIT`]).
pub fn decode_addr(encoded: u64) -> Addr {
    let tier = if encoded & ENC_MRAM_BIT != 0 { Tier::Mram } else { Tier::Wram };
    Addr { tier, word: (encoded & 0xffff_ffff) as u32 }
}

impl Platform for TaskletCtx<'_> {
    fn load(&mut self, addr: Addr) -> u64 {
        TaskletCtx::load(self, addr)
    }

    fn store(&mut self, addr: Addr, value: u64) {
        TaskletCtx::store(self, addr, value)
    }

    fn load_block(&mut self, addr: Addr, out: &mut [u64]) {
        TaskletCtx::load_block(self, addr, out)
    }

    fn store_block(&mut self, addr: Addr, values: &[u64]) {
        TaskletCtx::store_block(self, addr, values)
    }

    fn copy(&mut self, src: Addr, dst: Addr, words: u32) {
        TaskletCtx::copy_block(self, src, dst, words)
    }

    fn atomic_update(
        &mut self,
        addr: Addr,
        update: &mut dyn FnMut(u64) -> Option<u64>,
    ) -> AtomicOutcome {
        // The UPMEM recipe for an atomic RMW: acquire the hardware bit hashed
        // from the address, do the read-modify-write, release the bit. In the
        // discrete-event executor a step is atomic, so the acquire can only
        // fail if an algorithm leaked a held bit across operations — that is
        // a bug we want to surface loudly.
        let key = encode_addr(addr);
        let acquired = self.try_acquire(key);
        assert!(
            acquired,
            "hardware atomic bit for {addr} held across scheduler steps; \
             STM critical sections must stay within one operation"
        );
        let previous = TaskletCtx::load(self, addr);
        let outcome = match update(previous) {
            Some(new) => {
                TaskletCtx::store(self, addr, new);
                AtomicOutcome { previous, updated: true }
            }
            None => AtomicOutcome { previous, updated: false },
        };
        self.release(key);
        outcome
    }

    fn set_phase(&mut self, phase: Phase) -> Phase {
        TaskletCtx::set_phase(self, phase)
    }

    fn begin_attempt(&mut self) {
        TaskletCtx::begin_attempt(self)
    }

    fn commit_attempt(&mut self) {
        TaskletCtx::commit_attempt(self)
    }

    fn abort_attempt(&mut self) {
        TaskletCtx::abort_attempt(self)
    }

    fn abort_attempt_with(&mut self, reason: crate::error::AbortReason) {
        TaskletCtx::abort_attempt_coded(self, reason.index())
    }

    fn tasklet_id(&self) -> usize {
        TaskletCtx::tasklet_id(self)
    }

    fn timestamp(&self) -> u64 {
        TaskletCtx::now(self)
    }

    fn compute(&mut self, instructions: u64) {
        TaskletCtx::compute(self, instructions)
    }

    fn spin_wait(&mut self, instructions: u64) {
        TaskletCtx::spin_wait(self, instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{Dpu, DpuConfig, TaskletStats};

    #[test]
    fn addr_encoding_roundtrips_both_tiers() {
        for addr in [Addr::wram(0), Addr::wram(8191), Addr::mram(0), Addr::mram(0x00ff_ffff)] {
            assert_eq!(decode_addr(encode_addr(addr)), addr);
        }
        // The flag bit does not disturb decoding.
        let a = Addr::mram(123);
        assert_eq!(decode_addr(encode_addr(a) | ENC_FLAG_BIT), a);
    }

    #[test]
    fn wram_and_mram_addresses_encode_differently() {
        assert_ne!(encode_addr(Addr::wram(5)), encode_addr(Addr::mram(5)));
    }

    #[test]
    fn sim_platform_cas_and_fetch_add() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut stats = TaskletStats::new();
        let word = dpu.alloc(Tier::Mram, 1).unwrap();
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
        let p: &mut dyn Platform = &mut ctx;

        let first = p.compare_and_swap(word, 0, 7);
        assert!(first.updated);
        assert_eq!(first.previous, 0);
        let second = p.compare_and_swap(word, 0, 9);
        assert!(!second.updated);
        assert_eq!(second.previous, 7);
        assert_eq!(p.load(word), 7);

        assert_eq!(p.fetch_add(word, 3), 7);
        assert_eq!(p.load(word), 10);
    }

    #[test]
    fn sim_platform_attempt_accounting_flows_to_stats() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut stats = TaskletStats::new();
        let word = dpu.alloc(Tier::Wram, 1).unwrap();
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 2, 1, 0);
            let p: &mut dyn Platform = &mut ctx;
            assert_eq!(p.tasklet_id(), 2);
            p.begin_attempt();
            p.set_phase(Phase::Writing);
            p.store(word, 5);
            p.commit_attempt();
            p.begin_attempt();
            p.set_phase(Phase::Reading);
            p.load(word);
            p.abort_attempt();
        }
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.aborts, 1);
        assert!(stats.breakdown.get(Phase::Writing) > 0);
        assert!(stats.breakdown.get(Phase::Wasted) > 0);
        assert_eq!(stats.breakdown.get(Phase::Reading), 0);
    }

    #[test]
    fn atomic_update_releases_the_hardware_bit() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let mut stats = TaskletStats::new();
        let word = dpu.alloc(Tier::Wram, 1).unwrap();
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            let p: &mut dyn Platform = &mut ctx;
            p.fetch_add(word, 1);
            p.fetch_add(word, 1);
        }
        assert_eq!(dpu.atomic_register().held_count(), 0);
        assert_eq!(dpu.peek(word), 2);
    }
}
