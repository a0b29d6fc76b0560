//! A single DPU: configuration, memory tiers, atomic register and the shared
//! MRAM DMA port.

use crate::atomic_reg::AtomicBitRegister;
use crate::latency::{Cycles, LatencyModel};
use crate::mem::{Addr, AllocError, Memory, Tier};

/// Static configuration of a simulated DPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpuConfig {
    /// WRAM capacity in 64-bit words (64 KB on UPMEM → 8192 words).
    pub wram_words: u32,
    /// MRAM capacity in 64-bit words (64 MB on UPMEM → 8 388 608 words).
    pub mram_words: u32,
    /// Maximum number of hardware threads (24 on UPMEM).
    pub max_tasklets: usize,
    /// Timing parameters.
    pub latency: LatencyModel,
}

impl Default for DpuConfig {
    fn default() -> Self {
        DpuConfig {
            wram_words: 64 * 1024 / 8,
            mram_words: 64 * 1024 * 1024 / 8,
            max_tasklets: 24,
            latency: LatencyModel::default(),
        }
    }
}

impl DpuConfig {
    /// A configuration with reduced MRAM capacity, handy for unit tests that
    /// do not want to allocate 64 MB per DPU.
    pub fn small() -> Self {
        DpuConfig { mram_words: 64 * 1024, ..Default::default() }
    }

    /// WRAM capacity in bytes.
    pub fn wram_bytes(&self) -> u64 {
        u64::from(self.wram_words) * 8
    }

    /// MRAM capacity in bytes.
    pub fn mram_bytes(&self) -> u64 {
        u64::from(self.mram_words) * 8
    }
}

/// The state of one simulated DPU.
///
/// A `Dpu` owns its memory tiers and the hardware atomic register. Tasklet
/// code never touches a `Dpu` directly while running; it goes through
/// [`crate::TaskletCtx`], which charges cycles. Direct (`peek`/`poke`) access
/// is provided for test setup and for the host side of the experiment
/// harness, mirroring how the real host CPU can access MRAM while the DPU is
/// idle.
#[derive(Debug, Clone)]
pub struct Dpu {
    config: DpuConfig,
    wram: Memory,
    mram: Memory,
    atomic: AtomicBitRegister,
    /// Virtual time at which the shared MRAM DMA port becomes free.
    mram_port_free_at: Cycles,
}

impl Dpu {
    /// Creates a DPU with zeroed memories. A tier costs host memory only
    /// from its first use (see [`crate::mem`]).
    pub fn new(config: DpuConfig) -> Self {
        Dpu {
            config,
            wram: Memory::new(Tier::Wram, config.wram_words),
            mram: Memory::new(Tier::Mram, config.mram_words),
            atomic: AtomicBitRegister::new(),
            mram_port_free_at: 0,
        }
    }

    /// The DPU's static configuration.
    pub fn config(&self) -> &DpuConfig {
        &self.config
    }

    /// The latency model in use.
    #[inline]
    pub fn latency(&self) -> &LatencyModel {
        &self.config.latency
    }

    /// Borrow of a memory tier.
    #[inline]
    pub fn memory(&self, tier: Tier) -> &Memory {
        match tier {
            Tier::Wram => &self.wram,
            Tier::Mram => &self.mram,
        }
    }

    /// Mutable borrow of a memory tier.
    #[inline]
    pub fn memory_mut(&mut self, tier: Tier) -> &mut Memory {
        match tier {
            Tier::Wram => &mut self.wram,
            Tier::Mram => &mut self.mram,
        }
    }

    /// Borrow of the hardware atomic bit register.
    pub fn atomic_register(&self) -> &AtomicBitRegister {
        &self.atomic
    }

    /// Mutable borrow of the hardware atomic bit register.
    #[inline]
    pub fn atomic_register_mut(&mut self) -> &mut AtomicBitRegister {
        &mut self.atomic
    }

    /// Bump-allocates `words` consecutive zero-initialised words in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier does not have enough free words —
    /// exactly the capacity pressure the paper discusses when deciding where
    /// to place STM metadata.
    pub fn alloc(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        let base = self.memory_mut(tier).alloc(words)?;
        Ok(Addr { tier, word: base })
    }

    /// Alias of [`Dpu::alloc`]; memory handed out by the bump allocator is
    /// always zeroed.
    pub fn alloc_zeroed(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        self.alloc(tier, words)
    }

    /// Reads a word without charging cycles (host-style access).
    pub fn peek(&self, addr: Addr) -> u64 {
        self.memory(addr.tier).read(addr.word)
    }

    /// Writes a word without charging cycles (host-style access).
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.memory_mut(addr.tier).write(addr.word, value);
    }

    /// Reads `words` consecutive words starting at `addr` without charging
    /// cycles.
    pub fn peek_block(&self, addr: Addr, words: u32) -> Vec<u64> {
        let mut block = vec![0; words as usize];
        self.memory(addr.tier).read_block(addr.word, &mut block);
        block
    }

    /// Writes a block of words starting at `addr` without charging cycles.
    pub fn poke_block(&mut self, addr: Addr, values: &[u64]) {
        self.memory_mut(addr.tier).write_block(addr.word, values);
    }

    /// Copies `words` words from `src` to `dst` without charging cycles, as
    /// one slice copy within a tier or between the two.
    pub fn copy_block(&mut self, src: Addr, dst: Addr, words: u32) {
        match (src.tier, dst.tier) {
            (Tier::Wram, Tier::Mram) => self.mram.copy_from(dst.word, &self.wram, src.word, words),
            (Tier::Mram, Tier::Wram) => self.wram.copy_from(dst.word, &self.mram, src.word, words),
            _ => self.memory_mut(src.tier).copy_within(src.word, dst.word, words),
        }
    }

    /// Virtual time at which the MRAM DMA port is next free.
    #[inline]
    pub fn mram_port_free_at(&self) -> Cycles {
        self.mram_port_free_at
    }

    /// Updates the MRAM-port availability time (used by [`crate::TaskletCtx`]).
    #[inline]
    pub fn set_mram_port_free_at(&mut self, cycles: Cycles) {
        self.mram_port_free_at = cycles;
    }

    /// Clears memories, allocators, the atomic register and the DMA port
    /// clock, keeping the configuration.
    pub fn reset(&mut self) {
        self.wram.reset();
        self.mram.reset();
        self.atomic.reset();
        self.mram_port_free_at = 0;
    }

    /// Free words remaining in `tier` (after bump allocations).
    pub fn free_words(&self, tier: Tier) -> u32 {
        self.memory(tier).free_words()
    }

    /// Words of host memory behind `tier`: zero until the tier's first
    /// allocation or write, its capacity afterwards.
    pub fn backed_words(&self, tier: Tier) -> u32 {
        self.memory(tier).backed_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_upmem_capacities() {
        let c = DpuConfig::default();
        assert_eq!(c.wram_bytes(), 64 * 1024);
        assert_eq!(c.mram_bytes(), 64 * 1024 * 1024);
        assert_eq!(c.max_tasklets, 24);
    }

    #[test]
    fn alloc_respects_tier_capacity() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let a = dpu.alloc(Tier::Wram, 10).unwrap();
        assert_eq!(a.tier, Tier::Wram);
        // WRAM is only 8192 words; a 1 M-word allocation must fail.
        assert!(dpu.alloc(Tier::Wram, 1_000_000).is_err());
        // MRAM in the small config is 64 K words.
        assert!(dpu.alloc(Tier::Mram, 64 * 1024).is_ok());
        assert!(dpu.alloc(Tier::Mram, 1).is_err());
    }

    #[test]
    fn peek_poke_roundtrip_and_blocks() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let base = dpu.alloc(Tier::Mram, 4).unwrap();
        dpu.poke_block(base, &[1, 2, 3, 4]);
        assert_eq!(dpu.peek_block(base, 4), vec![1, 2, 3, 4]);
        dpu.poke(base.offset(2), 99);
        assert_eq!(dpu.peek(base.offset(2)), 99);
    }

    #[test]
    fn copy_block_moves_words_between_and_within_tiers() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let mram = dpu.alloc(Tier::Mram, 8).unwrap();
        let wram = dpu.alloc(Tier::Wram, 4).unwrap();
        dpu.poke_block(mram, &[1, 2, 3, 4]);
        dpu.copy_block(mram, wram, 4);
        assert_eq!(dpu.peek_block(wram, 4), vec![1, 2, 3, 4]);
        dpu.poke(wram, 9);
        dpu.copy_block(wram, mram.offset(4), 4);
        dpu.copy_block(mram.offset(4), mram.offset(1), 3);
        assert_eq!(dpu.peek_block(mram, 8), vec![1, 9, 2, 3, 9, 2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn copy_block_past_the_source_tier_panics() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let last = dpu.config().wram_words - 1;
        dpu.copy_block(Addr::wram(last), Addr::mram(0), 2);
    }

    #[test]
    fn a_tier_is_backed_by_its_first_use_only() {
        let mut dpu = Dpu::new(DpuConfig::small());
        assert_eq!((dpu.backed_words(Tier::Wram), dpu.backed_words(Tier::Mram)), (0, 0));
        assert_eq!(dpu.peek(Addr::wram(7)), 0);
        assert_eq!(dpu.peek_block(Addr::mram(8), 4), vec![0; 4]);
        // Copying an unbacked block across tiers moves zeros onto zeros.
        dpu.copy_block(Addr::wram(0), Addr::mram(0), 16);
        dpu.alloc(Tier::Mram, 4).unwrap();
        assert_eq!(dpu.backed_words(Tier::Mram), dpu.config().mram_words);
        assert_eq!(dpu.backed_words(Tier::Wram), 0, "using one tier never backs the other");
        dpu.poke(Addr::wram(3), 1);
        assert_eq!(dpu.backed_words(Tier::Wram), dpu.config().wram_words);
        dpu.reset();
        assert_eq!((dpu.backed_words(Tier::Wram), dpu.backed_words(Tier::Mram)), (0, 0));
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let a = dpu.alloc(Tier::Wram, 8).unwrap();
        dpu.poke(a, 42);
        dpu.set_mram_port_free_at(1000);
        dpu.atomic_register_mut().try_acquire(5, 0);
        dpu.reset();
        assert_eq!(dpu.peek(Addr::wram(0)), 0);
        assert_eq!(dpu.mram_port_free_at(), 0);
        assert_eq!(dpu.atomic_register().held_count(), 0);
        assert_eq!(dpu.free_words(Tier::Wram), dpu.config().wram_words);
    }
}
