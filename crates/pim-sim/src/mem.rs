//! Word-addressed memory tiers of a DPU and the bump allocators on top of
//! them.
//!
//! UPMEM exposes two data memories per DPU with very different
//! latency/capacity trade-offs:
//!
//! * **WRAM** — 64 KB scratchpad, accessed like a register file from the
//!   pipeline (a load/store is an ordinary instruction).
//! * **MRAM** — the 64 MB DRAM bank, accessed through a DMA engine with a
//!   fixed setup latency plus a per-word streaming cost.
//!
//! The STM library is *word based* (like TinySTM and NOrec), so the simulator
//! stores both tiers as arrays of 64-bit words and addresses them with
//! [`Addr`] = (tier, word index).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which memory tier a word lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Tier {
    /// 64 KB fast scratchpad memory.
    Wram,
    /// 64 MB DRAM bank accessed via DMA.
    Mram,
}

impl Tier {
    /// All tiers, useful for parameter sweeps.
    pub const ALL: [Tier; 2] = [Tier::Wram, Tier::Mram];

    /// Short lowercase name used by the experiment harness CLI.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Wram => "wram",
            Tier::Mram => "mram",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A word address inside one DPU: a tier plus a word index within that tier.
///
/// Addresses are 8-byte-word granular because every STM design studied in the
/// paper is word based.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Addr {
    /// The memory tier the word lives in.
    pub tier: Tier,
    /// Word index (not byte offset) within the tier.
    pub word: u32,
}

impl Addr {
    /// Creates an address in WRAM.
    pub fn wram(word: u32) -> Self {
        Addr { tier: Tier::Wram, word }
    }

    /// Creates an address in MRAM.
    pub fn mram(word: u32) -> Self {
        Addr { tier: Tier::Mram, word }
    }

    /// Returns the address `offset` words after `self` (same tier).
    ///
    /// # Panics
    ///
    /// Panics if the resulting word index overflows `u32`.
    #[inline]
    pub fn offset(self, offset: u32) -> Self {
        Addr { tier: self.tier, word: self.word.checked_add(offset).expect("address overflow") }
    }

    /// Byte offset corresponding to this word address, as the UPMEM runtime
    /// would see it.
    pub fn byte_offset(self) -> u64 {
        u64::from(self.word) * 8
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{:#x}", self.tier, self.word)
    }
}

/// Error returned when a bump allocation does not fit in the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocError {
    /// Tier in which the allocation was attempted.
    pub tier: Tier,
    /// Number of words requested.
    pub requested_words: u32,
    /// Number of words still available in the tier.
    pub available_words: u32,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "allocation of {} words does not fit in {} ({} words free)",
            self.requested_words, self.tier, self.available_words
        )
    }
}

impl std::error::Error for AllocError {}

/// One memory tier: backing words plus a bump allocator.
#[derive(Debug, Clone)]
pub struct Memory {
    tier: Tier,
    words: Vec<u64>,
    next_free: u32,
}

impl Memory {
    /// Creates a zero-initialised memory of `capacity_words` words.
    pub fn new(tier: Tier, capacity_words: u32) -> Self {
        Memory { tier, words: vec![0; capacity_words as usize], next_free: 0 }
    }

    /// The tier this memory represents.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Total capacity in words.
    pub fn capacity_words(&self) -> u32 {
        self.words.len() as u32
    }

    /// Words not yet handed out by the bump allocator.
    pub fn free_words(&self) -> u32 {
        self.capacity_words() - self.next_free
    }

    /// Words already handed out by the bump allocator.
    pub fn used_words(&self) -> u32 {
        self.next_free
    }

    /// Reads a word. Does not charge cycles — timing is the responsibility of
    /// [`crate::TaskletCtx`].
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of bounds.
    #[inline]
    pub fn read(&self, word: u32) -> u64 {
        self.words[word as usize]
    }

    /// Writes a word. Does not charge cycles.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of bounds.
    #[inline]
    pub fn write(&mut self, word: u32, value: u64) {
        self.words[word as usize] = value;
    }

    /// Reads `out.len()` consecutive words starting at `word` as one slice
    /// copy. Does not charge cycles.
    ///
    /// # Panics
    ///
    /// Panics if the block reaches past the end of the tier.
    pub fn read_block(&self, word: u32, out: &mut [u64]) {
        let start = word as usize;
        out.copy_from_slice(&self.words[start..start + out.len()]);
    }

    /// Writes `values` to consecutive words starting at `word` as one slice
    /// copy. Does not charge cycles.
    ///
    /// # Panics
    ///
    /// Panics if the block reaches past the end of the tier.
    pub fn write_block(&mut self, word: u32, values: &[u64]) {
        let start = word as usize;
        self.words[start..start + values.len()].copy_from_slice(values);
    }

    /// Copies `len` words from `src` to `dst` within this tier; the ranges
    /// may overlap. Does not charge cycles.
    ///
    /// # Panics
    ///
    /// Panics if either block reaches past the end of the tier.
    pub fn copy_within(&mut self, src: u32, dst: u32, len: u32) {
        let src = src as usize;
        self.words.copy_within(src..src + len as usize, dst as usize);
    }

    /// Bump-allocates `words` consecutive words and returns the index of the
    /// first one.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the allocation does not fit.
    pub fn alloc(&mut self, words: u32) -> Result<u32, AllocError> {
        if words > self.free_words() {
            return Err(AllocError {
                tier: self.tier,
                requested_words: words,
                available_words: self.free_words(),
            });
        }
        let base = self.next_free;
        self.next_free += words;
        Ok(base)
    }

    /// Resets the allocator and zeroes the whole tier.
    pub fn reset(&mut self) {
        self.next_free = 0;
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Read-only view of the backing words (for debugging / checkpointing).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display_and_offset() {
        let a = Addr::wram(4);
        assert_eq!(a.offset(3), Addr::wram(7));
        assert_eq!(a.byte_offset(), 32);
        assert_eq!(format!("{a}"), "wram:0x4");
        assert_eq!(format!("{}", Addr::mram(16)), "mram:0x10");
    }

    #[test]
    fn tier_names() {
        assert_eq!(Tier::Wram.name(), "wram");
        assert_eq!(Tier::Mram.name(), "mram");
        assert_eq!(Tier::ALL.len(), 2);
    }

    #[test]
    fn memory_read_write_roundtrip() {
        let mut m = Memory::new(Tier::Wram, 16);
        m.write(3, 0xdead_beef);
        assert_eq!(m.read(3), 0xdead_beef);
        assert_eq!(m.read(4), 0);
        assert_eq!(m.capacity_words(), 16);
    }

    #[test]
    fn bump_allocator_hands_out_disjoint_ranges() {
        let mut m = Memory::new(Tier::Mram, 10);
        let a = m.alloc(4).unwrap();
        let b = m.alloc(6).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 4);
        assert_eq!(m.free_words(), 0);
        let err = m.alloc(1).unwrap_err();
        assert_eq!(err.requested_words, 1);
        assert_eq!(err.available_words, 0);
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn reset_clears_contents_and_allocator() {
        let mut m = Memory::new(Tier::Wram, 8);
        let base = m.alloc(8).unwrap();
        m.write(base + 2, 7);
        m.reset();
        assert_eq!(m.read(2), 0);
        assert_eq!(m.free_words(), 8);
    }

    #[test]
    fn block_ops_move_whole_ranges() {
        let mut m = Memory::new(Tier::Mram, 16);
        m.write_block(2, &[1, 2, 3, 4]);
        let mut out = [0u64; 4];
        m.read_block(2, &mut out);
        assert_eq!(out, [1, 2, 3, 4]);
        // Overlapping ranges copy as if through a buffer.
        m.copy_within(2, 4, 4);
        assert_eq!(&m.words()[2..8], &[1, 2, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_block_read_panics() {
        let m = Memory::new(Tier::Wram, 4);
        m.read_block(2, &mut [0u64; 3]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_block_write_panics() {
        let mut m = Memory::new(Tier::Wram, 4);
        m.write_block(2, &[0u64; 3]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_copy_within_panics() {
        let mut m = Memory::new(Tier::Wram, 4);
        m.copy_within(0, 2, 3);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let m = Memory::new(Tier::Wram, 2);
        let _ = m.read(5);
    }
}
