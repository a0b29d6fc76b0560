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
//!
//! ## A tier costs host memory from its first use
//!
//! [`Memory::new`] records the capacity and allocates nothing. The first
//! [`Memory::alloc`] of more than zero words, or the first write, backs the
//! **whole** tier with one zeroed allocation; until then every in-bounds
//! read returns zero and every out-of-bounds access panics as it does on a
//! backed tier. A fleet of hundreds of shard DPUs whose STM metadata and
//! data all live in MRAM therefore never pays for a WRAM: 64 KB is below
//! the allocator's mmap threshold, so an eagerly zeroed WRAM is memset and
//! resident, 16 MB of it across 256 shards.
//!
//! A tier is backed to its capacity, so the fleets choose the capacity:
//! each shard DPU counts what its set-up allocates in each tier first and
//! is built with exactly those words (`pim_stm::shared::build_sized`). A
//! shard with its metadata in WRAM then backs the metadata's words, not a
//! whole 64 KB scratchpad, and its MRAM holds its slice and logs with no
//! headroom: `pim-exp --fleet --dpus 2500 --scale 0.05` peaks near 50 MB
//! with the metadata in either tier (x86-64 Linux, release build). The
//! capacity only bounds the bump allocator, so a tier cut to the
//! words it hands out yields the same addresses as a stock one.
//!
//! The whole tier at once, not a backing that grows with use, because both
//! growing schemes measured worse. Resizing the backing with the bump
//! pointer touches MRAM's pages during set-up instead of leaving them to
//! the run (a 64 MB `vec![0; n]` is lazily zeroed pages from the kernel; a
//! `resize` writes them), which more than doubled the set-up time of a
//! short simulation. Reserving the capacity and zero-filling only a prefix
//! keeps most of the resident set: the recycled 64 KB chunks fragment.
//!
//! An access that misses the backing leaves its accessor through a single
//! out-of-line call in tail position (`*_unbacked`), so the backed path
//! compiles to what plain slice indexing did. A slow path that returned
//! into the accessor had `TaskletCtx::store_block` save six registers on
//! every call, 4–6 % of the simulator workloads' wall time.

use std::fmt;

/// Which memory tier a word lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

/// One memory tier: its capacity, a bump allocator and — from first use —
/// the backing words (see the [module documentation](self)).
#[derive(Debug, Clone)]
pub struct Memory {
    tier: Tier,
    capacity: u32,
    /// Empty until the tier is first used, exactly `capacity` words after.
    words: Vec<u64>,
    next_free: u32,
}

impl Memory {
    /// Creates a zero-initialised memory of `capacity_words` words. Nothing
    /// is allocated until the tier is first used.
    pub fn new(tier: Tier, capacity_words: u32) -> Self {
        Memory { tier, capacity: capacity_words, words: Vec::new(), next_free: 0 }
    }

    /// The tier this memory represents.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Total capacity in words.
    pub fn capacity_words(&self) -> u32 {
        self.capacity
    }

    /// Words of host memory behind the tier: zero until its first use, the
    /// capacity afterwards.
    pub fn backed_words(&self) -> u32 {
        self.words.len() as u32
    }

    /// Words not yet handed out by the bump allocator.
    pub fn free_words(&self) -> u32 {
        self.capacity - self.next_free
    }

    /// Words already handed out by the bump allocator.
    pub fn used_words(&self) -> u32 {
        self.next_free
    }

    /// Where every access that missed the backing ends up: `..end` lies
    /// within an unbacked tier (all zeros), or the access is out of bounds.
    #[cold]
    #[inline(never)]
    fn check_unbacked(&self, end: usize) {
        assert!(
            self.words.is_empty() && end <= self.capacity as usize,
            "access up to word {end} is out of bounds of {} ({} words)",
            self.tier,
            self.capacity
        );
    }

    /// The tier's first use, by a write or an allocation ending at word
    /// `end`: backs the whole tier with lazily zeroed host memory.
    #[cold]
    #[inline(never)]
    fn back_for(&mut self, end: usize) {
        self.check_unbacked(end);
        self.words = vec![0; self.capacity as usize];
    }

    /// Reads a word. Does not charge cycles — timing is the responsibility of
    /// [`crate::TaskletCtx`].
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of bounds.
    #[inline]
    pub fn read(&self, word: u32) -> u64 {
        match self.words.get(word as usize) {
            Some(&value) => value,
            None => self.read_unbacked(word),
        }
    }

    /// [`Memory::read`] off the backing: zero, or out of bounds.
    #[cold]
    #[inline(never)]
    fn read_unbacked(&self, word: u32) -> u64 {
        self.check_unbacked(word as usize + 1);
        0
    }

    /// Writes a word. Does not charge cycles.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of bounds.
    #[inline]
    pub fn write(&mut self, word: u32, value: u64) {
        match self.words.get_mut(word as usize) {
            Some(slot) => *slot = value,
            None => self.write_unbacked(word, value),
        }
    }

    /// [`Memory::write`] off the backing: the tier's first use, or out of
    /// bounds.
    #[cold]
    #[inline(never)]
    fn write_unbacked(&mut self, word: u32, value: u64) {
        self.back_for(word as usize + 1);
        self.words[word as usize] = value;
    }

    /// Reads `out.len()` consecutive words starting at `word` as one slice
    /// copy. Does not charge cycles.
    ///
    /// # Panics
    ///
    /// Panics if the block reaches past the end of the tier.
    pub(crate) fn read_block(&self, word: u32, out: &mut [u64]) {
        let start = word as usize;
        match self.words.get(start..start + out.len()) {
            Some(block) => out.copy_from_slice(block),
            None => self.read_block_unbacked(start, out),
        }
    }

    /// [`Memory::read_block`] off the backing: zeros, or out of bounds.
    #[cold]
    #[inline(never)]
    fn read_block_unbacked(&self, start: usize, out: &mut [u64]) {
        self.check_unbacked(start + out.len());
        out.fill(0);
    }

    /// Writes `values` to consecutive words starting at `word` as one slice
    /// copy. Does not charge cycles.
    ///
    /// # Panics
    ///
    /// Panics if the block reaches past the end of the tier.
    pub(crate) fn write_block(&mut self, word: u32, values: &[u64]) {
        let start = word as usize;
        match self.words.get_mut(start..start + values.len()) {
            Some(block) => block.copy_from_slice(values),
            None => self.write_block_unbacked(start, values),
        }
    }

    /// [`Memory::write_block`] off the backing: the tier's first use, or
    /// out of bounds.
    #[cold]
    #[inline(never)]
    fn write_block_unbacked(&mut self, start: usize, values: &[u64]) {
        let end = start + values.len();
        self.back_for(end);
        self.words[start..end].copy_from_slice(values);
    }

    /// Copies `len` words from `src` to `dst` within this tier; the ranges
    /// may overlap. Does not charge cycles.
    ///
    /// # Panics
    ///
    /// Panics if either block reaches past the end of the tier.
    pub(crate) fn copy_within(&mut self, src: u32, dst: u32, len: u32) {
        let (src, dst, len) = (src as usize, dst as usize, len as usize);
        if self.words.is_empty() {
            // Zeros onto zeros: nothing to move, nothing to back.
            return self.check_unbacked(src.max(dst) + len);
        }
        self.words.copy_within(src..src + len, dst);
    }

    /// Copies `len` words starting at `src_word` of another tier, `src`, to
    /// consecutive words starting at `word` of this one. Does not charge
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if either block reaches past the end of its tier.
    pub(crate) fn copy_from(&mut self, word: u32, src: &Memory, src_word: u32, len: u32) {
        let (start, len) = (src_word as usize, len as usize);
        match src.words.get(start..start + len) {
            Some(block) => self.write_block(word, block),
            None => self.copy_from_unbacked(word as usize, src, start, len),
        }
    }

    /// [`Memory::copy_from`] a source off its backing: zeroes the target
    /// block, without backing this tier for it, or is out of bounds.
    #[cold]
    #[inline(never)]
    fn copy_from_unbacked(&mut self, start: usize, src: &Memory, src_start: usize, len: usize) {
        src.check_unbacked(src_start + len);
        if self.words.is_empty() {
            self.check_unbacked(start + len);
        } else {
            self.words[start..start + len].fill(0);
        }
    }

    /// Bump-allocates `words` consecutive words and returns the index of the
    /// first one. The first allocation of more than zero words backs the
    /// tier.
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
        if words > 0 && self.words.is_empty() {
            self.back_for((self.next_free + words) as usize);
        }
        let base = self.next_free;
        self.next_free += words;
        Ok(base)
    }

    /// Resets the allocator and zeroes the whole tier, by dropping its
    /// backing: the memory is again what [`Memory::new`] returned.
    pub fn reset(&mut self) {
        self.next_free = 0;
        self.words = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display_and_offset() {
        let a = Addr::wram(4);
        assert_eq!(a.offset(3), Addr::wram(7));
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
        let mut out = [0u64; 6];
        m.read_block(2, &mut out);
        assert_eq!(out, [1, 2, 1, 2, 3, 4]);
    }

    #[test]
    fn an_unbacked_tier_reads_zero_and_allocates_nothing() {
        let mut m = Memory::new(Tier::Mram, 16);
        assert_eq!((m.backed_words(), m.capacity_words(), m.free_words()), (0, 16, 16));
        assert_eq!(m.read(15), 0);
        let mut out = [7u64; 4];
        m.read_block(12, &mut out);
        assert_eq!(out, [0; 4]);
        // Neither an empty allocation, a copy of zeros onto zeros nor a
        // failed allocation is a use.
        assert_eq!(m.alloc(0), Ok(0));
        m.copy_within(0, 8, 8);
        assert!(m.alloc(17).is_err());
        assert_eq!(m.backed_words(), 0);
    }

    #[test]
    fn the_first_write_or_allocation_backs_the_whole_tier() {
        let mut written = Memory::new(Tier::Wram, 8);
        written.write(5, 9);
        assert_eq!(written.backed_words(), 8);
        assert_eq!((written.read(5), written.read(4)), (9, 0));

        let mut block = Memory::new(Tier::Wram, 8);
        block.write_block(6, &[1, 2]);
        assert_eq!(block.backed_words(), 8);
        assert_eq!((block.read(6), block.read(7), block.read(0)), (1, 2, 0));

        let mut allocated = Memory::new(Tier::Mram, 8);
        assert_eq!(allocated.alloc(3), Ok(0));
        assert_eq!(allocated.backed_words(), 8);
        assert_eq!(allocated.read(7), 0);
    }

    #[test]
    fn copying_from_an_unbacked_tier_writes_zeros() {
        let unbacked = Memory::new(Tier::Wram, 8);
        let mut backed = Memory::new(Tier::Mram, 8);
        backed.write_block(0, &[1, 2, 3, 4]);
        backed.copy_from(1, &unbacked, 4, 2);
        let mut out = [0u64; 4];
        backed.read_block(0, &mut out);
        assert_eq!(out, [1, 0, 0, 4]);
        // Zeros into an unbacked tier leave it unbacked; real words back it.
        let mut target = Memory::new(Tier::Wram, 8);
        target.copy_from(0, &unbacked, 0, 8);
        assert_eq!(target.backed_words(), 0);
        target.copy_from(6, &backed, 0, 2);
        assert_eq!((target.backed_words(), target.read(6), target.read(7)), (8, 1, 0));
    }

    #[test]
    fn reset_and_clone_keep_the_first_use_rule() {
        let mut m = Memory::new(Tier::Wram, 8);
        assert_eq!(m.clone().backed_words(), 0, "a clone of an unbacked tier is unbacked");
        m.reset();
        assert_eq!(m.backed_words(), 0, "resetting an unbacked tier backs nothing");
        let base = m.alloc(4).unwrap();
        m.write(base + 1, 3);
        let copy = m.clone();
        assert_eq!((copy.backed_words(), copy.read(1), copy.used_words()), (8, 3, 4));
        m.reset();
        assert_eq!((m.backed_words(), m.read(1), m.free_words()), (0, 0, 8));
        assert_eq!(copy.read(1), 3, "the clone owns its words");
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

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_to_an_unbacked_tier_panics() {
        Memory::new(Tier::Wram, 2).write(2, 1);
    }

    /// The same four accesses once the tier is backed.
    #[test]
    fn out_of_bounds_accesses_to_a_backed_tier_panic() {
        let backed = || {
            let mut m = Memory::new(Tier::Wram, 4);
            m.write(0, 1);
            m
        };
        let panics = |access: fn(&mut Memory)| {
            let mut m = backed();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| access(&mut m))).is_err()
        };
        assert!(panics(|m| {
            let _ = m.read(4);
        }));
        assert!(panics(|m| m.read_block(2, &mut [0u64; 3])));
        assert!(panics(|m| m.write_block(2, &[0u64; 3])));
        assert!(panics(|m| m.copy_within(0, 2, 3)));
        assert!(panics(|m| m.copy_from(0, &Memory::new(Tier::Mram, 2), 1, 2)));
    }
}
