//! Per-DPU shared STM metadata: the global sequence lock / version clock and
//! the hashed lock table, plus allocation of per-tasklet descriptors.
//!
//! ## Count, then build
//!
//! A DPU's tiers are bump allocated and never freed, so what a set-up
//! sequence allocates is known before it runs on a DPU: run it against a
//! [`WordCounter`], which hands out the addresses a fresh [`Dpu`] would and
//! keeps only the totals. [`build_sized`] does that and then runs the
//! sequence again on a DPU with exactly the counted words per tier, after
//! checking the totals against a stock UPMEM DPU ([`DpuConfig::default`]).
//! Capacity only bounds the bump allocator, so every address is the one the
//! stock DPU would have handed out; what changes is the host memory a tier
//! costs once it is first used (see [`pim_sim::mem`]) — for a fleet shard,
//! its own words instead of a 64 KB WRAM or a formula's MRAM estimate.

use pim_sim::{Addr, AllocError, Dpu, DpuConfig, Tier};

use crate::config::StmConfig;
use crate::platform::encode_addr;
use crate::txslot::{TxSlot, READ_ENTRY_WORDS, WRITE_ENTRY_WORDS};

/// Anything that can hand out words of DPU memory for metadata: the simulator
/// [`Dpu`] and the threaded executor both implement this.
pub trait MetadataAllocator {
    /// Bump-allocates `words` zeroed words in `tier`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the tier does not have enough free space —
    /// on UPMEM this is a real constraint (the paper cannot even fit
    /// Labyrinth's logs, or ArrayBench A's lock table, in WRAM).
    fn alloc_words(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError>;
}

impl MetadataAllocator for Dpu {
    fn alloc_words(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        self.alloc(tier, words)
    }
}

/// A [`MetadataAllocator`] that holds no memory: it counts the words asked
/// of each tier and returns the addresses a fresh [`Dpu`]'s bump allocators
/// would (see the [module documentation](self)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordCounter {
    wram: u32,
    mram: u32,
}

impl WordCounter {
    /// Words counted so far in `tier`.
    pub fn words(&self, tier: Tier) -> u32 {
        match tier {
            Tier::Wram => self.wram,
            Tier::Mram => self.mram,
        }
    }

    /// A stock DPU ([`DpuConfig::default`]) with each tier cut to the words
    /// counted in it.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] for the first tier whose count a stock DPU
    /// cannot hold: `requested_words` is the count, `available_words` the
    /// tier's capacity.
    pub fn sized_config(&self) -> Result<DpuConfig, AllocError> {
        let stock = DpuConfig::default();
        for (tier, capacity) in [(Tier::Wram, stock.wram_words), (Tier::Mram, stock.mram_words)] {
            let words = self.words(tier);
            if words > capacity {
                return Err(AllocError { tier, requested_words: words, available_words: capacity });
            }
        }
        Ok(DpuConfig { wram_words: self.wram, mram_words: self.mram, ..stock })
    }
}

impl MetadataAllocator for WordCounter {
    fn alloc_words(&mut self, tier: Tier, words: u32) -> Result<Addr, AllocError> {
        let used = match tier {
            Tier::Wram => &mut self.wram,
            Tier::Mram => &mut self.mram,
        };
        let base = *used;
        *used = base.checked_add(words).ok_or(AllocError {
            tier,
            requested_words: words,
            available_words: u32::MAX - base,
        })?;
        Ok(Addr { tier, word: base })
    }
}

/// Runs the set-up sequence `layout` on a DPU sized to exactly the words it
/// allocates (see the [module documentation](self)): once against a
/// [`WordCounter`], then on a [`Dpu`] built from
/// [`WordCounter::sized_config`]. `layout` must allocate the same words
/// every time it runs.
///
/// # Errors
///
/// Returns [`AllocError`] if the counted words do not fit a stock DPU, or
/// if `layout` itself fails while counting.
///
/// # Panics
///
/// Panics if the second run of `layout` does not fit the words its first
/// run counted.
pub fn build_sized<T>(
    mut layout: impl FnMut(&mut dyn MetadataAllocator) -> Result<T, AllocError>,
) -> Result<(Dpu, T), AllocError> {
    let mut counter = WordCounter::default();
    layout(&mut counter)?;
    let mut dpu = Dpu::new(counter.sized_config()?);
    let built = layout(&mut dpu).expect("a layout fits the DPU sized to its own count");
    Ok((dpu, built))
}

/// Shared (per-DPU) state of one STM instance.
///
/// All fields are *addresses into DPU memory*; the actual contents live in
/// WRAM or MRAM according to the configured [`crate::MetadataPlacement`] so
/// that every metadata access pays the correct latency.
#[derive(Debug, Clone)]
pub struct StmShared {
    config: StmConfig,
    /// Single word: NOrec sequence lock (odd = a writer is committing).
    seqlock: Addr,
    /// Single word: Tiny's global version clock.
    clock: Addr,
    /// Base of the ORec / rw-lock table (absent for NOrec).
    lock_table: Option<Addr>,
}

impl StmShared {
    /// Allocates the shared metadata for `config` using `alloc`.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the configured tier cannot hold the
    /// metadata (e.g. a large lock table in WRAM).
    pub fn allocate<A: MetadataAllocator + ?Sized>(
        alloc: &mut A,
        config: StmConfig,
    ) -> Result<Self, AllocError> {
        let meta_tier = config.metadata_tier();
        let seqlock = alloc.alloc_words(meta_tier, 1)?;
        let clock = alloc.alloc_words(meta_tier, 1)?;
        let lock_table = if config.kind.uses_lock_table() {
            Some(alloc.alloc_words(config.lock_table_tier(), config.lock_table_entries)?)
        } else {
            None
        };
        Ok(StmShared { config, seqlock, clock, lock_table })
    }

    /// The configuration this instance was allocated with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// Address of the NOrec sequence lock word.
    pub(crate) fn seqlock_addr(&self) -> Addr {
        self.seqlock
    }

    /// Address of the global version clock word (Tiny).
    pub(crate) fn clock_addr(&self) -> Addr {
        self.clock
    }

    /// Address of the `index`-th lock-table entry.
    ///
    /// # Panics
    ///
    /// Panics if the configured STM design does not use a lock table.
    pub(crate) fn lock_entry_addr(&self, index: u32) -> Addr {
        let base = self.lock_table.expect("this STM design does not use a lock table");
        debug_assert!(index < self.config.lock_table_entries);
        base.offset(index)
    }

    /// Maps a data address onto a lock-table index. Like TinySTM, consecutive
    /// words map onto consecutive entries (a striped layout), so nearby
    /// addresses never alias; addresses that differ by a multiple of the
    /// table size share an entry. The table size (a compile-time choice in
    /// the original library) therefore controls the trade-off between
    /// metadata footprint and false conflicts through aliasing.
    pub fn lock_index(&self, addr: Addr) -> u32 {
        (encode_addr(addr) % u64::from(self.config.lock_table_entries)) as u32
    }

    /// Address of the ORec / rw-lock covering `addr`.
    pub fn orec_addr(&self, addr: Addr) -> Addr {
        self.lock_entry_addr(self.lock_index(addr))
    }

    /// Allocates the per-tasklet read and write logs for `tasklet_id`.
    ///
    /// Both logs come from **one** allocation, so registration is
    /// all-or-nothing: on failure the (bump-only, non-freeing) allocator has
    /// consumed nothing and the caller can retry with a smaller
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if the metadata tier cannot hold the logs.
    pub fn register_tasklet<A: MetadataAllocator + ?Sized>(
        &self,
        alloc: &mut A,
        tasklet_id: usize,
    ) -> Result<TxSlot, AllocError> {
        let tier = self.config.metadata_tier();
        let rs_words = self.config.read_set_capacity * READ_ENTRY_WORDS;
        let ws_words = self.config.write_set_capacity * WRITE_ENTRY_WORDS;
        let rs = alloc.alloc_words(tier, rs_words + ws_words)?;
        let ws = rs.offset(rs_words);
        Ok(TxSlot::new(
            tasklet_id,
            rs,
            self.config.read_set_capacity,
            ws,
            self.config.write_set_capacity,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MetadataPlacement, StmKind};
    use pim_sim::DpuConfig;

    #[test]
    fn allocation_places_metadata_in_the_configured_tier() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram);
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        assert_eq!(shared.seqlock_addr().tier, Tier::Wram);
        assert_eq!(shared.lock_entry_addr(0).tier, Tier::Wram);
        let slot = shared.register_tasklet(&mut dpu, 0).unwrap();
        assert_eq!(slot.tasklet_id(), 0);

        let cfg_m = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Mram);
        let shared_m = StmShared::allocate(&mut dpu, cfg_m).unwrap();
        assert_eq!(shared_m.lock_entry_addr(0).tier, Tier::Mram);
    }

    #[test]
    fn lock_table_placement_override_is_respected() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::new(StmKind::VrEtlWb, MetadataPlacement::Wram)
            .with_lock_table_placement(MetadataPlacement::Mram);
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        assert_eq!(shared.seqlock_addr().tier, Tier::Wram);
        assert_eq!(shared.lock_entry_addr(0).tier, Tier::Mram);
    }

    #[test]
    fn norec_does_not_allocate_a_lock_table() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let free_before = dpu.free_words(Tier::Wram);
        let cfg = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram);
        let _shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        // Only the two global words were taken.
        assert_eq!(dpu.free_words(Tier::Wram), free_before - 2);
    }

    #[test]
    #[should_panic(expected = "does not use a lock table")]
    fn lock_entry_on_norec_panics() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram);
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        let _ = shared.lock_entry_addr(0);
    }

    #[test]
    fn oversized_lock_table_fails_to_fit_in_wram() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
            .with_lock_table_entries(100_000);
        assert!(StmShared::allocate(&mut dpu, cfg).is_err());
    }

    #[test]
    fn lock_index_is_stable_and_in_range() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg =
            StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Mram).with_lock_table_entries(64);
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        let mut seen = std::collections::HashSet::new();
        for w in 0..1000u32 {
            let idx = shared.lock_index(Addr::mram(w));
            assert!(idx < 64);
            assert_eq!(idx, shared.lock_index(Addr::mram(w)), "hash must be deterministic");
            seen.insert(idx);
        }
        // A thousand addresses over 64 buckets should touch most buckets.
        assert!(seen.len() > 48, "hash distributes poorly: {} buckets", seen.len());
    }

    /// Allocates one STM instance with three tasklets and a data block.
    fn layout(alloc: &mut dyn MetadataAllocator) -> Result<Vec<Addr>, AllocError> {
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
            .with_lock_table_placement(MetadataPlacement::Mram);
        let shared = StmShared::allocate(alloc, cfg)?;
        let mut addrs = vec![shared.seqlock_addr(), shared.clock_addr(), shared.lock_entry_addr(0)];
        for t in 0..3 {
            shared.register_tasklet(alloc, t)?;
            // An empty allocation returns the bump pointer.
            addrs.push(alloc.alloc_words(Tier::Wram, 0)?);
        }
        addrs.push(alloc.alloc_words(Tier::Mram, 100)?);
        Ok(addrs)
    }

    #[test]
    fn a_counter_hands_out_the_addresses_of_a_fresh_dpu() {
        let mut counter = WordCounter::default();
        let counted = layout(&mut counter).unwrap();
        let mut dpu = Dpu::new(DpuConfig::default());
        assert_eq!(counted, layout(&mut dpu).unwrap());
        for tier in Tier::ALL {
            assert_eq!(counter.words(tier), dpu.memory(tier).used_words(), "{tier}");
        }
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram);
        assert_eq!(counter.words(Tier::Wram), 2 + 3 * cfg.per_tasklet_metadata_words());
        assert_eq!(counter.words(Tier::Mram), cfg.lock_table_entries + 100);
    }

    #[test]
    fn a_sized_dpu_holds_exactly_the_counted_words() {
        let (dpu, addrs) = build_sized(layout).unwrap();
        assert_eq!(addrs, layout(&mut WordCounter::default()).unwrap());
        for tier in Tier::ALL {
            assert!(dpu.memory(tier).capacity_words() > 0, "{tier}");
            assert_eq!(dpu.free_words(tier), 0, "{tier}");
        }
        let unused = build_sized(|alloc| alloc.alloc_words(Tier::Mram, 5)).unwrap().0;
        assert_eq!(unused.memory(Tier::Wram).capacity_words(), 0);
        assert_eq!(unused.backed_words(Tier::Wram), 0);
        assert_eq!(unused.config().max_tasklets, DpuConfig::default().max_tasklets);
    }

    #[test]
    fn counts_past_a_stock_dpu_are_errors() {
        let wram = DpuConfig::default().wram_words;
        let fits = build_sized(|alloc| alloc.alloc_words(Tier::Wram, wram));
        assert_eq!(fits.unwrap().0.free_words(Tier::Wram), 0);
        let err = build_sized(|alloc| {
            alloc.alloc_words(Tier::Wram, wram)?;
            alloc.alloc_words(Tier::Wram, 1)
        })
        .unwrap_err();
        let expected =
            AllocError { tier: Tier::Wram, requested_words: wram + 1, available_words: wram };
        assert_eq!(err, expected);
        let mut counter = WordCounter::default();
        counter.alloc_words(Tier::Mram, u32::MAX).unwrap();
        assert!(counter.alloc_words(Tier::Mram, 1).is_err(), "a count never wraps");
    }

    #[test]
    fn distinct_tasklets_get_disjoint_logs() {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram)
            .with_read_set_capacity(4)
            .with_write_set_capacity(4);
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        let before = dpu.free_words(Tier::Wram);
        let _a = shared.register_tasklet(&mut dpu, 0).unwrap();
        let _b = shared.register_tasklet(&mut dpu, 1).unwrap();
        let per_tasklet = 4 * READ_ENTRY_WORDS + 4 * WRITE_ENTRY_WORDS;
        assert_eq!(dpu.free_words(Tier::Wram), before - 2 * per_tasklet);
    }
}
