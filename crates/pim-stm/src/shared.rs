//! Per-DPU shared STM metadata: the global sequence lock / version clock and
//! the hashed lock table, plus allocation of per-tasklet descriptors.

use pim_sim::{Addr, AllocError, Dpu, Tier};

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
    pub fn seqlock_addr(&self) -> Addr {
        self.seqlock
    }

    /// Address of the global version clock word (Tiny).
    pub fn clock_addr(&self) -> Addr {
        self.clock
    }

    /// Address of the `index`-th lock-table entry.
    ///
    /// # Panics
    ///
    /// Panics if the configured STM design does not use a lock table.
    pub fn lock_entry_addr(&self, index: u32) -> Addr {
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
