//! The 256-entry hardware atomic bit register of a DPU.
//!
//! UPMEM DPUs do not provide compare-and-swap. The only intra-DPU atomic
//! primitives are `acquire` and `release`: the hardware hashes the supplied
//! address onto one of 256 "logical lock" bits and atomically sets/clears it.
//! Two different addresses may hash onto the same bit (*lock aliasing*),
//! which serialises unrelated critical sections; the paper argues (and we
//! track, so the claim can be checked) that this aliasing has negligible
//! impact because the protected critical sections are tiny.
//!
//! Every simulated DPU carries one register, so its host footprint is paid
//! once per shard of a fleet of thousands: the register keeps one byte per
//! bit, the id of the tasklet holding it or a free sentinel (255), 256
//! bytes in all. A tasklet id that does not fit below the sentinel is a
//! programming error and panics instead of wrapping onto another tasklet's
//! id; UPMEM has 24 hardware threads.

/// Number of logical lock bits in the hardware register.
pub(crate) const ATOMIC_REGISTER_BITS: usize = 256;

/// The holder byte of a clear bit; tasklet ids lie below it.
const FREE: u8 = u8::MAX;

/// The hardware atomic bit register together with aliasing statistics.
#[derive(Debug, Clone)]
pub struct AtomicBitRegister {
    /// The tasklet holding each bit, or `FREE`.
    holder: [u8; ATOMIC_REGISTER_BITS],
    stats: AtomicRegisterStats,
}

/// Counters describing how the register was used during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtomicRegisterStats {
    /// Total acquire operations performed.
    pub acquires: u64,
    /// Total release operations performed.
    pub releases: u64,
    /// Acquires that found the bit already held (by any tasklet) and had to
    /// wait — on hardware the tasklet would spin/block.
    pub contended_acquires: u64,
}

impl Default for AtomicBitRegister {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicBitRegister {
    /// Creates an all-clear register.
    pub fn new() -> Self {
        AtomicBitRegister {
            holder: [FREE; ATOMIC_REGISTER_BITS],
            stats: AtomicRegisterStats::default(),
        }
    }

    /// The hardware hash from an address-like key to a bit index.
    ///
    /// The real hash is undocumented; we use a Fibonacci-style multiplicative
    /// hash which, like the hardware, maps distinct keys to the same bit with
    /// probability 1/256.
    pub fn hash(key: u64) -> usize {
        ((key.wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 56) as usize % ATOMIC_REGISTER_BITS
    }

    /// Attempts to acquire the logical lock for `key` on behalf of
    /// `tasklet_id`. Returns `true` on success, `false` if the bit is already
    /// held (the caller decides whether to spin, yield or abort).
    ///
    /// # Panics
    ///
    /// Panics if `tasklet_id` does not fit a holder byte (it must lie below
    /// 255).
    pub fn try_acquire(&mut self, key: u64, tasklet_id: usize) -> bool {
        let id = match u8::try_from(tasklet_id) {
            Ok(id) if id != FREE => id,
            _ => Self::unfit_tasklet(tasklet_id),
        };
        let idx = Self::hash(key);
        self.stats.acquires += 1;
        if self.holder[idx] == FREE {
            self.holder[idx] = id;
            true
        } else {
            self.stats.contended_acquires += 1;
            false
        }
    }

    #[cold]
    #[inline(never)]
    fn unfit_tasklet(tasklet_id: usize) -> ! {
        panic!("tasklet id {tasklet_id} does not fit the atomic register's holder byte (ids lie below {FREE})")
    }

    /// Releases the logical lock for `key`.
    ///
    /// # Panics
    ///
    /// Panics if the bit is not currently held — releasing an unheld
    /// hardware lock is a programming error we want to surface in tests.
    pub fn release(&mut self, key: u64) {
        let idx = Self::hash(key);
        assert!(self.holder[idx] != FREE, "release of unheld atomic bit {idx}");
        self.stats.releases += 1;
        self.holder[idx] = FREE;
    }

    /// Tasklet currently holding the logical lock for `key`, if any.
    pub fn holder(&self, key: u64) -> Option<usize> {
        let holder = self.holder[Self::hash(key)];
        (holder != FREE).then_some(usize::from(holder))
    }

    /// Number of bits currently set.
    pub fn held_count(&self) -> usize {
        self.holder.iter().filter(|&&holder| holder != FREE).count()
    }

    /// Usage statistics accumulated so far.
    pub fn stats(&self) -> AtomicRegisterStats {
        self.stats
    }

    /// Clears all bits and statistics.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_then_release_roundtrip() {
        let mut reg = AtomicBitRegister::new();
        assert!(reg.try_acquire(42, 0));
        assert_eq!(reg.holder(42), Some(0));
        reg.release(42);
        assert_eq!(reg.holder(42), None);
        assert_eq!(reg.held_count(), 0);
    }

    #[test]
    fn second_acquire_on_same_key_is_contended() {
        let mut reg = AtomicBitRegister::new();
        assert!(reg.try_acquire(7, 0));
        assert!(!reg.try_acquire(7, 1));
        let stats = reg.stats();
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.contended_acquires, 1);
    }

    #[test]
    fn aliasing_maps_distinct_keys_to_same_bit_sometimes() {
        // With 10_000 random keys over 256 bits, collisions are certain.
        let mut buckets = [0u32; ATOMIC_REGISTER_BITS];
        for key in 0..10_000u64 {
            buckets[AtomicBitRegister::hash(key * 0x1234_5678 + 1)] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 0), "hash should spread keys over all bits");
    }

    #[test]
    #[should_panic(expected = "release of unheld")]
    fn releasing_unheld_bit_panics() {
        let mut reg = AtomicBitRegister::new();
        reg.release(3);
    }

    #[test]
    fn the_register_and_a_dpu_stay_small() {
        assert!(std::mem::size_of::<AtomicBitRegister>() <= 512);
        assert!(std::mem::size_of::<crate::Dpu>() < 1024);
    }

    #[test]
    fn holder_round_trips_every_hardware_tasklet_id() {
        let mut reg = AtomicBitRegister::new();
        for tasklet in 0..crate::DpuConfig::default().max_tasklets {
            let key = tasklet as u64;
            assert!(reg.try_acquire(key, tasklet));
            assert_eq!(reg.holder(key), Some(tasklet));
            reg.release(key);
            assert_eq!(reg.holder(key), None);
        }
        // The largest id that fits below the free sentinel.
        assert!(reg.try_acquire(9, usize::from(FREE) - 1));
        assert_eq!(reg.holder(9), Some(usize::from(FREE) - 1));
    }

    #[test]
    #[should_panic(expected = "tasklet id 255 does not fit the atomic register's holder byte")]
    fn the_free_sentinel_is_not_a_tasklet_id() {
        AtomicBitRegister::new().try_acquire(1, usize::from(FREE));
    }

    #[test]
    #[should_panic(expected = "tasklet id 256 does not fit the atomic register's holder byte")]
    fn a_tasklet_id_past_a_byte_panics_instead_of_wrapping() {
        AtomicBitRegister::new().try_acquire(1, 256);
    }

    #[test]
    fn reset_clears_state() {
        let mut reg = AtomicBitRegister::new();
        reg.try_acquire(1, 0);
        reg.reset();
        assert_eq!(reg.held_count(), 0);
        assert_eq!(reg.stats(), AtomicRegisterStats::default());
    }
}
