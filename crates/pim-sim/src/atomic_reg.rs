//! The 256-entry hardware atomic bit register of a DPU.
//!
//! UPMEM DPUs do not provide compare-and-swap. The only intra-DPU atomic
//! primitives are `acquire` and `release`: the hardware hashes the supplied
//! address onto one of 256 "logical lock" bits and atomically sets/clears it.
//! Two different addresses may hash onto the same bit (*lock aliasing*),
//! which serialises unrelated critical sections; the paper argues (and we
//! track, so the claim can be checked) that this aliasing has negligible
//! impact because the protected critical sections are tiny.

/// Number of logical lock bits in the hardware register.
pub const ATOMIC_REGISTER_BITS: usize = 256;

/// The hardware atomic bit register together with aliasing statistics.
#[derive(Debug, Clone)]
pub struct AtomicBitRegister {
    bits: [bool; ATOMIC_REGISTER_BITS],
    /// Which tasklet currently holds each bit (for debugging/invariants).
    holder: [Option<usize>; ATOMIC_REGISTER_BITS],
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
            bits: [false; ATOMIC_REGISTER_BITS],
            holder: [None; ATOMIC_REGISTER_BITS],
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
    pub fn try_acquire(&mut self, key: u64, tasklet_id: usize) -> bool {
        let idx = Self::hash(key);
        self.stats.acquires += 1;
        if self.bits[idx] {
            self.stats.contended_acquires += 1;
            false
        } else {
            self.bits[idx] = true;
            self.holder[idx] = Some(tasklet_id);
            true
        }
    }

    /// Releases the logical lock for `key`.
    ///
    /// # Panics
    ///
    /// Panics if the bit is not currently held — releasing an unheld
    /// hardware lock is a programming error we want to surface in tests.
    pub fn release(&mut self, key: u64) {
        let idx = Self::hash(key);
        assert!(self.bits[idx], "release of unheld atomic bit {idx}");
        self.stats.releases += 1;
        self.bits[idx] = false;
        self.holder[idx] = None;
    }

    /// Whether the logical lock for `key` is currently held.
    pub fn is_held(&self, key: u64) -> bool {
        self.bits[Self::hash(key)]
    }

    /// Tasklet currently holding the logical lock for `key`, if any.
    pub fn holder(&self, key: u64) -> Option<usize> {
        self.holder[Self::hash(key)]
    }

    /// Number of bits currently set.
    pub fn held_count(&self) -> usize {
        self.bits.iter().filter(|b| **b).count()
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
        assert!(reg.is_held(42));
        assert_eq!(reg.holder(42), Some(0));
        reg.release(42);
        assert!(!reg.is_held(42));
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
    fn reset_clears_state() {
        let mut reg = AtomicBitRegister::new();
        reg.try_acquire(1, 0);
        reg.reset();
        assert_eq!(reg.held_count(), 0);
        assert_eq!(reg.stats(), AtomicRegisterStats::default());
    }
}
