//! Ownership-record (ORec) word encoding used by the Tiny designs.
//!
//! Each lock-table entry is a single word that is either
//!
//! * **unlocked** — the low bit is clear, the next [`INCARNATION_BITS`]
//!   bits hold the *incarnation* and the remaining high bits the version
//!   (commit timestamp) of the locations covered by the entry, or
//! * **locked** — the low bit is set and the next bits identify the owning
//!   tasklet.
//!
//! # Why an incarnation
//!
//! A write-through transaction stores into data memory while it holds the
//! ORec, and on abort restores both the data and the ORec's previous
//! contents. A reader on another thread brackets its data load between two
//! ORec loads and accepts the value iff the two are bit-identical — so if
//! the abort put back the *same* word, a data load that fell inside the
//! writer's lock window (and saw its dirty value) would pass the re-check:
//! the write-through ABA that TinySTM closes with incarnation numbers. The
//! abort path therefore releases with [`OrecWord::next_incarnation`]: same
//! version — nothing was committed, nobody's read set is invalidated — but a
//! different word. The version comparisons of snapshot extension and
//! read-set validation ignore the field.
//!
//! The field is [`INCARNATION_BITS`] wide and wraps inside itself; nothing
//! is done on wrap. For a wrapped value to fool a reader, exactly a multiple
//! of 2^20 lock-store-abort cycles would have to hit this one ORec between
//! two adjacent loads of that reader with no commit to the ORec among them
//! (a commit stamps a strictly larger version and resets the field) — a
//! livelock of about a million aborts that the retry policies' back-off
//! exists to break. That leaves 43 bits of version: 2^43 update commits per
//! DPU lifetime.
//!
//! The word is updated through [`crate::Platform::atomic_update`], which on
//! UPMEM maps onto the acquire/release bit register (there is no
//! compare-and-swap instruction).

/// Decoded view of an ORec word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrecWord(u64);

const LOCKED_BIT: u64 = 1;
const OWNER_SHIFT: u32 = 1;
/// Width of the incarnation field of an unlocked ORec (see the
/// [module documentation](self)).
pub const INCARNATION_BITS: u32 = 20;
const INCARNATION_SHIFT: u32 = 1;
const INCARNATION_MASK: u64 = ((1 << INCARNATION_BITS) - 1) << INCARNATION_SHIFT;
const VERSION_SHIFT: u32 = INCARNATION_SHIFT + INCARNATION_BITS;

impl OrecWord {
    /// Wraps a raw word read from the lock table.
    pub fn from_raw(raw: u64) -> Self {
        OrecWord(raw)
    }

    /// The raw word to store back into the lock table.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// An unlocked ORec carrying `version`, at incarnation 0.
    pub fn unlocked(version: u64) -> Self {
        debug_assert!(version >> (64 - VERSION_SHIFT) == 0, "ORec version {version} overflows");
        OrecWord(version << VERSION_SHIFT)
    }

    /// The word an aborting owner releases an ORec with, given the unlocked
    /// word it replaced: the same version at the next incarnation (wrapping
    /// inside the field), so the release is visible to a reader that sampled
    /// the ORec before the lock even though no version was committed.
    pub fn next_incarnation(self) -> Self {
        debug_assert!(!self.is_locked(), "next_incarnation() called on a locked ORec");
        let next = self.0.wrapping_add(1 << INCARNATION_SHIFT) & INCARNATION_MASK;
        OrecWord((self.0 & !INCARNATION_MASK) | next)
    }

    /// An ORec locked by `owner`.
    pub fn locked_by(owner: usize) -> Self {
        OrecWord(LOCKED_BIT | ((owner as u64) << OWNER_SHIFT))
    }

    /// Whether the ORec is currently locked.
    pub fn is_locked(self) -> bool {
        self.0 & LOCKED_BIT != 0
    }

    /// Owner tasklet, if locked.
    pub fn owner(self) -> Option<usize> {
        if self.is_locked() {
            Some((self.0 >> OWNER_SHIFT) as usize)
        } else {
            None
        }
    }

    /// Whether the ORec is locked by `tasklet`.
    pub fn is_locked_by(self, tasklet: usize) -> bool {
        self.owner() == Some(tasklet)
    }

    /// Version carried by an unlocked ORec (whatever its incarnation).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the ORec is locked — a locked word carries
    /// an owner, not a version.
    pub fn version(self) -> u64 {
        debug_assert!(!self.is_locked(), "version() called on a locked ORec");
        self.0 >> VERSION_SHIFT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlocked_roundtrips_version() {
        for v in [0u64, 1, 17, 1 << 40] {
            let w = OrecWord::unlocked(v);
            assert!(!w.is_locked());
            assert_eq!(w.version(), v);
            assert_eq!(OrecWord::from_raw(w.raw()), w);
        }
    }

    #[test]
    fn incarnations_change_the_word_but_not_the_version() {
        let base = OrecWord::unlocked(17);
        let mut word = base;
        for _ in 0..5 {
            let next = word.next_incarnation();
            assert!(!next.is_locked());
            assert_eq!(next.version(), 17);
            assert_ne!(next.raw(), word.raw());
            word = next;
        }
        // The field wraps inside itself: version and lock bit are untouched.
        let last = OrecWord::from_raw(base.raw() | INCARNATION_MASK);
        assert_eq!(last.version(), 17);
        assert_eq!(last.next_incarnation(), base);
    }

    #[test]
    fn locked_roundtrips_owner() {
        for owner in 0..24 {
            let w = OrecWord::locked_by(owner);
            assert!(w.is_locked());
            assert_eq!(w.owner(), Some(owner));
            assert!(w.is_locked_by(owner));
            assert!(!w.is_locked_by(owner + 1));
        }
    }

    #[test]
    fn fresh_table_entry_is_unlocked_version_zero() {
        let w = OrecWord::from_raw(0);
        assert!(!w.is_locked());
        assert_eq!(w.version(), 0);
        assert_eq!(w.owner(), None);
    }

    #[test]
    fn locked_and_unlocked_words_never_collide() {
        // A locked word always has the low bit set; an unlocked word never
        // does, regardless of version.
        for v in 0..100u64 {
            assert_ne!(OrecWord::unlocked(v).raw() & 1, 1);
        }
        for t in 0..24usize {
            assert_eq!(OrecWord::locked_by(t).raw() & 1, 1);
        }
    }
}
