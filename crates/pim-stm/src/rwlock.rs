//! Read-write lock word encoding used by the visible-reads (VR) designs.
//!
//! Following the paper's Fig. 3, each lock-table entry packs into one word:
//!
//! * two mode bits (free / read / write);
//! * in read mode, one presence flag per tasklet (UPMEM has at most 24
//!   tasklets) plus a reader count;
//! * in write mode, the identity of the owning tasklet.
//!
//! The word is only ever mutated through
//! [`crate::Platform::atomic_update`], i.e. under the hardware atomic bit
//! register, so the compound updates below are race-free on both executors.

/// Maximum number of tasklets a DPU can run, and therefore the number of
/// reader flags carried by a read-locked word.
pub const MAX_TASKLETS: usize = 24;

const MODE_MASK: u64 = 0b11;
const MODE_FREE: u64 = 0b00;
const MODE_READ: u64 = 0b01;
const MODE_WRITE: u64 = 0b10;
const READER_FLAGS_SHIFT: u32 = 2;
const OWNER_SHIFT: u32 = 2;

/// Lock mode of a [`RwLockWord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RwMode {
    /// Nobody holds the lock.
    Free,
    /// One or more tasklets hold the lock in read mode.
    Read,
    /// Exactly one tasklet holds the lock in write mode.
    Write,
}

/// Decoded view of a VR read-write lock word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RwLockWord(u64);

impl RwLockWord {
    /// Wraps a raw word read from the lock table.
    pub fn from_raw(raw: u64) -> Self {
        RwLockWord(raw)
    }

    /// The raw word to store back into the lock table.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The free (unheld) lock word.
    pub fn free() -> Self {
        RwLockWord(MODE_FREE)
    }

    /// A word write-locked by `owner`.
    ///
    /// # Panics
    ///
    /// Panics if `owner >= MAX_TASKLETS`.
    pub(crate) fn write_locked_by(owner: usize) -> Self {
        assert!(owner < MAX_TASKLETS, "tasklet id {owner} out of range");
        RwLockWord(MODE_WRITE | ((owner as u64) << OWNER_SHIFT))
    }

    /// Current mode.
    pub fn mode(self) -> RwMode {
        match self.0 & MODE_MASK {
            MODE_FREE => RwMode::Free,
            MODE_READ => RwMode::Read,
            MODE_WRITE => RwMode::Write,
            _ => unreachable!("invalid rw-lock mode bits"),
        }
    }

    /// Whether no tasklet holds the lock.
    pub fn is_free(self) -> bool {
        self.mode() == RwMode::Free
    }

    /// Owner tasklet if write-locked.
    pub fn writer(self) -> Option<usize> {
        if self.mode() == RwMode::Write {
            Some((self.0 >> OWNER_SHIFT) as usize)
        } else {
            None
        }
    }

    /// Whether `tasklet` holds the lock in write mode.
    pub(crate) fn is_write_locked_by(self, tasklet: usize) -> bool {
        self.writer() == Some(tasklet)
    }

    /// Whether `tasklet` holds the lock in read mode.
    pub fn has_reader(self, tasklet: usize) -> bool {
        assert!(tasklet < MAX_TASKLETS, "tasklet id {tasklet} out of range");
        self.mode() == RwMode::Read && (self.0 >> (READER_FLAGS_SHIFT + tasklet as u32)) & 1 == 1
    }

    /// Number of tasklets currently holding the lock in read mode.
    pub fn reader_count(self) -> u32 {
        if self.mode() == RwMode::Read {
            ((self.0 >> READER_FLAGS_SHIFT) & ((1 << MAX_TASKLETS) - 1)).count_ones()
        } else {
            0
        }
    }

    /// Whether `tasklet` is the one and only reader (the condition under
    /// which a read lock may be upgraded to a write lock).
    pub(crate) fn sole_reader_is(self, tasklet: usize) -> bool {
        self.reader_count() == 1 && self.has_reader(tasklet)
    }

    /// Returns the word with `tasklet` added as a reader.
    ///
    /// # Panics
    ///
    /// Panics if the word is write-locked.
    pub fn with_reader(self, tasklet: usize) -> Self {
        assert!(tasklet < MAX_TASKLETS, "tasklet id {tasklet} out of range");
        assert!(self.mode() != RwMode::Write, "cannot add a reader to a write-locked word");
        let flags = self.0 & !MODE_MASK;
        RwLockWord(MODE_READ | flags | (1 << (READER_FLAGS_SHIFT + tasklet as u32)))
    }

    /// Returns the word with `tasklet` removed from the reader set (the word
    /// becomes free when the last reader leaves). Removing a tasklet that is
    /// not a reader returns the word unchanged.
    pub fn without_reader(self, tasklet: usize) -> Self {
        if !self.has_reader(tasklet) {
            return self;
        }
        let cleared = self.0 & !(1 << (READER_FLAGS_SHIFT + tasklet as u32));
        if RwLockWord(cleared).reader_count() == 0 {
            RwLockWord::free()
        } else {
            RwLockWord(cleared)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_word_has_no_holders() {
        let w = RwLockWord::free();
        assert!(w.is_free());
        assert_eq!(w.reader_count(), 0);
        assert_eq!(w.writer(), None);
        assert_eq!(RwLockWord::from_raw(0), w, "a zeroed table entry must mean `free`");
    }

    #[test]
    fn readers_can_be_added_and_removed() {
        let w = RwLockWord::free().with_reader(3).with_reader(7).with_reader(23);
        assert_eq!(w.mode(), RwMode::Read);
        assert_eq!(w.reader_count(), 3);
        assert!(w.has_reader(3) && w.has_reader(7) && w.has_reader(23));
        assert!(!w.has_reader(4));
        assert!(!w.sole_reader_is(3));

        let w = w.without_reader(7);
        assert_eq!(w.reader_count(), 2);
        let w = w.without_reader(3);
        assert!(w.sole_reader_is(23));
        let w = w.without_reader(23);
        assert!(w.is_free());
    }

    #[test]
    fn adding_the_same_reader_twice_is_idempotent() {
        let w = RwLockWord::free().with_reader(5).with_reader(5);
        assert_eq!(w.reader_count(), 1);
        assert!(w.sole_reader_is(5));
    }

    #[test]
    fn removing_a_non_reader_is_a_no_op() {
        let w = RwLockWord::free().with_reader(1);
        assert_eq!(w.without_reader(9), w);
        assert_eq!(RwLockWord::free().without_reader(0), RwLockWord::free());
    }

    #[test]
    fn write_lock_encodes_owner() {
        for t in 0..MAX_TASKLETS {
            let w = RwLockWord::write_locked_by(t);
            assert_eq!(w.mode(), RwMode::Write);
            assert_eq!(w.writer(), Some(t));
            assert!(w.is_write_locked_by(t));
            assert_eq!(w.reader_count(), 0);
            assert!(!w.has_reader(t));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_tasklet_id_panics() {
        let _ = RwLockWord::write_locked_by(MAX_TASKLETS);
    }

    #[test]
    #[should_panic(expected = "write-locked")]
    fn adding_reader_to_write_locked_word_panics() {
        let _ = RwLockWord::write_locked_by(0).with_reader(1);
    }
}
