//! Typed, executor-agnostic transactional variables: the [`TVar`]/[`TArray`]
//! facade over the word-based STM API.
//!
//! The PIM-STM algorithms (like the original C library) move raw 64-bit
//! words. This module puts a zero-cost typed layer on top:
//!
//! * [`TxWord`] — values that bit-pack into one word (`u64`, `i64`, `f64`,
//!   `bool`, `(u32, u32)`, …);
//! * [`TxRecord`] — fixed-size multi-word values (every [`TxWord`], plus
//!   small fixed arrays `[T; N]`), read and written as one MRAM DMA burst
//!   where the STM design allows it;
//! * [`TVar`] / [`TArray`] — typed handles to DPU memory locations;
//! * [`TxOps`] — the executor-agnostic operation set. A transaction body
//!   written against `TxOps` runs unchanged on the threaded executor
//!   ([`crate::threaded::ThreadedDpu`]) and on the cycle-accounted simulator
//!   (via [`crate::TxEngine`]), because both hand the body the same
//!   [`crate::engine::EngineOps`], the one `TxOps` implementor.
//!
//! # The `TxOps` contract
//!
//! * **Abort propagation** — every operation returns `Result<_, Abort>`;
//!   bodies must propagate with `?` so the retry loop can roll back and
//!   restart the attempt. Swallowing an [`Abort`] leaves the transaction in
//!   an undefined state.
//! * **No side effects in bodies** — a body may run many times before it
//!   commits; anything that escapes the transactional ops (I/O, mutating
//!   captured state) will be repeated on every retry.
//!
//! ```
//! use pim_stm::threaded::ThreadedDpu;
//! use pim_stm::{Abort, MetadataPlacement, StmConfig, StmKind, TArray, Tier, TxOps};
//!
//! // One generic body, usable on every executor.
//! fn transfer<O: TxOps>(tx: &mut O, accounts: TArray<u64>, from: u32, to: u32) -> Result<(), Abort> {
//!     let a = tx.get(accounts.at(from))?;
//!     let b = tx.get(accounts.at(to))?;
//!     tx.set(accounts.at(from), a - 10)?;
//!     tx.set(accounts.at(to), b + 10)?;
//!     Ok(())
//! }
//!
//! let config = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram);
//! let mut dpu = ThreadedDpu::new(config).expect("metadata fits");
//! let accounts: TArray<u64> = dpu.alloc_array(Tier::Mram, 2).expect("data fits");
//! dpu.poke_var(accounts.at(0), 5_000u64);
//! dpu.poke_var(accounts.at(1), 5_000u64);
//! dpu.run(2, |mut tasklet| {
//!     for _ in 0..100 {
//!         tasklet.transaction(|tx| transfer(tx, accounts, 0, 1));
//!     }
//! })
//! .expect("tasklet count is within the hardware limit");
//! assert_eq!(dpu.peek_var(accounts.at(0)) + dpu.peek_var(accounts.at(1)), 10_000);
//! ```

use std::marker::PhantomData;

use pim_sim::{Addr, AllocError, Dpu, Tier};

use crate::error::Abort;
use crate::shared::MetadataAllocator;

/// Upper bound on [`TxRecord::WORDS`] for values moved through the typed
/// facade (the facade stages records in fixed stack buffers; larger blobs
/// should be chunked by the application).
pub const MAX_RECORD_WORDS: usize = 32;

/// A value that bit-packs into a single 64-bit word.
///
/// `decode(encode(v))` must equal `v` for every representable `v` (for `f64`
/// the round-trip is exact at the bit level, so NaN payloads survive).
pub trait TxWord: Copy {
    /// Packs the value into a word.
    fn encode(self) -> u64;

    /// Unpacks a value previously produced by [`TxWord::encode`].
    fn decode(word: u64) -> Self;
}

impl TxWord for u64 {
    fn encode(self) -> u64 {
        self
    }

    fn decode(word: u64) -> Self {
        word
    }
}

impl TxWord for i64 {
    fn encode(self) -> u64 {
        self as u64
    }

    fn decode(word: u64) -> Self {
        word as i64
    }
}

impl TxWord for u32 {
    fn encode(self) -> u64 {
        u64::from(self)
    }

    fn decode(word: u64) -> Self {
        word as u32
    }
}

impl TxWord for i32 {
    fn encode(self) -> u64 {
        self as u32 as u64
    }

    fn decode(word: u64) -> Self {
        word as u32 as i32
    }
}

impl TxWord for bool {
    fn encode(self) -> u64 {
        u64::from(self)
    }

    fn decode(word: u64) -> Self {
        word != 0
    }
}

impl TxWord for f64 {
    fn encode(self) -> u64 {
        self.to_bits()
    }

    fn decode(word: u64) -> Self {
        f64::from_bits(word)
    }
}

/// Packed pair — the natural shape for (index, count) or (x, y) fields.
impl TxWord for (u32, u32) {
    fn encode(self) -> u64 {
        (u64::from(self.0) << 32) | u64::from(self.1)
    }

    fn decode(word: u64) -> Self {
        ((word >> 32) as u32, word as u32)
    }
}

/// A fixed-size value spanning one or more consecutive words.
///
/// Records are moved through [`TxOps::read_record`] /
/// [`TxOps::write_record`], which fetch all [`TxRecord::WORDS`] words in one
/// MRAM DMA burst on designs that support it (NOrec brackets the burst with
/// its sequence-lock validation; ORec designs fall back to word-wise reads
/// because each word's ownership record must be checked anyway).
pub trait TxRecord: Copy {
    /// Consecutive words this record occupies (at most
    /// [`MAX_RECORD_WORDS`]).
    const WORDS: usize;

    /// Packs the record into `out`, which holds exactly `Self::WORDS` words.
    fn encode_into(self, out: &mut [u64]);

    /// Unpacks a record from `words` (exactly `Self::WORDS` words).
    fn decode_from(words: &[u64]) -> Self;
}

/// Every single-word value is trivially a one-word record.
macro_rules! word_as_record {
    ($($ty:ty),+ $(,)?) => {$(
        impl TxRecord for $ty {
            const WORDS: usize = 1;

            fn encode_into(self, out: &mut [u64]) {
                out[0] = TxWord::encode(self);
            }

            fn decode_from(words: &[u64]) -> Self {
                TxWord::decode(words[0])
            }
        }
    )+};
}

word_as_record!(u64, i64, u32, i32, bool, f64, (u32, u32));

impl<T: TxWord, const N: usize> TxRecord for [T; N] {
    const WORDS: usize = N;

    fn encode_into(self, out: &mut [u64]) {
        for (slot, value) in out.iter_mut().zip(self) {
            *slot = value.encode();
        }
    }

    fn decode_from(words: &[u64]) -> Self {
        std::array::from_fn(|i| T::decode(words[i]))
    }
}

/// Typed handle to a transactional memory location holding one `T`.
///
/// A `TVar` is an address plus a phantom type — `Copy`, word-sized, and free
/// to pass around regardless of `T`.
pub struct TVar<T> {
    addr: Addr,
    _marker: PhantomData<fn() -> T>,
}

impl<T> TVar<T> {
    /// Wraps a raw address as a typed variable. The caller is responsible
    /// for the location actually holding (at least) [`TxRecord::WORDS`]
    /// words of `T`.
    pub fn new(addr: Addr) -> Self {
        TVar { addr, _marker: PhantomData }
    }

    /// The underlying word address.
    pub fn addr(self) -> Addr {
        self.addr
    }
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for TVar<T> {}

impl<T> std::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TVar<{}>({})", std::any::type_name::<T>(), self.addr)
    }
}

impl<T> PartialEq for TVar<T> {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}

impl<T> Eq for TVar<T> {}

/// Typed handle to a fixed-stride array of `T` records in transactional
/// memory.
pub struct TArray<T> {
    base: Addr,
    len: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T: TxRecord> TArray<T> {
    /// Wraps `len` consecutive records starting at `base`.
    pub fn new(base: Addr, len: u32) -> Self {
        TArray { base, len, _marker: PhantomData }
    }

    /// Number of elements.
    pub fn len(self) -> u32 {
        self.len
    }

    /// Whether the array holds no elements.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Words occupied per element.
    pub fn stride(self) -> u32 {
        T::WORDS as u32
    }

    /// Total words occupied by the array (saturating on overflow; the
    /// allocation helpers reject arrays whose word count exceeds `u32`).
    pub fn words(self) -> u32 {
        self.len.saturating_mul(self.stride())
    }

    /// Base address of the first element.
    pub fn addr(self) -> Addr {
        self.base
    }

    /// Typed handle to element `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()` or the element's address does not fit the
    /// 32-bit word address space.
    pub fn at(self, index: u32) -> TVar<T> {
        self.get(index).unwrap_or_else(|| {
            panic!("TArray index {index} out of bounds or unaddressable (len {})", self.len)
        })
    }

    /// Typed handle to element `index`, or `None` when out of bounds (or,
    /// for a hand-constructed array, when the element's address would
    /// overflow the 32-bit word address space).
    pub fn get(self, index: u32) -> Option<TVar<T>> {
        if index >= self.len {
            return None;
        }
        // 64-bit arithmetic: `index * stride` may exceed u32 for arrays built
        // with `TArray::new` (the alloc helpers bound words to u32).
        let word = u64::from(self.base.word) + u64::from(index) * u64::from(self.stride());
        let word = u32::try_from(word).ok()?;
        Some(TVar::new(Addr { tier: self.base.tier, word }))
    }
}

impl<T> Clone for TArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for TArray<T> {}

impl<T> std::fmt::Debug for TArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TArray<{}>({}; len {})", std::any::type_name::<T>(), self.base, self.len)
    }
}

/// The executor-agnostic transactional operation set.
///
/// Implemented by [`crate::engine::EngineOps`]: a [`crate::TxEngine`] with
/// a platform bound, handed to closure bodies by **both** executors and to
/// step-granular state machines between scheduler steps. See the
/// [module documentation](self) for the body contract.
pub trait TxOps {
    /// Transactional read of one raw word.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate it with `?`.
    fn read_word(&mut self, addr: Addr) -> Result<u64, Abort>;

    /// Transactional write of one raw word.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate it with `?`.
    fn write_word(&mut self, addr: Addr, value: u64) -> Result<(), Abort>;

    /// Transactional read of `out.len()` consecutive raw words.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate it with `?`.
    fn read_words(&mut self, addr: Addr, out: &mut [u64]) -> Result<(), Abort>;

    /// Transactional write of consecutive raw words.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate it with `?`.
    fn write_words(&mut self, addr: Addr, values: &[u64]) -> Result<(), Abort>;

    /// Models `instructions` instructions of non-memory work inside the
    /// body.
    fn compute(&mut self, instructions: u64);

    /// Identifier of the executing tasklet (0-based).
    fn tasklet_id(&self) -> usize;

    /// Cancels the current attempt at the application's request, rolling back
    /// exactly as an internally detected conflict would (releasing locks,
    /// undoing exposed write-through stores), and returns the [`Abort`] to
    /// propagate.
    ///
    /// Use this when the body observes *application-level* interference a
    /// committed value reveals — e.g. Labyrinth finding a path cell already
    /// claimed — and must restart with fresh inputs. The returned abort
    /// **must** be propagated immediately (`return Err(tx.cancel())`);
    /// issuing further operations after a cancel is undefined.
    fn cancel(&mut self) -> Abort;

    /// Non-transactional read of one word: no conflict detection, no
    /// read-set entry, no validation.
    ///
    /// Only sound for tasklet-private memory, or for racy snapshots whose
    /// every consumed cell is transactionally re-validated before the
    /// transaction commits (the STAMP Labyrinth pattern).
    fn raw_load(&mut self, addr: Addr) -> u64;

    /// Non-transactional write of one word (see [`TxOps::raw_load`] for when
    /// this is sound). Raw stores are **not** undone on abort.
    fn raw_store(&mut self, addr: Addr, value: u64);

    /// Non-transactional bulk copy (plain DMA, one burst per MRAM side on
    /// platforms with a DMA engine); the soundness caveats of
    /// [`TxOps::raw_load`] apply to the source and of [`TxOps::raw_store`] to
    /// the destination.
    fn raw_copy(&mut self, src: Addr, dst: Addr, words: u32);

    /// Typed read of a single-word variable.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate it with `?`.
    fn get<T: TxWord>(&mut self, var: TVar<T>) -> Result<T, Abort>
    where
        Self: Sized,
    {
        Ok(T::decode(self.read_word(var.addr())?))
    }

    /// Typed write of a single-word variable.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate it with `?`.
    fn set<T: TxWord>(&mut self, var: TVar<T>, value: T) -> Result<(), Abort>
    where
        Self: Sized,
    {
        self.write_word(var.addr(), value.encode())
    }

    /// Typed read of a multi-word record in one operation (one MRAM DMA
    /// burst where the design allows it).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate it with `?`.
    fn read_record<R: TxRecord>(&mut self, var: TVar<R>) -> Result<R, Abort>
    where
        Self: Sized,
    {
        let mut buffer = [0u64; MAX_RECORD_WORDS];
        let words = record_buffer::<R>(&mut buffer);
        self.read_words(var.addr(), words)?;
        Ok(R::decode_from(words))
    }

    /// Typed write of a multi-word record in one operation.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict; propagate it with `?`.
    fn write_record<R: TxRecord>(&mut self, var: TVar<R>, value: R) -> Result<(), Abort>
    where
        Self: Sized,
    {
        let mut buffer = [0u64; MAX_RECORD_WORDS];
        let words = record_buffer::<R>(&mut buffer);
        value.encode_into(words);
        self.write_words(var.addr(), words)
    }
}

/// Words needed for `len` records of `T` (zero for an empty array),
/// saturated to `u32::MAX` on overflow so the allocator rejects the request
/// with an ordinary [`AllocError`] instead of silently wrapping to an
/// undersized allocation.
pub(crate) fn array_words<T: TxRecord>(len: u32) -> u32 {
    let words = u64::from(len) * T::WORDS as u64;
    u32::try_from(words).unwrap_or(u32::MAX)
}

/// Slices the staging buffer to a record's word count, enforcing
/// [`MAX_RECORD_WORDS`].
pub(crate) fn record_buffer<R: TxRecord>(buffer: &mut [u64; MAX_RECORD_WORDS]) -> &mut [u64] {
    assert!(
        R::WORDS <= MAX_RECORD_WORDS,
        "record type {} spans {} words, more than the facade's limit of {MAX_RECORD_WORDS}; \
         chunk it into smaller records",
        std::any::type_name::<R>(),
        R::WORDS,
    );
    &mut buffer[..R::WORDS]
}

/// Allocates one zeroed typed variable in `tier` from any word allocator
/// (the simulator [`Dpu`] implements [`MetadataAllocator`]).
///
/// # Errors
///
/// Returns [`AllocError`] if the tier cannot hold the record.
pub fn alloc_var<T: TxRecord, A: MetadataAllocator + ?Sized>(
    alloc: &mut A,
    tier: Tier,
) -> Result<TVar<T>, AllocError> {
    Ok(TVar::new(alloc.alloc_words(tier, T::WORDS as u32)?))
}

/// Allocates a zeroed typed array of `len` records in `tier`.
///
/// # Errors
///
/// Returns [`AllocError`] if the tier cannot hold the array.
pub fn alloc_array<T: TxRecord, A: MetadataAllocator + ?Sized>(
    alloc: &mut A,
    tier: Tier,
    len: u32,
) -> Result<TArray<T>, AllocError> {
    Ok(TArray::new(alloc.alloc_words(tier, array_words::<T>(len))?, len))
}

/// Direct, non-transactional word access — the host-side peek/poke surface
/// of a DPU, used by the typed [`peek_var`]/[`poke_var`] helpers. Only safe
/// while no tasklets are running.
pub trait WordAccess {
    /// Reads one word outside any transaction.
    fn peek_word(&self, addr: Addr) -> u64;

    /// Writes one word outside any transaction.
    fn poke_word(&mut self, addr: Addr, value: u64);
}

impl WordAccess for Dpu {
    fn peek_word(&self, addr: Addr) -> u64 {
        self.peek(addr)
    }

    fn poke_word(&mut self, addr: Addr, value: u64) {
        self.poke(addr, value)
    }
}

/// Reads a typed variable directly from a DPU (simulator or threaded),
/// outside any transaction (host-side access; see [`Dpu::peek`]).
pub fn peek_var<T: TxRecord, M: WordAccess + ?Sized>(mem: &M, var: TVar<T>) -> T {
    let mut buffer = [0u64; MAX_RECORD_WORDS];
    let words = record_buffer::<T>(&mut buffer);
    for (i, slot) in words.iter_mut().enumerate() {
        *slot = mem.peek_word(var.addr().offset(i as u32));
    }
    T::decode_from(words)
}

/// Writes a typed variable directly to a DPU (simulator or threaded),
/// outside any transaction (host-side access; see [`Dpu::poke`]).
pub fn poke_var<T: TxRecord, M: WordAccess + ?Sized>(mem: &mut M, var: TVar<T>, value: T) {
    let mut buffer = [0u64; MAX_RECORD_WORDS];
    let words = record_buffer::<T>(&mut buffer);
    value.encode_into(words);
    for (i, word) in words.iter().enumerate() {
        mem.poke_word(var.addr().offset(i as u32), *word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_roundtrip_representative_values() {
        assert_eq!(u64::decode(u64::MAX.encode()), u64::MAX);
        assert_eq!(i64::decode((-7i64).encode()), -7);
        assert_eq!(u32::decode(0xdead_beefu32.encode()), 0xdead_beef);
        assert_eq!(i32::decode((-1i32).encode()), -1);
        assert!(bool::decode(true.encode()));
        assert!(!bool::decode(false.encode()));
        let f = -0.1f64;
        assert_eq!(f64::decode(f.encode()).to_bits(), f.to_bits());
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(f64::decode(nan.encode()).to_bits(), nan.to_bits());
        assert_eq!(<(u32, u32)>::decode((3u32, 4u32).encode()), (3, 4));
    }

    #[test]
    fn arrays_are_multiword_records() {
        let record = [1u64, 2, 3];
        let mut words = [0u64; 3];
        record.encode_into(&mut words);
        assert_eq!(words, [1, 2, 3]);
        assert_eq!(<[u64; 3]>::decode_from(&words), record);
        assert_eq!(<[u64; 3]>::WORDS, 3);
        assert_eq!(<[(u32, u32); 4]>::WORDS, 4);
    }

    #[test]
    fn tarray_indexing_respects_stride() {
        let base = Addr::mram(100);
        let pairs: TArray<[u64; 2]> = TArray::new(base, 5);
        assert_eq!(pairs.stride(), 2);
        assert_eq!(pairs.words(), 10);
        assert_eq!(pairs.at(0).addr(), base);
        assert_eq!(pairs.at(3).addr(), base.offset(6));
        assert!(pairs.get(5).is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn tarray_at_panics_out_of_bounds() {
        let arr: TArray<u64> = TArray::new(Addr::wram(0), 2);
        let _ = arr.at(2);
    }

    #[test]
    fn tarray_rejects_unaddressable_elements() {
        // A hand-constructed array whose far elements would overflow the
        // 32-bit word address space yields None instead of a wrapped,
        // aliasing address.
        let arr: TArray<[u64; 4]> = TArray::new(Addr::mram(16), u32::MAX);
        assert!(arr.get(0).is_some());
        assert!(arr.get(u32::MAX - 1).is_none(), "wrapped address must not be handed out");
    }

    #[test]
    fn zero_length_arrays_consume_no_words() {
        let mut dpu = Dpu::new(pim_sim::DpuConfig::small());
        let before: TVar<u64> = alloc_var(&mut dpu, Tier::Mram).unwrap();
        let arr: TArray<[u64; 32]> = alloc_array(&mut dpu, Tier::Mram, 0).unwrap();
        let after: TVar<u64> = alloc_var(&mut dpu, Tier::Mram).unwrap();
        // The bump allocator advanced only past `before`: the empty array
        // took nothing.
        assert_eq!(after.addr().word, before.addr().word + 1);
        assert!(arr.is_empty());
        assert!(arr.get(0).is_none());
    }

    #[test]
    fn oversized_array_allocations_are_rejected_not_wrapped() {
        // len * WORDS would wrap u32 (0x8000_0001 * 2); the saturated request
        // must fail with AllocError instead of succeeding undersized.
        let mut dpu = Dpu::new(pim_sim::DpuConfig::small());
        let result = alloc_array::<[u64; 2], _>(&mut dpu, Tier::Mram, 0x8000_0001);
        assert!(result.is_err(), "wrapping allocation must be rejected");
        // Sanity: a reasonable allocation still works.
        assert!(alloc_array::<[u64; 2], _>(&mut dpu, Tier::Mram, 8).is_ok());
    }

    #[test]
    fn typed_peek_poke_on_the_simulator() {
        let mut dpu = Dpu::new(pim_sim::DpuConfig::small());
        let var: TVar<[i64; 2]> = alloc_var(&mut dpu, Tier::Mram).unwrap();
        poke_var(&mut dpu, var, [-5, 9]);
        assert_eq!(peek_var(&dpu, var), [-5, 9]);
        let flag: TVar<bool> = alloc_var(&mut dpu, Tier::Wram).unwrap();
        poke_var(&mut dpu, flag, true);
        assert!(peek_var(&dpu, flag));
    }
}
