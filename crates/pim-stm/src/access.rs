//! The shared record-access layer: one batched-read driver for every STM
//! design, with the per-design *metadata protocol* factored into small hooks.
//!
//! # Why this layer exists
//!
//! On UPMEM hardware the dominant cost of a multi-word read is not the words
//! themselves but the **per-transfer DMA setup**: reading an `n`-word record
//! word by word pays `n` setups, while one `load_block` burst pays a single
//! setup plus streaming (the same asymmetry the commit-time write-back
//! exploits in [`crate::writeback`]). NOrec has bracketed its record reads
//! with the sequence lock since PR 1; the ORec families (Tiny, VR) kept the
//! sound word-wise default because each word's ownership record must be
//! checked anyway. This module closes that gap: the *data* still moves as
//! one burst per contiguous run, and the *per-word metadata protocol* runs
//! against the already-staged words.
//!
//! # The metadata-hook contract
//!
//! A design implements [`RecordReader`]; the driver
//! ([`read_record_batched`]) then executes a record read in four stages:
//!
//! 1. **Plan** — [`RecordReader::plan_word`] runs once per word, *before*
//!    any data moves. It may serve the word from transaction-local state
//!    (redo log, own lock — [`WordPlan::Ready`]), abort on a conflict, or
//!    sample the word's metadata and request the burst
//!    ([`WordPlan::Burst`] with an opaque `token` to re-check later).
//! 2. **Burst** — the burst words move as [`Platform::load_block`]
//!    transfers, split at [`crate::StmKnobs::max_burst_words`] (the WRAM
//!    staging budget) so no physically impossible transfer is modelled. Spans
//!    bridge interior locally-served words — streaming a word and
//!    discarding it is cheaper than a second DMA setup — so a record
//!    overlapping the transaction's own writes still costs one transfer
//!    where it fits the cap. [`RecordReader::before_burst`] /
//!    [`RecordReader::burst_stable`] bracket the whole pass for designs
//!    whose validity is record-level (NOrec's sequence lock): an unstable
//!    pass is re-issued until it lands on a quiescent snapshot.
//! 3. **Accept** — [`RecordReader::accept_word`] re-checks each burst
//!    word's metadata against its plan `token` and performs the read-set
//!    bookkeeping. Metadata that moved under the burst does **not** abort
//!    the transaction:
//! 4. **Fall back** — the word is re-read through
//!    [`RecordReader::reread_word`], the design's full word-wise protocol,
//!    which re-validates, extends snapshots or aborts exactly as a plain
//!    [`crate::ComposedTm::read`] would.
//!
//! The bracket per word is therefore *metadata sample → data load →
//! metadata re-check* — the same structure the word-wise protocols already
//! use, just with the data load amortised across the record. A hook may
//! abort at any stage; the implementor must roll back its side effects
//! (release locks, restore ORecs) before returning the [`Abort`], exactly
//! as the word-wise operations do.
//!
//! # When a batched read must fall back or re-validate
//!
//! * **Tiny** (invisible reads): `plan_word` samples the ORec (aborting on
//!   a foreign lock and extending the snapshot when it sees a newer
//!   version); `accept_word` re-loads the ORec and accepts only if it is
//!   bit-identical to the sample — any concurrent lock or commit in the
//!   window falls back to the word-wise read.
//! * **VR** (visible reads): `plan_word` acquires the read lock, which
//!   *prevents* concurrent writers for the rest of the transaction, so the
//!   staged words are stable by construction and `accept_word` never needs
//!   to re-check.
//! * **NOrec** (no per-word metadata): `plan_word` only probes the redo
//!   log; `before_burst`/`burst_stable` bracket the burst with the global
//!   sequence lock and re-validate by value (re-issuing the burst) whenever
//!   a commit overlapped it.
//!
//! The strategy is selected per run via [`crate::StmKnobs::read_strategy`]
//! ([`crate::ReadStrategy`]), mirroring the write-side
//! [`crate::WriteBackStrategy`] knob, so batched and word-wise reads are
//! A/B-testable on byte-identical workloads.

use pim_sim::{Addr, Phase};

use crate::config::WritePolicy;
use crate::error::Abort;
use crate::platform::Platform;
use crate::shared::StmShared;
use crate::txslot::TxSlot;

/// Value of a word whose lock/ORec the transaction already holds: under
/// write-back the redo log's latest value — or memory, if the lock is ours
/// only through hash aliasing with another address — and under
/// write-through memory itself, which was updated in place. One shared
/// resolution for the word-wise reads *and* the batched plans of both ORec
/// families, so the paths can never diverge on read-after-write semantics.
pub(crate) fn owned_value(
    policy: WritePolicy,
    tx: &mut TxSlot,
    p: &mut dyn Platform,
    addr: Addr,
) -> u64 {
    match policy {
        WritePolicy::WriteBack => match tx.find_write(p, addr) {
            Some((_, value)) => value,
            None => p.load(addr),
        },
        WritePolicy::WriteThrough => p.load(addr),
    }
}

/// Outcome of planning one word of a record read (pre-burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordPlan {
    /// The word was served from transaction-local state (redo log, own
    /// write lock); it takes no part in the data burst.
    Ready(u64),
    /// The word needs the data burst; `token` is the metadata sample
    /// [`RecordReader::accept_word`] re-checks afterwards.
    Burst {
        /// Opaque metadata sample (e.g. the raw ORec word) captured before
        /// the burst.
        token: u64,
    },
}

/// Outcome of re-checking one staged word's metadata (post-burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordCheck {
    /// The metadata is unchanged: the staged value is consistent and has
    /// been recorded in the read set by the hook.
    Accept,
    /// The metadata moved while the burst was in flight: the driver re-runs
    /// the word through [`RecordReader::reread_word`].
    Reread,
}

/// The per-design metadata protocol of a batched record read.
///
/// See the [module documentation](self) for the full contract; every hook
/// that returns [`Abort`] must have rolled back its side effects first.
pub trait RecordReader {
    /// Plans one word before the burst: serve it locally, sample its
    /// metadata, or abort on a conflict.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with side effects rolled back.
    fn plan_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
    ) -> Result<WordPlan, Abort>;

    /// Record-level hook before (each attempt of) the burst pass. NOrec
    /// catches up with concurrent commits here; ORec designs need nothing.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the transaction can no longer be made
    /// consistent, with side effects rolled back.
    fn before_burst(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<(), Abort> {
        let _ = (shared, tx, p);
        Ok(())
    }

    /// Record-level hook after a burst pass: `false` re-issues the whole
    /// pass (NOrec's sequence lock moved), `true` proceeds to per-word
    /// acceptance.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] as [`RecordReader::before_burst`] does.
    fn burst_stable(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
    ) -> Result<bool, Abort> {
        let _ = (shared, tx, p);
        Ok(true)
    }

    /// Re-checks one staged word against its plan `token` and, on
    /// acceptance, performs the read-set bookkeeping for it.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with side effects rolled back.
    fn accept_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
        value: u64,
        token: u64,
    ) -> Result<WordCheck, Abort>;

    /// The design's full single-word read protocol: each word of the
    /// word-wise baseline ([`read_record_word_wise`]), and the sound
    /// fallback for a word whose acceptance check failed.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflict, with side effects rolled back.
    fn reread_word(
        &self,
        shared: &StmShared,
        tx: &mut TxSlot,
        p: &mut dyn Platform,
        addr: Addr,
    ) -> Result<u64, Abort>;
}

/// The word-wise record read every design supports: the full per-word read
/// protocol ([`RecordReader::reread_word`]), one data access per word. This
/// is the [`crate::ReadStrategy::WordWise`] baseline.
///
/// # Errors
///
/// Returns [`Abort`] on conflict, with side effects already rolled back by
/// the failing word's read.
pub fn read_record_word_wise(
    reader: &impl RecordReader,
    shared: &StmShared,
    tx: &mut TxSlot,
    p: &mut dyn Platform,
    addr: Addr,
    out: &mut [u64],
) -> Result<(), Abort> {
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = reader.reread_word(shared, tx, p, addr.offset(i as u32))?;
    }
    Ok(())
}

/// Reads `out.len()` consecutive words through `reader`'s metadata protocol
/// with the data moved as DMA bursts: one [`Platform::load_block`] per span
/// of burst words (bridging interior locally-served words), split at
/// [`crate::StmKnobs::max_burst_words`].
///
/// # Errors
///
/// Returns [`Abort`] when any hook reports an unresolvable conflict; the
/// hook has already rolled back its side effects.
pub fn read_record_batched(
    reader: &impl RecordReader,
    shared: &StmShared,
    tx: &mut TxSlot,
    p: &mut dyn Platform,
    addr: Addr,
    out: &mut [u64],
) -> Result<(), Abort> {
    if out.is_empty() {
        return Ok(());
    }
    p.set_phase(Phase::Reading);

    // Plan: serve redo-log / own-lock words locally, sample metadata for the
    // rest. The plan itself is WRAM/pipeline state (indices and tokens) —
    // typed-facade records fit the stack buffer, so only oversized raw
    // records pay a heap allocation; the metadata loads the plan issues are
    // the same traffic the word-wise loop pays.
    let mut stack_plans = [WordPlan::Ready(0); crate::var::MAX_RECORD_WORDS];
    let mut heap_plans: Vec<WordPlan>;
    let plans: &mut [WordPlan] = if out.len() <= stack_plans.len() {
        &mut stack_plans[..out.len()]
    } else {
        heap_plans = vec![WordPlan::Ready(0); out.len()];
        &mut heap_plans
    };
    let mut burst_words = 0usize;
    for (i, slot) in out.iter_mut().enumerate() {
        let plan = match reader.plan_word(shared, tx, p, addr.offset(i as u32)) {
            Ok(plan) => plan,
            Err(abort) => {
                p.set_phase(Phase::OtherExec);
                return Err(abort);
            }
        };
        if let WordPlan::Ready(value) = plan {
            *slot = value;
        } else {
            burst_words += 1;
        }
        plans[i] = plan;
    }
    if burst_words == 0 {
        // Fully served locally: no memory traffic, nothing to validate.
        p.set_phase(Phase::OtherExec);
        return Ok(());
    }

    // Burst: move the burst words as DMA transfers bounded by the
    // staging-buffer cap. Spans *bridge* interior `Ready` words — loading a
    // locally-served word's memory cell and discarding it costs streaming
    // words but saves a whole transfer setup, exactly what NOrec's original
    // whole-record burst did — so each span runs from one burst word to the
    // last burst word within the cap. A scratch buffer keeps the served
    // values in `out` intact. Re-issue the whole pass until the
    // record-level bracket reports a quiescent snapshot.
    let max_burst = shared.config().knobs.max_burst_words.max(1) as usize;
    let mut stack_scratch = [0u64; crate::var::MAX_RECORD_WORDS];
    let mut heap_scratch: Vec<u64>;
    let scratch: &mut [u64] = if max_burst.min(out.len()) <= stack_scratch.len() {
        &mut stack_scratch[..]
    } else {
        heap_scratch = vec![0; max_burst.min(out.len())];
        &mut heap_scratch
    };
    loop {
        if let Err(abort) = reader.before_burst(shared, tx, p) {
            p.set_phase(Phase::OtherExec);
            return Err(abort);
        }
        let mut next = 0;
        while let Some(start) =
            (next..plans.len()).find(|&i| matches!(plans[i], WordPlan::Burst { .. }))
        {
            // The span ends at the last burst word reachable under the cap.
            let limit = plans.len().min(start + max_burst);
            let end = (start..limit)
                .rev()
                .find(|&i| matches!(plans[i], WordPlan::Burst { .. }))
                .expect("span starts at a burst word");
            let span = &mut scratch[..end - start + 1];
            p.load_block(addr.offset(start as u32), span);
            for i in start..=end {
                if matches!(plans[i], WordPlan::Burst { .. }) {
                    out[i] = span[i - start];
                }
            }
            next = end + 1;
        }
        match reader.burst_stable(shared, tx, p) {
            Ok(true) => break,
            Ok(false) => continue,
            Err(abort) => {
                p.set_phase(Phase::OtherExec);
                return Err(abort);
            }
        }
    }

    // Accept: re-check each staged word's metadata against its plan token;
    // words whose metadata moved under the burst fall back to the design's
    // word-wise read.
    for (i, plan) in plans.iter().enumerate() {
        let WordPlan::Burst { token } = *plan else { continue };
        let word_addr = addr.offset(i as u32);
        let outcome = reader.accept_word(shared, tx, p, word_addr, out[i], token).and_then(
            |check| match check {
                WordCheck::Accept => Ok(()),
                WordCheck::Reread => {
                    out[i] = reader.reread_word(shared, tx, p, word_addr)?;
                    // The word-wise read ends in OtherExec; the remaining
                    // acceptance checks are still read-phase work.
                    p.set_phase(Phase::Reading);
                    Ok(())
                }
            },
        );
        if let Err(abort) = outcome {
            p.set_phase(Phase::OtherExec);
            return Err(abort);
        }
    }
    p.set_phase(Phase::OtherExec);
    Ok(())
}

/// Dispatches a design's `read_record` according to the configured
/// [`crate::ReadStrategy`]: the word-wise baseline or the batched driver
/// over the design's [`RecordReader`] hooks.
///
/// # Errors
///
/// Returns [`Abort`] on conflict, as the selected path does.
pub fn read_record_with(
    reader: &impl RecordReader,
    shared: &StmShared,
    tx: &mut TxSlot,
    p: &mut dyn Platform,
    addr: Addr,
    out: &mut [u64],
) -> Result<(), Abort> {
    match shared.config().knobs.read_strategy {
        crate::config::ReadStrategy::WordWise => {
            read_record_word_wise(reader, shared, tx, p, addr, out)
        }
        crate::config::ReadStrategy::Batched => {
            read_record_batched(reader, shared, tx, p, addr, out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ReadStrategy, StmConfig, StmKind, StmKnobs};
    use crate::engine::TxEngine;
    use crate::error::AbortReason;
    use pim_sim::{Dpu, DpuConfig, TaskletCtx, TaskletStats, Tier};

    struct Fixture {
        dpu: Dpu,
        engines: Vec<TxEngine>,
        data: Addr,
    }

    fn fixture_with(knobs: StmKnobs, kind: StmKind, tasklets: usize) -> Fixture {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::small_wram(kind).with_knobs(knobs);
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        let engines = (0..tasklets)
            .map(|t| {
                let slot = shared.register_tasklet(&mut dpu, t).unwrap();
                TxEngine::for_shared(shared.clone(), slot)
            })
            .collect();
        let data = dpu.alloc(Tier::Mram, 64).unwrap();
        Fixture { dpu, engines, data }
    }

    fn fixture(kind: StmKind, strategy: ReadStrategy, tasklets: usize) -> Fixture {
        fixture_with(StmKnobs { read_strategy: strategy, ..StmKnobs::default() }, kind, tasklets)
    }

    /// Batched and word-wise record reads observe the same committed values
    /// for every design, including read-after-write overlays.
    #[test]
    fn strategies_agree_on_committed_and_buffered_values() {
        for kind in StmKind::ALL {
            for strategy in ReadStrategy::ALL {
                let mut fx = fixture(kind, strategy, 1);
                for i in 0..16 {
                    fx.dpu.poke(fx.data.offset(i), 100 + u64::from(i));
                }
                let mut stats = TaskletStats::new();
                let mut ctx = TaskletCtx::new(&mut fx.dpu, &mut stats, 0, 1, 0);
                let engine = &mut fx.engines[0];
                engine.begin(&mut ctx);
                // Overwrite two words mid-record so the plan must mix
                // redo-log (or own-lock) service with burst words.
                engine.write(&mut ctx, fx.data.offset(3), 999).unwrap();
                engine.write(&mut ctx, fx.data.offset(7), 888).unwrap();
                let mut out = [0u64; 16];
                engine.read_record(&mut ctx, fx.data, &mut out).unwrap();
                for (i, &value) in out.iter().enumerate() {
                    let expected = match i {
                        3 => 999,
                        7 => 888,
                        _ => 100 + i as u64,
                    };
                    assert_eq!(value, expected, "{kind} ({strategy:?}) word {i}");
                }
                engine.commit(&mut ctx).unwrap();
            }
        }
    }

    /// Batched ORec reads pay one data DMA setup per run instead of one per
    /// word (metadata traffic is identical, so the delta is data setups).
    #[test]
    fn batched_reads_charge_fewer_dma_setups_for_orec_designs() {
        for kind in [StmKind::TinyEtlWb, StmKind::TinyCtlWb, StmKind::VrEtlWb, StmKind::VrCtlWb] {
            let mut setups = Vec::new();
            for strategy in ReadStrategy::ALL {
                let mut fx = fixture(kind, strategy, 1);
                let mut stats = TaskletStats::new();
                let mut ctx = TaskletCtx::new(&mut fx.dpu, &mut stats, 0, 1, 0);
                let engine = &mut fx.engines[0];
                engine.begin(&mut ctx);
                let mut out = [0u64; 32];
                engine.read_record(&mut ctx, fx.data, &mut out).unwrap();
                engine.commit(&mut ctx).unwrap();
                setups.push(ctx.stats().mram_dma_setups);
            }
            assert!(
                setups[1] < setups[0],
                "{kind}: batched ({}) must beat word-wise ({}) on DMA setups",
                setups[1],
                setups[0]
            );
        }
    }

    /// A record overlapping the transaction's own buffered writes still
    /// moves as one transfer: spans bridge the locally-served words instead
    /// of splitting around them (the cost model NOrec's original
    /// whole-record burst established).
    #[test]
    fn spans_bridge_words_served_from_the_redo_log() {
        for kind in [StmKind::Norec, StmKind::TinyCtlWb, StmKind::VrCtlWb] {
            let mut fx = fixture(kind, ReadStrategy::Batched, 1);
            let mut stats = TaskletStats::new();
            let mut ctx = TaskletCtx::new(&mut fx.dpu, &mut stats, 0, 1, 0);
            let engine = &mut fx.engines[0];
            engine.begin(&mut ctx);
            // CTL designs buffer this write without locking, so the record
            // read plans word 5 as Ready in the middle of a burst span.
            engine.write(&mut ctx, fx.data.offset(5), 42).unwrap();
            let before = ctx.stats().mram_dma_setups;
            let mut out = [0u64; 16];
            engine.read_record(&mut ctx, fx.data, &mut out).unwrap();
            assert_eq!(
                ctx.stats().mram_dma_setups - before,
                1,
                "{kind}: one bridged span, one DMA setup (metadata is WRAM here)"
            );
            assert_eq!(out[5], 42, "{kind}: the redo-log value survives the bridge");
            engine.commit(&mut ctx).unwrap();
        }
    }

    /// The burst cap splits long records into bounded transfers.
    #[test]
    fn burst_cap_splits_long_records() {
        let knobs = StmKnobs {
            read_strategy: ReadStrategy::Batched,
            max_burst_words: 8,
            ..StmKnobs::default()
        };
        let mut fx = fixture_with(knobs, StmKind::VrEtlWb, 1);
        let mut stats = TaskletStats::new();
        let mut ctx = TaskletCtx::new(&mut fx.dpu, &mut stats, 0, 1, 0);
        let engine = &mut fx.engines[0];
        engine.begin(&mut ctx);
        let mut out = [0u64; 32];
        let before = ctx.stats().mram_dma_setups;
        engine.read_record(&mut ctx, fx.data, &mut out).unwrap();
        // 32 contiguous burst words under an 8-word cap = 4 data transfers
        // (metadata lives in WRAM here, so the delta is data setups only).
        assert_eq!(ctx.stats().mram_dma_setups - before, 4);
    }

    /// A foreign lock encountered while planning aborts exactly like the
    /// word-wise read would.
    #[test]
    fn plan_conflicts_abort_with_the_word_wise_reason() {
        for kind in [StmKind::TinyEtlWb, StmKind::VrEtlWt] {
            let mut fx = fixture(kind, ReadStrategy::Batched, 2);
            let mut stats0 = TaskletStats::new();
            let mut stats1 = TaskletStats::new();
            let [reader, writer] = &mut fx.engines[..] else { unreachable!() };
            {
                let mut ctx = TaskletCtx::new(&mut fx.dpu, &mut stats1, 1, 2, 0);
                writer.begin(&mut ctx);
                writer.write(&mut ctx, fx.data.offset(5), 1).unwrap();
            }
            {
                let mut ctx = TaskletCtx::new(&mut fx.dpu, &mut stats0, 0, 2, 0);
                reader.begin(&mut ctx);
                let mut out = [0u64; 8];
                let err = reader.read_record(&mut ctx, fx.data, &mut out).unwrap_err();
                assert_eq!(err.reason, AbortReason::ReadConflict, "{kind}");
            }
        }
    }

    /// Tiny's acceptance check falls back when a concurrent commit slips
    /// between plan and burst: here the reader's snapshot is stale, so the
    /// re-read extends it and returns the committed value.
    #[test]
    fn tiny_accept_extends_past_concurrent_commits() {
        let mut fx = fixture(StmKind::TinyEtlWb, ReadStrategy::Batched, 2);
        let mut stats0 = TaskletStats::new();
        let mut stats1 = TaskletStats::new();
        let [reader, writer] = &mut fx.engines[..] else { unreachable!() };
        {
            let mut ctx = TaskletCtx::new(&mut fx.dpu, &mut stats0, 0, 2, 0);
            reader.begin(&mut ctx);
        }
        // T1 commits to a word of the record after T0's snapshot.
        {
            let mut ctx = TaskletCtx::new(&mut fx.dpu, &mut stats1, 1, 2, 0);
            writer.begin(&mut ctx);
            writer.write(&mut ctx, fx.data.offset(2), 77).unwrap();
            writer.commit(&mut ctx).unwrap();
        }
        // T0's record read sees version > snapshot at plan time, extends
        // (its read set is empty) and returns the committed value.
        {
            let mut ctx = TaskletCtx::new(&mut fx.dpu, &mut stats0, 0, 2, 0);
            let mut out = [0u64; 4];
            reader.read_record(&mut ctx, fx.data, &mut out).unwrap();
            assert_eq!(out, [0, 0, 77, 0]);
            reader.commit(&mut ctx).unwrap();
        }
    }

    /// Empty records are a no-op on every path.
    #[test]
    fn empty_records_read_nothing() {
        for strategy in ReadStrategy::ALL {
            let mut fx = fixture(StmKind::Norec, strategy, 1);
            let mut stats = TaskletStats::new();
            let mut ctx = TaskletCtx::new(&mut fx.dpu, &mut stats, 0, 1, 0);
            let engine = &mut fx.engines[0];
            engine.begin(&mut ctx);
            let mut out = [0u64; 0];
            engine.read_record(&mut ctx, fx.data, &mut out).unwrap();
            assert_eq!(engine.slot().read_set_len(), 0);
        }
    }
}
