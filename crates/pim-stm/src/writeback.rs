//! Commit-time redo-log publication, shared by every write-back design.
//!
//! Tiny (WB variants), VR (WB variants) and NOrec all end a successful
//! commit the same way: copy the redo log into data memory. This module owns
//! that loop so the write-back *strategy* is decided in one place:
//!
//! * [`WriteBackStrategy::WordWise`] stores entry by entry, paying one MRAM
//!   DMA setup per written word — the original PIM-STM behaviour, kept as
//!   the comparison baseline;
//! * [`WriteBackStrategy::Coalesced`] stages the log (the entry loads are
//!   the same metadata traffic the word-wise loop pays), sorts it by address
//!   — pipeline instructions, charged via [`Platform::compute`] — and then
//!   publishes each maximal run of consecutive same-tier addresses as **one**
//!   [`Platform::store_block`] burst, amortising the DMA setup exactly like
//!   the paper's (and SimplePIM's) bulk-transfer guidance prescribes. Runs
//!   longer than the configured staging buffer
//!   ([`crate::StmKnobs::max_burst_words`], default
//!   [`crate::config::DEFAULT_BURST_WORDS`]) are split into bounded bursts,
//!   so WRAM staging pressure is A/B-testable per run.
//!
//! Both strategies write byte-identical memory contents: the redo log holds
//! at most one entry per address (the algorithms merge repeated writes), and
//! the locks protecting the written range — ORecs, rw-locks or NOrec's
//! sequence lock — are held for the whole publication, so ordering within it
//! is unobservable.

use pim_sim::Addr;

use crate::config::{StmConfig, WriteBackStrategy};
use crate::platform::{encode_addr, Platform};
use crate::txslot::TxSlot;

/// Instructions charged per element of the address sort (a WRAM-resident
/// insertion/merge hybrid costs a handful of instructions per comparison).
const SORT_INSTRUCTIONS_PER_ELEMENT: u64 = 4;

/// Publishes the redo log of `tx` to data memory using the strategy and
/// burst cap recorded in `config`.
///
/// Caller contract: the transaction is committing, every lock covering the
/// written addresses is held (or, for NOrec, the sequence lock is odd), and
/// the log holds at most one entry per address.
pub(crate) fn publish_redo_log(tx: &mut TxSlot, p: &mut dyn Platform, config: &StmConfig) {
    let len = tx.write_set_len();
    match config.knobs.write_back {
        WriteBackStrategy::WordWise => {
            for i in 0..len {
                let entry = tx.write_entry(p, i);
                p.store(entry.addr, entry.value);
            }
        }
        WriteBackStrategy::Coalesced => {
            if len <= 1 {
                // Nothing to merge; skip the staging pass.
                for i in 0..len {
                    let entry = tx.write_entry(p, i);
                    p.store(entry.addr, entry.value);
                }
                return;
            }
            // Stage the log. Loading each entry costs the same metadata
            // traffic the word-wise loop pays; the descriptor's scratch
            // buffers stand in for the tasklet's WRAM staging buffer and
            // are taken out for the call so the log can be read meanwhile.
            let mut scratch = std::mem::take(&mut tx.scratch);
            scratch.staged.clear();
            scratch.staged.extend((0..len).map(|i| {
                let entry = tx.write_entry(p, i);
                (encode_addr(entry.addr), entry.value)
            }));
            // Sort by encoded address: the tier bit sits above the word
            // index, so entries group by tier and ascend within a tier.
            scratch.staged.sort_unstable_by_key(|&(addr, _)| addr);
            p.compute(SORT_INSTRUCTIONS_PER_ELEMENT * u64::from(len));
            let cap = config.knobs.max_burst_words as usize;
            flush_runs(p, &scratch.staged, &mut scratch.burst, cap);
            tx.scratch = scratch;
        }
    }
}

/// Emits the sorted `(encoded address, value)` pairs as maximal contiguous
/// bursts of at most `max_burst_words` words each, assembling each burst in
/// `burst`.
fn flush_runs(
    p: &mut dyn Platform,
    staged: &[(u64, u64)],
    burst: &mut Vec<u64>,
    max_burst_words: usize,
) {
    burst.clear();
    let mut run_start = 0u64;
    for &(addr, value) in staged {
        let extends = !burst.is_empty()
            && addr == run_start + burst.len() as u64
            && burst.len() < max_burst_words;
        if !extends {
            flush_one(p, run_start, burst);
            burst.clear();
            run_start = addr;
        }
        burst.push(value);
    }
    flush_one(p, run_start, burst);
}

fn flush_one(p: &mut dyn Platform, run_start: u64, values: &[u64]) {
    match values {
        [] => {}
        // A single word needs no burst setup amortisation; a plain store is
        // what the hardware would issue.
        [value] => p.store(decode_run_addr(run_start), *value),
        _ => p.store_block(decode_run_addr(run_start), values),
    }
}

fn decode_run_addr(encoded: u64) -> Addr {
    crate::platform::decode_addr(encoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{StmConfig, StmKind, StmKnobs, DEFAULT_BURST_WORDS};
    use crate::shared::StmShared;
    use pim_sim::{Dpu, DpuConfig, TaskletCtx, TaskletStats, Tier};

    /// Pushes `addrs` (word offsets into an MRAM region) with distinct
    /// values into a fresh write set and publishes it with `strategy` under
    /// `burst_cap`, returning the DMA setup count of the publish phase alone
    /// and the final contents of the region.
    fn publish_capped(
        addrs: &[u32],
        strategy: WriteBackStrategy,
        burst_cap: u32,
    ) -> (u64, Vec<u64>) {
        let mut dpu = Dpu::new(DpuConfig::small());
        let cfg = StmConfig::small_wram(StmKind::Norec)
            .with_write_set_capacity(addrs.len().max(1) as u32)
            .with_knobs(StmKnobs {
                write_back: strategy,
                max_burst_words: burst_cap,
                ..StmKnobs::default()
            });
        let shared = StmShared::allocate(&mut dpu, cfg).unwrap();
        let mut slot = shared.register_tasklet(&mut dpu, 0).unwrap();
        let region = dpu.alloc(Tier::Mram, 256).unwrap();
        let mut stats = TaskletStats::new();
        let setups = {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            for (i, &offset) in addrs.iter().enumerate() {
                slot.push_write(&mut ctx, region.offset(offset), 100 + i as u64, 0, false);
            }
            let before = ctx.stats().mram_dma_setups;
            publish_redo_log(&mut slot, &mut ctx, &cfg);
            ctx.stats().mram_dma_setups - before
        };
        (setups, dpu.peek_block(region, 256))
    }

    fn publish(addrs: &[u32], strategy: WriteBackStrategy) -> (u64, Vec<u64>) {
        publish_capped(addrs, strategy, DEFAULT_BURST_WORDS)
    }

    #[test]
    fn contiguous_runs_collapse_into_one_burst() {
        let (word_setups, word_mem) = publish(&[3, 4, 5, 6], WriteBackStrategy::WordWise);
        let (burst_setups, burst_mem) = publish(&[3, 4, 5, 6], WriteBackStrategy::Coalesced);
        assert_eq!(word_setups, 4);
        assert_eq!(burst_setups, 1, "one contiguous run must cost one DMA setup");
        assert_eq!(word_mem, burst_mem);
    }

    #[test]
    fn unsorted_logs_still_coalesce_after_the_address_sort() {
        let (setups, mem) = publish(&[9, 2, 8, 1, 3, 10], WriteBackStrategy::Coalesced);
        // Sorted: [1,2,3] and [8,9,10] — two bursts.
        assert_eq!(setups, 2);
        assert_eq!(mem[1], 103);
        assert_eq!(mem[2], 101);
        assert_eq!(mem[3], 104);
        assert_eq!(mem[8], 102);
        assert_eq!(mem[9], 100);
        assert_eq!(mem[10], 105);
    }

    #[test]
    fn scattered_entries_degrade_to_word_wise_cost() {
        let (setups, _) = publish(&[0, 10, 20, 30], WriteBackStrategy::Coalesced);
        assert_eq!(setups, 4, "no contiguity, no savings — but no extra setups either");
    }

    #[test]
    fn empty_and_singleton_logs_take_the_fast_path() {
        let (setups, _) = publish(&[], WriteBackStrategy::Coalesced);
        assert_eq!(setups, 0);
        let (setups, mem) = publish(&[7], WriteBackStrategy::Coalesced);
        assert_eq!(setups, 1);
        assert_eq!(mem[7], 100);
    }

    #[test]
    fn runs_longer_than_the_staging_buffer_are_split_not_dropped() {
        let addrs: Vec<u32> = (0..(DEFAULT_BURST_WORDS + 10)).collect();
        let (setups, mem) = publish(&addrs, WriteBackStrategy::Coalesced);
        assert_eq!(setups, 2, "a 74-word run must split into two bounded bursts");
        for (i, _) in addrs.iter().enumerate() {
            assert_eq!(mem[i], 100 + i as u64, "word {i}");
        }
    }

    #[test]
    fn the_burst_cap_is_a_config_knob() {
        let addrs: Vec<u32> = (0..32).collect();
        // A tighter staging buffer splits the same run into more bursts...
        let (tight, tight_mem) = publish_capped(&addrs, WriteBackStrategy::Coalesced, 8);
        assert_eq!(tight, 4, "32 contiguous words under an 8-word cap = 4 bursts");
        // ...a roomier one leaves a single burst — same bytes either way.
        let (roomy, roomy_mem) = publish_capped(&addrs, WriteBackStrategy::Coalesced, 64);
        assert_eq!(roomy, 1);
        assert_eq!(tight_mem, roomy_mem);
    }

    #[test]
    fn a_one_word_cap_degenerates_to_word_wise() {
        let addrs: Vec<u32> = (0..5).collect();
        let (setups, mem) = publish_capped(&addrs, WriteBackStrategy::Coalesced, 1);
        assert_eq!(setups, 5);
        for (i, word) in mem.iter().take(5).enumerate() {
            assert_eq!(*word, 100 + i as u64);
        }
    }
}
