//! Commit-time write-back coalescing: correctness and cost.
//!
//! The redo-log publication shared by Tiny-WB, VR-WB and NOrec
//! (`pim_stm::writeback`) can merge contiguous write-set runs into single
//! `store_block` DMA bursts. These tests pin down the two properties the
//! optimisation must have:
//!
//! * **byte-identical memory** — for arbitrary write sets, the coalesced
//!   publish leaves exactly the contents the word-wise baseline leaves, on
//!   every write-back design;
//! * **strictly fewer DMA setups** — on ArrayBench-B (the paper's tiny
//!   highly-contended read-modify-write workload) the simulator's MRAM DMA
//!   setup count drops, with the final committed state unchanged.

use proptest::prelude::*;

use pim_stm_suite::sim::{Dpu, DpuConfig, TaskletCtx, TaskletStats, Tier};
use pim_stm_suite::stm::{
    MetadataPlacement, StmConfig, StmKind, StmKnobs, StmShared, TxEngine, TxOps, WriteBackStrategy,
};
use pim_stm_suite::workloads::spec::Executor;
use pim_stm_suite::workloads::{RunSpec, Workload};

/// The write-back designs (write-through publishes at encounter time and
/// has no redo log to coalesce).
const WRITE_BACK_KINDS: [StmKind; 5] =
    [StmKind::Norec, StmKind::TinyCtlWb, StmKind::TinyEtlWb, StmKind::VrCtlWb, StmKind::VrEtlWb];

/// Runs one transaction writing `writes` (offset, value) pairs into a
/// 64-word MRAM region under `strategy`, returning the full region contents
/// and the run's total MRAM DMA setup count.
fn run_once(kind: StmKind, strategy: WriteBackStrategy, writes: &[(u32, u64)]) -> (Vec<u64>, u64) {
    let mut dpu = Dpu::new(DpuConfig::small());
    let config = StmConfig::new(kind, MetadataPlacement::Wram)
        .with_lock_table_entries(128)
        .with_write_set_capacity(64)
        .with_read_set_capacity(64)
        .with_knobs(StmKnobs { write_back: strategy, ..StmKnobs::default() });
    let shared = StmShared::allocate(&mut dpu, config).expect("metadata fits");
    let slot = shared.register_tasklet(&mut dpu, 0).expect("logs fit");
    let region = dpu.alloc(Tier::Mram, 64).expect("data fits");
    let mut engine = TxEngine::for_shared(shared, slot);
    let mut stats = TaskletStats::new();
    {
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
        engine.transaction(&mut ctx, |tx| {
            for &(offset, value) in writes {
                tx.write_word(region.offset(offset), value)?;
            }
            Ok(())
        });
    }
    (dpu.peek_block(region, 64), stats.mram_dma_setups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary write sets — duplicates, contiguous runs, scattered
    /// singletons — the coalesced publish produces byte-identical memory to
    /// the word-wise baseline, on every write-back design, and never costs
    /// more DMA setups.
    #[test]
    fn coalesced_commit_is_byte_identical_to_word_wise(
        writes in prop::collection::vec((0u32..64, any::<u64>()), 1..24),
        kind_index in 0usize..WRITE_BACK_KINDS.len(),
    ) {
        let kind = WRITE_BACK_KINDS[kind_index];
        let (word_mem, word_setups) = run_once(kind, WriteBackStrategy::WordWise, &writes);
        let (burst_mem, burst_setups) = run_once(kind, WriteBackStrategy::Coalesced, &writes);
        prop_assert_eq!(word_mem, burst_mem, "{} memory contents diverged", kind);
        prop_assert!(
            burst_setups <= word_setups,
            "{} coalescing increased DMA setups ({} > {})",
            kind,
            burst_setups,
            word_setups
        );
    }
}

#[test]
fn a_contiguous_write_set_saves_dma_setups_on_every_write_back_design() {
    let writes: Vec<(u32, u64)> = (8..16).map(|i| (i, u64::from(i) * 3)).collect();
    for kind in WRITE_BACK_KINDS {
        let (word_mem, word_setups) = run_once(kind, WriteBackStrategy::WordWise, &writes);
        let (burst_mem, burst_setups) = run_once(kind, WriteBackStrategy::Coalesced, &writes);
        assert_eq!(word_mem, burst_mem, "{kind}");
        assert!(
            burst_setups < word_setups,
            "{kind}: an 8-word contiguous run must save setups ({burst_setups} vs {word_setups})"
        );
    }
}

fn arraybench_b_setups(
    kind: StmKind,
    tasklets: usize,
    strategy: WriteBackStrategy,
) -> (u64, u64, u64) {
    let report = RunSpec::new(Workload::ArrayB, kind, MetadataPlacement::Mram, tasklets)
        .with_scale(0.2)
        .with_seed(42)
        .with_knobs(StmKnobs { write_back: strategy, ..StmKnobs::default() })
        .run_on(Executor::Simulator);
    report.assert_invariants();
    (report.sim.as_ref().unwrap().total_mram_dma_setups(), report.fingerprint, report.aborts)
}

/// The acceptance regression, contention-free half: a single-tasklet
/// ArrayBench-B run is deterministic and abort-free, so the DMA setup
/// difference isolates the commit path — coalescing must be strictly
/// cheaper for **every** write-back design, with identical final memory.
#[test]
fn arraybench_b_commits_fewer_dma_setups_with_coalescing() {
    for kind in WRITE_BACK_KINDS {
        let (word_setups, word_state, word_aborts) =
            arraybench_b_setups(kind, 1, WriteBackStrategy::WordWise);
        let (burst_setups, burst_state, _) =
            arraybench_b_setups(kind, 1, WriteBackStrategy::Coalesced);
        assert_eq!(word_aborts, 0, "{kind}: a single tasklet never conflicts");
        assert_eq!(word_state, burst_state, "{kind}: final array state diverged");
        assert!(
            burst_setups < word_setups,
            "{kind}: coalesced write-back must issue fewer MRAM DMA setups \
             ({burst_setups} vs {word_setups})"
        );
    }
}

/// The acceptance regression, contended half: with 4 tasklets the commit
/// timing shift also perturbs the interleaving (and so the per-design abort
/// counts), but across the write-back family the coalesced runs still issue
/// fewer MRAM DMA setups in aggregate — and every design's committed array
/// state is unchanged (increments commute).
#[test]
fn arraybench_b_under_contention_saves_setups_in_aggregate() {
    let mut word_total = 0;
    let mut burst_total = 0;
    for kind in WRITE_BACK_KINDS {
        let (word_setups, word_state, _) =
            arraybench_b_setups(kind, 4, WriteBackStrategy::WordWise);
        let (burst_setups, burst_state, _) =
            arraybench_b_setups(kind, 4, WriteBackStrategy::Coalesced);
        assert_eq!(word_state, burst_state, "{kind}: final array state diverged");
        word_total += word_setups;
        burst_total += burst_setups;
    }
    assert!(
        burst_total < word_total,
        "coalescing must save MRAM DMA setups across the write-back family \
         ({burst_total} vs {word_total})"
    );
}

/// Coalescing must not disturb the threaded executor (where `store_block`
/// degenerates to per-word atomic stores): same conserved state either way.
#[test]
fn coalescing_is_inert_on_the_threaded_executor() {
    let base = RunSpec::new(Workload::ArrayB, StmKind::TinyEtlWb, MetadataPlacement::Wram, 4)
        .with_scale(0.2);
    let writing = |write_back| base.with_knobs(StmKnobs { write_back, ..base.knobs });
    let word = writing(WriteBackStrategy::WordWise).run_on(Executor::Threaded);
    let burst = writing(WriteBackStrategy::Coalesced).run_on(Executor::Threaded);
    word.assert_invariants();
    burst.assert_invariants();
    assert_eq!(word.fingerprint, burst.fingerprint);
}
