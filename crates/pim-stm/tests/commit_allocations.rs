//! A transaction on a warmed descriptor does not touch the heap: the redo
//! log's staging for the coalesced write-back and the index/grant scratch of
//! the sorted record write live on the [`TxSlot`] and are reused, on both
//! executors (the counterpart, one layer down, of `pim-fleet`'s
//! `round_allocations.rs`). Shown from outside with a counting global
//! allocator — which is why this is a test binary of its own with a single
//! test: nothing else may allocate while a transaction is being counted
//! (the crate itself denies `unsafe`, so the allocator cannot sit in a unit
//! test).

use pim_sim::{Dpu, DpuConfig, TaskletCtx, TaskletStats, Tier};
use pim_stm::{StmConfig, StmKind, StmShared, TxEngine, TxOps};

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

#[test]
fn a_second_multi_word_commit_on_a_warmed_slot_makes_no_heap_calls() {
    // NOrec and Tiny CTLWB publish a multi-word redo log; Tiny ETLWB and
    // ETLWT also take the sorted multi-ORec path of the record write.
    for kind in [StmKind::Norec, StmKind::TinyCtlWb, StmKind::TinyEtlWb, StmKind::TinyEtlWt] {
        let mut dpu = Dpu::new(DpuConfig::small());
        let shared = StmShared::allocate(&mut dpu, StmConfig::small_wram(kind)).unwrap();
        let slot = shared.register_tasklet(&mut dpu, 0).unwrap();
        let region = dpu.alloc(Tier::Mram, 64).unwrap();
        let mut engine = TxEngine::for_shared(shared, slot);
        let mut stats = TaskletStats::new();
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
        let mut heap_calls_of_one_tx = |base: u32| {
            let before = counting_alloc::heap_calls();
            engine.transaction(&mut ctx, |tx| {
                // A six-word record, then two scattered words: a redo log of
                // eight entries in two runs and a singleton.
                tx.write_words(region.offset(base), &[1, 2, 3, 4, 5, 6])?;
                tx.write_word(region.offset(base + 20), 7)?;
                tx.write_word(region.offset(base + 21), 8)
            });
            counting_alloc::heap_calls() - before
        };
        let first = heap_calls_of_one_tx(0);
        assert!(first > 0, "{kind}: the first transaction grows the scratch ({first} calls)");
        assert_eq!(heap_calls_of_one_tx(32), 0, "{kind}: the second must reuse it");
    }
}
