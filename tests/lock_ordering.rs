//! Sorted multi-ORec acquisition (`LockOrder::AddressSorted`, the PR-4
//! metadata-batching follow-up): encounter-time-locking record writes
//! acquire their ownership records in one pass ordered by lock-table
//! address (deduplicated), *before* any logging or data stores.
//!
//! Two things change relative to the per-word `RecordOrder` baseline:
//!
//! * **global acquisition order** — consecutive data words usually map to
//!   consecutive lock-table entries, but the hash wraps at the table size,
//!   so overlapping records can name the same ORecs in different orders;
//!   a global order turns the symmetric lock-order duel (each transaction
//!   holding an ORec the other wants, both aborting) into a single loser;
//! * **a shrunken abort window** — conflicts surface during the
//!   acquisition pass, before the transaction has exposed a single
//!   write-through store or pushed a single log entry, so an aborting
//!   batched record write wastes *no* data movement and has nothing dirty
//!   in memory while it holds partial locks.
//!
//! The duel-rate effect needs genuinely concurrent partial acquisition:
//! the discrete-event simulator executes a whole `write_record` as one
//! atomic scheduler step (abort *counts* there differ between orders only
//! through cycle-timing chaos), and on a time-slicing single-core host the
//! threaded counts are preemption-noise-dominated. What is deterministic
//! on every host — and is asserted here at the `AbortReason` level, on the
//! ArrayBench-B cell shape (4-entry update records in the 10-entry region,
//! with a wrapping lock table) — is the abort-window half: the same
//! standing conflict aborts both orders with `WriteConflict`, but the
//! sorted path aborts with zero wasted data traffic and an empty log where
//! the record-order path has already stored, logged and rolled back.

use pim_stm_suite::sim::{Dpu, DpuConfig, TaskletCtx, TaskletStats, Tier};
use pim_stm_suite::stm::threaded::ThreadedDpu;
use pim_stm_suite::stm::{
    AbortReason, LockOrder, MetadataPlacement, StmConfig, StmKind, StmKnobs, StmShared, TxEngine,
};
use pim_stm_suite::workloads::array_bench::{run_threaded, ArrayBenchConfig};

/// The ArrayBench-B grouped-update cell: the paper's 10-entry update
/// region, its 4 updates grouped into one contiguous record, and a 5-entry
/// lock table so every record's ORec sequence wraps (the configuration
/// where acquisition order is *not* already address order).
fn grouped_workload_b() -> ArrayBenchConfig {
    ArrayBenchConfig::workload_b().with_update_record_words(4)
}

/// Outcome of one manufactured-conflict probe: the abort reason the record
/// write failed with, the MRAM data words it moved before failing
/// (including rollback traffic), and the log entries left in its write set.
struct AbortWindow {
    reason: AbortReason,
    wasted_mram_words: u64,
    logged_entries: u32,
}

/// Tasklet 1 write-locks one word in the middle of the update region and
/// stays in flight; tasklet 0 then attempts the grouped record write over
/// it. Deterministic on the simulator: the conflict, the reason and every
/// word of wasted traffic are exact.
fn probe_abort_window(kind: StmKind, order: LockOrder) -> AbortWindow {
    let cfg = grouped_workload_b();
    // Metadata in WRAM so the MRAM DMA counter isolates *data* movement.
    let stm = StmConfig::new(kind, MetadataPlacement::Wram)
        .with_read_set_capacity(cfg.read_set_capacity())
        .with_write_set_capacity(cfg.write_set_capacity())
        .with_lock_table_entries(5)
        .with_knobs(StmKnobs { lock_order: order, ..StmKnobs::default() });
    let mut dpu = Dpu::new(DpuConfig::small());
    let shared = StmShared::allocate(&mut dpu, stm).expect("metadata fits");
    let slot0 = shared.register_tasklet(&mut dpu, 0).expect("logs fit");
    let slot1 = shared.register_tasklet(&mut dpu, 1).expect("logs fit");
    let region = dpu.alloc(Tier::Mram, 10).expect("update region fits");
    for i in 0..10 {
        dpu.poke(region.offset(i), 100 + u64::from(i));
    }
    let (mut t0, mut t1) =
        (TxEngine::for_shared(shared.clone(), slot0), TxEngine::for_shared(shared, slot1));

    // T1: an in-flight transaction holding the ORec of word 4.
    let mut stats1 = TaskletStats::new();
    {
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats1, 1, 2, 0);
        t1.begin(&mut ctx);
        t1.write(&mut ctx, region.offset(4), 999).unwrap();
    }

    // T0: the grouped record write [2..6] contains the locked word.
    let mut stats0 = TaskletStats::new();
    let (reason, wasted, logged) = {
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats0, 0, 2, 0);
        t0.begin(&mut ctx);
        let before = ctx.stats().mram_dma_words;
        let err = t0
            .write_record(&mut ctx, region.offset(2), &[1, 2, 3, 4])
            .expect_err("the record overlaps a foreign write lock");
        (err.reason, ctx.stats().mram_dma_words - before, t0.slot().write_set_len())
    };

    // Whatever the order, rollback must have restored memory exactly
    // (word 4 belongs to T1, which has write-through-stored 999 for WT
    // kinds; every other word is untouched).
    for i in 0..10 {
        if i != 4 {
            assert_eq!(
                dpu.peek(region.offset(i)),
                100 + u64::from(i),
                "{kind} ({order}): word {i} not rolled back"
            );
        }
    }
    AbortWindow { reason, wasted_mram_words: wasted, logged_entries: logged }
}

/// The AbortReason-level regression on the ArrayBench-B cell shape: both
/// acquisition orders fail the conflicting record write with
/// `WriteConflict`, but the sorted order aborts **before the abort window
/// opens** — zero wasted MRAM data words (the record-order write-through
/// path has already exposed stores and undone them) and zero log entries
/// (the record-order write-back path has already pushed some).
#[test]
fn sorted_acquisition_aborts_before_any_data_work_on_arraybench_b() {
    for kind in [StmKind::TinyEtlWt, StmKind::TinyEtlWb, StmKind::VrEtlWt, StmKind::VrEtlWb] {
        let sorted = probe_abort_window(kind, LockOrder::AddressSorted);
        let record = probe_abort_window(kind, LockOrder::RecordOrder);
        assert_eq!(sorted.reason, AbortReason::WriteConflict, "{kind}");
        assert_eq!(record.reason, AbortReason::WriteConflict, "{kind}");

        assert_eq!(
            sorted.wasted_mram_words, 0,
            "{kind}: sorted acquisition must move no data before the conflict surfaces"
        );
        assert_eq!(
            sorted.logged_entries, 0,
            "{kind}: sorted acquisition must log nothing before the conflict surfaces"
        );

        // The baseline pays for the wide abort window: write-through has
        // exposed (and undone) stores for the words before the conflict;
        // write-back has pushed log entries for them.
        match kind {
            StmKind::TinyEtlWt | StmKind::VrEtlWt => assert!(
                record.wasted_mram_words > 0,
                "{kind}: record order should have exposed and rolled back stores \
                 ({} words moved)",
                record.wasted_mram_words
            ),
            _ => assert!(
                record.logged_entries > 0,
                "{kind}: record order should have pushed redo-log entries before failing"
            ),
        }
    }
}

/// Aliased records (longer than the lock table) are acquired once per
/// distinct ORec and still roll back cleanly when the conflict lands on
/// the aliased entry.
#[test]
fn aliased_records_are_deduplicated_and_abort_cleanly() {
    let stm = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
        .with_lock_table_entries(3)
        .with_read_set_capacity(16)
        .with_write_set_capacity(16);
    let mut dpu = Dpu::new(DpuConfig::small());
    let shared = StmShared::allocate(&mut dpu, stm).expect("metadata fits");
    let slot0 = shared.register_tasklet(&mut dpu, 0).expect("logs fit");
    let slot1 = shared.register_tasklet(&mut dpu, 1).expect("logs fit");
    let region = dpu.alloc(Tier::Mram, 8).expect("region fits");
    let (mut t0, mut t1) =
        (TxEngine::for_shared(shared.clone(), slot0), TxEngine::for_shared(shared, slot1));

    // A 5-word record over a 3-entry table: words 0 and 3 (and 1 and 4)
    // share ORecs. Uncontended, the write must succeed and commit the
    // values exactly.
    let mut stats0 = TaskletStats::new();
    {
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats0, 0, 2, 0);
        t0.begin(&mut ctx);
        t0.write_record(&mut ctx, region, &[10, 11, 12, 13, 14]).unwrap();
        t0.commit(&mut ctx).unwrap();
        for i in 0..5 {
            assert_eq!(ctx.dpu().peek(region.offset(i)), 10 + u64::from(i));
        }
    }

    // Contended on the *aliased* entry: T1 locks word 6 (whose ORec also
    // covers word 0 of the record — 6 % 3 == 0 relative to the region
    // base), so the record write must abort and restore every ORec.
    let mut stats1 = TaskletStats::new();
    {
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats1, 1, 2, 0);
        t1.begin(&mut ctx);
        t1.write(&mut ctx, region.offset(6), 66).unwrap();
    }
    {
        {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats0, 0, 2, 0);
            t0.begin(&mut ctx);
            let err = t0
                .write_record(&mut ctx, region, &[20, 21, 22, 23, 24])
                .expect_err("the aliased ORec is write-locked");
            assert_eq!(err.reason, AbortReason::WriteConflict);
        }
        // A retry after T1 commits succeeds — the aborted attempt restored
        // every ORec it had acquired.
        {
            let mut ctx1 = TaskletCtx::new(&mut dpu, &mut stats1, 1, 2, 0);
            t1.commit(&mut ctx1).unwrap();
        }
        let mut ctx = TaskletCtx::new(&mut dpu, &mut stats0, 0, 2, 0);
        t0.begin(&mut ctx);
        t0.write_record(&mut ctx, region, &[20, 21, 22, 23, 24]).unwrap();
        t0.commit(&mut ctx).unwrap();
        for i in 0..5 {
            assert_eq!(ctx.dpu().peek(region.offset(i)), 20 + u64::from(i));
        }
    }
}

/// Conservation under real concurrency, for both orders and all three
/// encounter-time compositions: heavily contended grouped ArrayBench-B
/// runs (wrapping lock table) must commit every transaction and lose no
/// increments. (The duel-*rate* comparison between orders is not asserted:
/// on a time-slicing host the counts are preemption-noise-dominated — see
/// the module docs.)
#[test]
fn both_orders_conserve_updates_for_every_etl_composition() {
    let cfg = ArrayBenchConfig { transactions_per_tasklet: 150, ..grouped_workload_b() };
    for kind in [StmKind::TinyEtlWb, StmKind::TinyEtlWt, StmKind::VrEtlWb, StmKind::VrEtlWt] {
        for order in LockOrder::ALL {
            let stm = StmConfig::new(kind, MetadataPlacement::Mram)
                .with_read_set_capacity(cfg.read_set_capacity())
                .with_write_set_capacity(cfg.write_set_capacity())
                .with_lock_table_entries(5)
                .with_knobs(StmKnobs { lock_order: order, ..StmKnobs::default() });
            let mut dpu = ThreadedDpu::new(stm).expect("metadata fits");
            let (data, report) = run_threaded(&mut dpu, cfg, 6, 42).expect("run schedulable");
            let expected_commits = u64::from(cfg.transactions_per_tasklet) * 6;
            assert_eq!(report.commits, expected_commits, "{kind} ({order}): lost transactions");
            assert_eq!(
                data.update_region_sum(&dpu),
                expected_commits * u64::from(cfg.updates_applied_per_tx()),
                "{kind} ({order}): lost updates"
            );
        }
    }
}
