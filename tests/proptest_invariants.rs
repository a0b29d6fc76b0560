//! Property-based tests (proptest) on the core data structures and on the
//! transactional invariants of the STM designs.

use proptest::prelude::*;

use pim_stm_suite::sim::{
    Addr, Dpu, DpuConfig, LatencyHistogram, Phase, PhaseBreakdown, SimRng, Tier,
};
use pim_stm_suite::stm::locktable::OrecWord;
use pim_stm_suite::stm::platform::{decode_addr, encode_addr};
use pim_stm_suite::stm::rwlock::{RwLockWord, MAX_TASKLETS};
use pim_stm_suite::stm::threaded::ThreadedDpu;
use pim_stm_suite::stm::{MetadataPlacement, StmConfig, StmKind, StmShared, TxEngine, TxOps};

fn arb_addr() -> impl Strategy<Value = Addr> {
    (any::<bool>(), 0u32..0x00ff_ffff).prop_map(|(mram, word)| {
        if mram {
            Addr::mram(word)
        } else {
            Addr::wram(word)
        }
    })
}

fn arb_kind() -> impl Strategy<Value = StmKind> {
    prop::sample::select(StmKind::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encoded addresses decode to themselves regardless of tier and offset.
    #[test]
    fn addr_encoding_roundtrips(addr in arb_addr()) {
        prop_assert_eq!(decode_addr(encode_addr(addr)), addr);
    }

    /// ORec words always classify as either locked-with-owner or
    /// unlocked-with-version, and round-trip their payload.
    #[test]
    fn orec_words_roundtrip(version in 0u64..(1 << 40), owner in 0usize..24) {
        let unlocked = OrecWord::unlocked(version);
        prop_assert!(!unlocked.is_locked());
        prop_assert_eq!(unlocked.version(), version);
        let locked = OrecWord::locked_by(owner);
        prop_assert!(locked.is_locked());
        prop_assert_eq!(locked.owner(), Some(owner));
        prop_assert_ne!(locked.raw(), unlocked.raw());
    }

    /// Adding then removing an arbitrary set of readers leaves a VR rw-lock
    /// word free, and the reader count always matches the set size.
    #[test]
    fn rwlock_reader_sets_are_consistent(readers in prop::collection::btree_set(0usize..MAX_TASKLETS, 0..MAX_TASKLETS)) {
        let mut word = RwLockWord::free();
        for &r in &readers {
            word = word.with_reader(r);
        }
        prop_assert_eq!(word.reader_count() as usize, readers.len());
        for &r in &readers {
            prop_assert!(word.has_reader(r));
        }
        for &r in &readers {
            word = word.without_reader(r);
        }
        prop_assert!(word.is_free());
    }

    /// The deterministic PRNG respects bounds and is reproducible.
    #[test]
    fn sim_rng_is_bounded_and_reproducible(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            let x = a.next_range(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.next_range(bound));
        }
    }

    /// Phase breakdowns behave like a vector of counters: totals add up and
    /// collapsing to wasted time preserves the total.
    #[test]
    fn phase_breakdowns_add_up(charges in prop::collection::vec((0usize..7, 0u64..10_000), 0..64)) {
        let mut breakdown = PhaseBreakdown::new();
        let mut expected_total = 0u64;
        for (phase_index, cycles) in charges {
            breakdown.charge(Phase::ALL[phase_index], cycles);
            expected_total += cycles;
        }
        prop_assert_eq!(breakdown.total(), expected_total);
        let mut collapsed = breakdown;
        collapsed.collapse_into_wasted();
        prop_assert_eq!(collapsed.total(), expected_total);
        prop_assert_eq!(collapsed.get(Phase::Wasted), expected_total);
    }

    /// Histogram merging is element-wise addition, so it is commutative,
    /// associative, and *exactly* equal to histogramming the concatenated
    /// sample stream — the property that makes fleet-merged percentiles
    /// independent of shard count and worker count.
    #[test]
    fn histogram_merge_is_exact_commutative_and_associative(
        a in prop::collection::vec(any::<u64>(), 0..48),
        b in prop::collection::vec(any::<u64>(), 0..48),
        c in prop::collection::vec(any::<u64>(), 0..48),
    ) {
        let hist = |samples: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &s in samples {
                h.record(s);
            }
            h
        };
        let (ha, hb, hc) = (hist(&a), hist(&b), hist(&c));

        // Commutativity: a ∪ b == b ∪ a.
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        // Associativity: (a ∪ b) ∪ c == a ∪ (b ∪ c).
        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Exactness: the merge equals one histogram over the whole stream,
        // bucket for bucket (LatencyHistogram derives Eq).
        let whole: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&ab_c, &hist(&whole));
        prop_assert_eq!(ab_c.count(), whole.len() as u64);
    }

    /// Every `u64` lands in a bucket that actually contains it, unit buckets
    /// below 16 are exact, and log-bucket widths respect the 12.5% relative
    /// error bound (width ≤ bucket_low / 8).
    #[test]
    fn histogram_buckets_contain_their_values_within_the_error_bound(value in any::<u64>()) {
        let index = LatencyHistogram::bucket_of(value);
        let low = LatencyHistogram::bucket_low(index);
        let high = LatencyHistogram::bucket_high(index);
        prop_assert!(low <= value && value <= high, "{low} <= {value} <= {high}");
        if value < 16 {
            prop_assert_eq!(low, value);
            prop_assert_eq!(high, value);
        } else {
            let width = high - low + 1;
            prop_assert!(width * 8 <= low, "width {width} must be at most low {low} / 8");
        }
        // A single-sample histogram reports the sample exactly at every
        // quantile: the bucket cap is clamped to the recorded max.
        let mut h = LatencyHistogram::new();
        h.record(value);
        prop_assert_eq!(h.quantile(0.5), value);
        prop_assert_eq!(h.quantile(1.0), value);
        prop_assert_eq!(h.max(), value);
    }

    /// The lock-table hash always lands inside the table, for every design
    /// that uses one.
    #[test]
    fn lock_index_is_always_in_range(addr in arb_addr(), entries in 1u32..8192) {
        let mut dpu = Dpu::new(DpuConfig::small());
        let config = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Mram)
            .with_lock_table_entries(entries);
        let shared = StmShared::allocate(&mut dpu, config).expect("metadata fits");
        prop_assert!(shared.lock_index(addr) < entries);
        prop_assert_eq!(shared.lock_index(addr), shared.lock_index(addr));
    }

    /// Under real concurrency, arbitrary batches of transactional increments
    /// over a small table are never lost, for any STM design.
    #[test]
    fn threaded_increments_are_linearizable(
        kind in arb_kind(),
        per_tasklet in 1u32..40,
        tasklets in 1usize..5,
        cells in 1u32..8,
    ) {
        let config = StmConfig::new(kind, MetadataPlacement::Wram).with_lock_table_entries(64);
        let mut dpu = ThreadedDpu::new(config).expect("metadata fits");
        let table = dpu.alloc(Tier::Mram, cells).expect("table fits");
        dpu.run(tasklets, |mut tasklet| {
            let id = tasklet.tasklet_id() as u32;
            for i in 0..per_tasklet {
                let cell = table.offset((id + i) % cells);
                tasklet.transaction(|tx| {
                    let value = tx.read_word(cell)?;
                    tx.write_word(cell, value + 1)?;
                    Ok(())
                });
            }
        })
        .expect("tasklet count is within the hardware limit");
        let total: u64 = (0..cells).map(|i| dpu.peek(table.offset(i))).sum();
        prop_assert_eq!(total, u64::from(per_tasklet) * tasklets as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random read/write transactions on the simulator commit exactly the
    /// values a sequential reference execution would produce when there is a
    /// single tasklet (single-tasklet transactions are trivially serialisable,
    /// so any divergence indicates a redo/undo-log bug).
    #[test]
    fn single_tasklet_matches_sequential_reference(
        kind in arb_kind(),
        ops in prop::collection::vec((0u32..16, 0u64..1000), 1..60),
    ) {
        let mut dpu = Dpu::new(DpuConfig::small());
        let config = StmConfig::new(kind, MetadataPlacement::Wram).with_lock_table_entries(64);
        let shared = StmShared::allocate(&mut dpu, config).expect("metadata fits");
        let slot = shared.register_tasklet(&mut dpu, 0).expect("slot fits");
        let table = dpu.alloc(Tier::Mram, 16).expect("table fits");
        let mut engine = TxEngine::for_shared(shared, slot);
        let mut stats = pim_stm_suite::sim::TaskletStats::new();
        let mut reference = [0u64; 16];

        // One transaction per (cell, delta) pair: read-modify-write.
        for (cell, delta) in &ops {
            let mut ctx = pim_stm_suite::sim::TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            engine.transaction(&mut ctx, |tx| {
                let addr = table.offset(*cell);
                let value = tx.read_word(addr)?;
                tx.write_word(addr, value + delta)?;
                Ok(())
            });
            reference[*cell as usize] += delta;
        }
        for (i, &expected) in reference.iter().enumerate() {
            prop_assert_eq!(dpu.peek(table.offset(i as u32)), expected, "cell {} diverged", i);
        }
        prop_assert_eq!(stats.commits, ops.len() as u64);
        prop_assert_eq!(stats.aborts, 0);
    }
}
