//! Read-side DMA batching: correctness and cost.
//!
//! PR 2 coalesced the *write* path (commit-time redo-log bursts); the
//! record-access layer (`pim_stm::access`) does the same for the *read*
//! path: under `ReadStrategy::Batched` a record read moves its data as one
//! `load_block` burst per contiguous run while the per-word metadata
//! protocol (ORec sample/re-check, read-lock acquisition, sequence-lock
//! bracket) is unchanged. These tests pin down the two properties the
//! optimisation must have:
//!
//! * **strategy equivalence** — batched and word-wise reads observe the
//!   same values: byte-identical final memory and equal commit counts on
//!   the read-dominated ArrayBench-A cell, across all 7 designs × both
//!   metadata placements × both executors;
//! * **strictly fewer DMA setups per commit** — for the ORec write-back
//!   designs (Tiny-WB, VR-WB), whose reads were word-wise until this
//!   layer existed, the simulator's MRAM DMA setup count per commit drops
//!   on ArrayBench-A.

use proptest::prelude::*;

use pim_stm_suite::stm::{MetadataPlacement, ReadStrategy, StmKind, StmKnobs};
use pim_stm_suite::workloads::spec::Executor;
use pim_stm_suite::workloads::{RunSpec, Workload};

/// One small read-dominated ArrayBench-A cell (5 record reads of 20 words
/// plus 20 updates per transaction).
fn array_a(kind: StmKind, placement: MetadataPlacement, tasklets: usize, seed: u64) -> RunSpec {
    RunSpec::new(Workload::ArrayA, kind, placement, tasklets).with_scale(0.03).with_seed(seed)
}

/// `spec` with its record reads moved by `read_strategy`.
fn reading(spec: RunSpec, read_strategy: ReadStrategy) -> RunSpec {
    spec.with_knobs(StmKnobs { read_strategy, ..spec.knobs })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For arbitrary seeds and tasklet counts, batched and word-wise reads
    /// leave byte-identical final memory and commit the same transaction
    /// count, for every design and both metadata placements (simulator:
    /// fully deterministic, so equality is exact).
    #[test]
    fn batched_reads_are_byte_identical_to_word_wise(
        kind_index in 0usize..StmKind::ALL.len(),
        mram_metadata in any::<bool>(),
        tasklets in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let kind = StmKind::ALL[kind_index];
        let placement =
            if mram_metadata { MetadataPlacement::Mram } else { MetadataPlacement::Wram };
        let spec = array_a(kind, placement, tasklets, seed);
        let word = reading(spec, ReadStrategy::WordWise).run_on(Executor::Simulator);
        let batched = reading(spec, ReadStrategy::Batched).run_on(Executor::Simulator);
        word.assert_invariants();
        batched.assert_invariants();
        prop_assert_eq!(
            word.fingerprint,
            batched.fingerprint,
            "{} ({}): final memory diverged",
            kind,
            placement
        );
        prop_assert_eq!(word.commits, batched.commits, "{}: commit counts diverged", kind);
    }
}

/// The exhaustive half of the equivalence claim: all 7 designs × both
/// placements × both executors agree on the final state (ArrayBench is
/// commutative, so even nondeterministic threaded interleavings land on
/// one fingerprint) and on the commit count.
#[test]
fn strategies_agree_across_kinds_placements_and_executors() {
    for kind in StmKind::ALL {
        for placement in MetadataPlacement::ALL {
            for executor in Executor::ALL {
                let spec = array_a(kind, placement, 2, 42);
                let word = reading(spec, ReadStrategy::WordWise).run_on(executor);
                let batched = reading(spec, ReadStrategy::Batched).run_on(executor);
                word.assert_invariants();
                batched.assert_invariants();
                assert_eq!(
                    word.fingerprint, batched.fingerprint,
                    "{kind} ({placement}, {executor}): final memory diverged"
                );
                assert_eq!(
                    word.commits, batched.commits,
                    "{kind} ({placement}, {executor}): commit counts diverged"
                );
            }
        }
    }
}

fn setups_per_commit(kind: StmKind, tasklets: usize, strategy: ReadStrategy) -> (f64, u64, u64) {
    let report = reading(array_a(kind, MetadataPlacement::Mram, tasklets, 42), strategy)
        .run_on(Executor::Simulator);
    report.assert_invariants();
    let profile = report.merged_profile();
    (profile.dma_setups_per_commit(), report.fingerprint, report.aborts)
}

/// The acceptance regression, contention-free half: a single-tasklet
/// ArrayBench-A run is deterministic and abort-free, so the per-commit DMA
/// setup difference isolates the read path — batching must be strictly
/// cheaper for the ORec write-back designs (whose reads were word-wise
/// before the access layer), with identical final memory.
#[test]
fn tiny_and_vr_wb_pay_fewer_dma_setups_per_commit_with_batching() {
    for kind in [StmKind::TinyEtlWb, StmKind::TinyCtlWb, StmKind::VrEtlWb, StmKind::VrCtlWb] {
        let (word, word_state, word_aborts) = setups_per_commit(kind, 1, ReadStrategy::WordWise);
        let (batched, batched_state, _) = setups_per_commit(kind, 1, ReadStrategy::Batched);
        assert_eq!(word_aborts, 0, "{kind}: a single tasklet never conflicts");
        assert_eq!(word_state, batched_state, "{kind}: final array state diverged");
        assert!(
            batched < word,
            "{kind}: batched reads must issue fewer MRAM DMA setups per commit \
             ({batched:.1} vs {word:.1})"
        );
    }
}

/// The contended half: with 4 tasklets the DMA timing shift also perturbs
/// the interleaving (and so per-design abort counts), but across the ORec
/// write-back family batching still lowers the aggregate setups-per-commit
/// — and every design's committed array state is unchanged (increments
/// commute).
#[test]
fn batching_saves_setups_per_commit_under_contention_in_aggregate() {
    let mut word_total = 0.0;
    let mut batched_total = 0.0;
    for kind in [StmKind::TinyEtlWb, StmKind::TinyCtlWb, StmKind::VrEtlWb, StmKind::VrCtlWb] {
        let (word, word_state, _) = setups_per_commit(kind, 4, ReadStrategy::WordWise);
        let (batched, batched_state, _) = setups_per_commit(kind, 4, ReadStrategy::Batched);
        assert_eq!(word_state, batched_state, "{kind}: final array state diverged");
        word_total += word;
        batched_total += batched;
    }
    assert!(
        batched_total < word_total,
        "read batching must save MRAM DMA setups per commit across the ORec write-back \
         family ({batched_total:.1} vs {word_total:.1})"
    );
}

/// NOrec had a batched record read before the shared layer existed; the
/// port must preserve its advantage over word-wise.
#[test]
fn norec_burst_survives_the_port_onto_the_access_layer() {
    let (word, word_state, _) = setups_per_commit(StmKind::Norec, 1, ReadStrategy::WordWise);
    let (batched, batched_state, _) = setups_per_commit(StmKind::Norec, 1, ReadStrategy::Batched);
    assert_eq!(word_state, batched_state);
    assert!(batched < word, "NOrec: {batched:.1} vs {word:.1} setups/commit");
}

/// Batching must not disturb the threaded executor (where `load_block`
/// degenerates to per-word atomic loads): same conserved state either way.
#[test]
fn batching_is_inert_on_the_threaded_executor() {
    let spec = array_a(StmKind::TinyEtlWb, MetadataPlacement::Wram, 4, 7);
    let word = reading(spec, ReadStrategy::WordWise).run_on(Executor::Threaded);
    let batched = reading(spec, ReadStrategy::Batched).run_on(Executor::Threaded);
    word.assert_invariants();
    batched.assert_invariants();
    assert_eq!(word.fingerprint, batched.fingerprint);
}
