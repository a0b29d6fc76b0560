//! Policy-composition regression anchor: the composed engine
//! (`pim_stm::policy::ComposedTm`, what a `TxEngine` resolves its
//! configured `StmKind` to) against *pinned golden outcomes* captured from the frozen
//! pre-redesign monoliths at the revision where the two were proven
//! bit-for-bit identical (the `pim_stm::legacy` differential, PR 5–7).
//!
//! The goldens replace the live legacy oracle: each pinned cell records the
//! exact commits, aborts, per-run abort total, makespan cycle count and an
//! FNV-1a fingerprint of the final shared array that the monoliths (and the
//! composed engine) produced on the deterministic simulator. Any change to
//! the composed engine's platform-operation sequence — an extra read, a
//! reordered lock acquisition, a different back-off — moves the cycle count
//! or the memory fingerprint and trips the anchor. This is what lets the
//! `legacy` module itself be deleted without losing the equivalence claim.
//!
//! Alongside the goldens, the file keeps the properties that need no
//! oracle: simulator determinism (same seed → same everything), the
//! `LockOrder` outcome contract for grouped record writes, and the threaded
//! executor's conservation invariants.

use proptest::prelude::*;

use pim_stm_suite::sim::{Dpu, DpuConfig, Scheduler};
use pim_stm_suite::stm::threaded::ThreadedDpu;
use pim_stm_suite::stm::var::peek_var;
use pim_stm_suite::stm::{
    AbortReason, ExecProfile, LockOrder, MetadataPlacement, StmConfig, StmKind, StmKnobs, StmShared,
};
use pim_stm_suite::workloads::array_bench::{build, run_threaded, ArrayBenchConfig};
use pim_stm_suite::workloads::kmeans::{self, KmeansConfig};
use pim_stm_suite::workloads::labyrinth::{self, LabyrinthConfig};
use pim_stm_suite::workloads::linked_list::{self, LinkedListConfig};
use pim_stm_suite::workloads::{RunSpec, Workload};

/// Everything a deterministic simulator run exposes, for exact comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SimOutcome {
    commits: u64,
    aborts: u64,
    /// Per-tasklet abort histograms keyed by [`AbortReason`] order.
    histograms: Vec<Vec<u64>>,
    /// The whole shared array, word for word.
    memory: Vec<u64>,
    makespan_cycles: u64,
}

impl SimOutcome {
    /// FNV-1a over the final array — one word of drift anywhere flips it.
    fn memory_fingerprint(&self) -> u64 {
        fnv1a(&self.memory)
    }
}

/// FNV-1a over a run of words, byte by byte in little-endian order.
fn fnv1a(words: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The STM configuration a pinned cell runs under.
fn stm_config(kind: StmKind, placement: MetadataPlacement, cfg: &ArrayBenchConfig) -> StmConfig {
    StmConfig::new(kind, placement)
        .with_read_set_capacity(cfg.read_set_capacity())
        .with_write_set_capacity(cfg.write_set_capacity())
        .with_lock_table_entries(1024)
}

/// Runs one ArrayBench cell on the simulator through
/// `pim_workloads::array_bench::build`, the construction every simulated
/// ArrayBench run uses.
fn run_sim(stm: StmConfig, cfg: ArrayBenchConfig, tasklets: usize, seed: u64) -> SimOutcome {
    let mut dpu = Dpu::new(DpuConfig::default());
    let shared = StmShared::allocate(&mut dpu, stm).expect("metadata fits");
    let (data, programs) = build(&mut dpu, &shared, cfg, tasklets, seed);
    let report = Scheduler::new().run(&mut dpu, programs);
    let histograms = report
        .tasklet_stats
        .iter()
        .map(|stats| {
            let profile = ExecProfile::from_sim(stats);
            AbortReason::ALL.iter().map(|&r| profile.aborts_for(r)).collect()
        })
        .collect();
    let memory = (0..data.array.len()).map(|i| peek_var(&dpu, data.array.at(i))).collect();
    SimOutcome {
        commits: report.total_commits(),
        aborts: report.total_aborts(),
        histograms,
        memory,
        makespan_cycles: report.makespan_cycles,
    }
}

/// One pinned golden: the contended ArrayBench-B cell (scaled 0.1,
/// 4 tasklets, seed 42) for one design × placement, as the legacy
/// monoliths — and, bit-for-bit, the composed engine — produced it.
struct Golden {
    kind: StmKind,
    placement: MetadataPlacement,
    commits: u64,
    aborts: u64,
    makespan_cycles: u64,
    memory_fingerprint: u64,
}

/// Runs the canonical golden cell for one design × placement.
fn run_golden_cell(kind: StmKind, placement: MetadataPlacement) -> SimOutcome {
    let cfg = ArrayBenchConfig::workload_b().scaled(0.1);
    let stm = stm_config(kind, placement, &cfg);
    run_sim(stm, cfg, 4, 42)
}

/// Runs the record-path golden cell (ArrayBench-A's batched record reads,
/// which exercise the RecordReader plan/accept/burst hooks) for one design.
fn run_record_golden_cell(kind: StmKind) -> SimOutcome {
    let cfg = ArrayBenchConfig { transactions_per_tasklet: 6, ..ArrayBenchConfig::workload_a() };
    let stm = stm_config(kind, MetadataPlacement::Mram, &cfg);
    run_sim(stm, cfg, 3, 42)
}

/// The contended-cell goldens (ArrayBench-B scaled 0.1, 4 tasklets,
/// seed 42): captured from the composed engine at the revision where the
/// live `pim_stm::legacy` differential still proved it bit-identical to the
/// monoliths. Aborts of every reason occur here and the back-off schedule
/// matters, so any drift in the begin/read/write/commit/rollback protocol
/// moves the cycle count.
const CONTENDED_GOLDENS: [Golden; 14] = [
    Golden {
        kind: StmKind::TinyCtlWb,
        placement: MetadataPlacement::Wram,
        commits: 160,
        aborts: 198,
        makespan_cycles: 251290,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::TinyCtlWb,
        placement: MetadataPlacement::Mram,
        commits: 160,
        aborts: 185,
        makespan_cycles: 2723765,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::TinyEtlWb,
        placement: MetadataPlacement::Wram,
        commits: 160,
        aborts: 173,
        makespan_cycles: 223153,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::TinyEtlWb,
        placement: MetadataPlacement::Mram,
        commits: 160,
        aborts: 241,
        makespan_cycles: 1559607,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::TinyEtlWt,
        placement: MetadataPlacement::Wram,
        commits: 160,
        aborts: 239,
        makespan_cycles: 359840,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::TinyEtlWt,
        placement: MetadataPlacement::Mram,
        commits: 160,
        aborts: 250,
        makespan_cycles: 1719038,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::Norec,
        placement: MetadataPlacement::Wram,
        commits: 160,
        aborts: 172,
        makespan_cycles: 255210,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::Norec,
        placement: MetadataPlacement::Mram,
        commits: 160,
        aborts: 188,
        makespan_cycles: 1548956,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::VrEtlWt,
        placement: MetadataPlacement::Wram,
        commits: 160,
        aborts: 196,
        makespan_cycles: 372247,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::VrEtlWt,
        placement: MetadataPlacement::Mram,
        commits: 160,
        aborts: 214,
        makespan_cycles: 1731112,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::VrEtlWb,
        placement: MetadataPlacement::Wram,
        commits: 160,
        aborts: 282,
        makespan_cycles: 197888,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::VrEtlWb,
        placement: MetadataPlacement::Mram,
        commits: 160,
        aborts: 333,
        makespan_cycles: 1858522,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::VrCtlWb,
        placement: MetadataPlacement::Wram,
        commits: 160,
        aborts: 156,
        makespan_cycles: 297096,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
    Golden {
        kind: StmKind::VrCtlWb,
        placement: MetadataPlacement::Mram,
        commits: 160,
        aborts: 139,
        makespan_cycles: 2523561,
        memory_fingerprint: 0x1624fa6d90b29e7b,
    },
];

/// The record-path goldens (ArrayBench-A's batched record reads, 3
/// tasklets, seed 42, MRAM metadata): the RecordReader plan/accept/burst
/// hooks for every design, captured under the same oracle-proven revision.
const RECORD_GOLDENS: [Golden; 7] = [
    Golden {
        kind: StmKind::TinyCtlWb,
        placement: MetadataPlacement::Mram,
        commits: 18,
        aborts: 17,
        makespan_cycles: 4317130,
        memory_fingerprint: 0xb0b2ecc82892e0e5,
    },
    Golden {
        kind: StmKind::TinyEtlWb,
        placement: MetadataPlacement::Mram,
        commits: 18,
        aborts: 63,
        makespan_cycles: 4006073,
        memory_fingerprint: 0xb0b2ecc82892e0e5,
    },
    Golden {
        kind: StmKind::TinyEtlWt,
        placement: MetadataPlacement::Mram,
        commits: 18,
        aborts: 63,
        makespan_cycles: 4097977,
        memory_fingerprint: 0xb0b2ecc82892e0e5,
    },
    Golden {
        kind: StmKind::Norec,
        placement: MetadataPlacement::Mram,
        commits: 18,
        aborts: 1,
        makespan_cycles: 1843591,
        memory_fingerprint: 0xb0b2ecc82892e0e5,
    },
    Golden {
        kind: StmKind::VrEtlWt,
        placement: MetadataPlacement::Mram,
        commits: 18,
        aborts: 68,
        makespan_cycles: 7614078,
        memory_fingerprint: 0xb0b2ecc82892e0e5,
    },
    Golden {
        kind: StmKind::VrEtlWb,
        placement: MetadataPlacement::Mram,
        commits: 18,
        aborts: 61,
        makespan_cycles: 6952705,
        memory_fingerprint: 0xb0b2ecc82892e0e5,
    },
    Golden {
        kind: StmKind::VrCtlWb,
        placement: MetadataPlacement::Mram,
        commits: 18,
        aborts: 18,
        makespan_cycles: 5584378,
        memory_fingerprint: 0xb0b2ecc82892e0e5,
    },
];

fn assert_matches_golden(outcome: &SimOutcome, golden: &Golden, cell: &str) {
    let Golden { kind, placement, commits, aborts, makespan_cycles, memory_fingerprint } = golden;
    assert_eq!(outcome.commits, *commits, "{kind} ({placement}, {cell}): commits drifted");
    assert_eq!(outcome.aborts, *aborts, "{kind} ({placement}, {cell}): aborts drifted");
    assert_eq!(
        outcome.makespan_cycles, *makespan_cycles,
        "{kind} ({placement}, {cell}): the platform-operation sequence changed — the composed \
         engine no longer issues what the legacy monolith issued"
    );
    assert_eq!(
        outcome.memory_fingerprint(),
        *memory_fingerprint,
        "{kind} ({placement}, {cell}): final memory drifted"
    );
    assert_eq!(
        outcome.aborts,
        outcome.histograms.iter().flatten().sum::<u64>(),
        "{kind} ({placement}, {cell}): histogram does not account for every abort"
    );
}

/// The contended anchor: every design × both placements against the pinned
/// legacy-equivalent outcome.
#[test]
fn composed_engine_matches_the_pinned_contended_goldens() {
    for golden in &CONTENDED_GOLDENS {
        let outcome = run_golden_cell(golden.kind, golden.placement);
        assert_matches_golden(&outcome, golden, "contended B");
    }
    // The table covers the whole design space — nothing silently dropped.
    for kind in StmKind::ALL {
        for placement in MetadataPlacement::ALL {
            assert!(
                CONTENDED_GOLDENS.iter().any(|g| g.kind == kind && g.placement == placement),
                "{kind} ({placement}) has no pinned golden"
            );
        }
    }
}

/// The record-path anchor: the batched-record cell for every design.
#[test]
fn composed_engine_matches_the_pinned_record_goldens() {
    for golden in &RECORD_GOLDENS {
        let outcome = run_record_golden_cell(golden.kind);
        assert_matches_golden(&outcome, golden, "record A");
    }
    for kind in StmKind::ALL {
        assert!(
            RECORD_GOLDENS.iter().any(|g| g.kind == kind),
            "{kind} has no pinned record golden"
        );
    }
}

/// One pinned Labyrinth golden: the scaled small grid (16×16×3, 20 paths,
/// 4 tasklets, seed 42, MRAM metadata) for one design. Labyrinth's long
/// transactions are mostly plain DMA on a private grid copy (the Lee
/// expansion and backtrack), so besides the protocol outcome the cell pins
/// the MRAM DMA setups and words, and the final shared grid: which path a
/// backtrack claims, and in which order a route expands, moves them.
#[derive(Debug, PartialEq, Eq)]
struct LabyrinthGolden {
    kind: StmKind,
    commits: u64,
    aborts: u64,
    makespan_cycles: u64,
    dma_setups: u64,
    dma_words: u64,
    grid_fingerprint: u64,
}

/// Runs the Labyrinth golden cell for one design through
/// `pim_workloads::labyrinth::build`, the construction every simulated
/// Labyrinth run uses.
fn run_labyrinth_golden_cell(kind: StmKind) -> LabyrinthGolden {
    let config = LabyrinthConfig::small().scaled(0.2);
    let stm = StmConfig::new(kind, MetadataPlacement::Mram)
        .with_read_set_capacity(config.read_set_capacity())
        .with_write_set_capacity(config.write_set_capacity());
    let mut dpu = Dpu::new(DpuConfig::default());
    let shared = StmShared::allocate(&mut dpu, stm).expect("metadata fits");
    let (data, programs) = labyrinth::build(&mut dpu, &shared, config, 4, 42);
    let report = Scheduler::new().run(&mut dpu, programs);
    data.validate(&dpu).expect("the committed grid and queue are well-formed");
    let grid: Vec<u64> = (0..config.cells()).map(|i| peek_var(&dpu, data.cell(i))).collect();
    LabyrinthGolden {
        kind,
        commits: report.total_commits(),
        aborts: report.total_aborts(),
        makespan_cycles: report.makespan_cycles,
        dma_setups: report.total_mram_dma_setups(),
        dma_words: report.total_mram_dma_words(),
        grid_fingerprint: fnv1a(&grid),
    }
}

/// The Labyrinth goldens, one per design. The Lee expansion and backtrack
/// are host-side loops around modelled accesses: a rewrite of those loops
/// must leave every modelled charge, its order and the routed grid as
/// pinned here.
const LABYRINTH_GOLDENS: [LabyrinthGolden; 7] = [
    LabyrinthGolden {
        kind: StmKind::TinyCtlWb,
        commits: 44,
        aborts: 13,
        makespan_cycles: 8326076,
        dma_setups: 64133,
        dma_words: 104103,
        grid_fingerprint: 0x9917c72824120dc5,
    },
    LabyrinthGolden {
        kind: StmKind::TinyEtlWb,
        commits: 44,
        aborts: 22,
        makespan_cycles: 9712048,
        dma_setups: 72631,
        dma_words: 123330,
        grid_fingerprint: 0x9cee200a8674ba84,
    },
    LabyrinthGolden {
        kind: StmKind::TinyEtlWt,
        commits: 44,
        aborts: 20,
        makespan_cycles: 7421171,
        dma_setups: 55894,
        dma_words: 95778,
        grid_fingerprint: 0x924caa6ef49a38c4,
    },
    LabyrinthGolden {
        kind: StmKind::Norec,
        commits: 44,
        aborts: 13,
        makespan_cycles: 7532308,
        dma_setups: 57084,
        dma_words: 95520,
        grid_fingerprint: 0x9917c72824120dc5,
    },
    LabyrinthGolden {
        kind: StmKind::VrEtlWt,
        commits: 44,
        aborts: 27,
        makespan_cycles: 7133033,
        dma_setups: 53492,
        dma_words: 91842,
        grid_fingerprint: 0x9eec3456eb716364,
    },
    LabyrinthGolden {
        kind: StmKind::VrEtlWb,
        commits: 44,
        aborts: 31,
        makespan_cycles: 8741995,
        dma_setups: 65562,
        dma_words: 110128,
        grid_fingerprint: 0x9eec3456eb716364,
    },
    LabyrinthGolden {
        kind: StmKind::VrCtlWb,
        commits: 44,
        aborts: 46,
        makespan_cycles: 10782421,
        dma_setups: 82461,
        dma_words: 134706,
        grid_fingerprint: 0xc1c3da3e49950fa5,
    },
];

/// The Labyrinth anchor: every design on the scaled small grid.
#[test]
fn labyrinth_matches_the_pinned_goldens() {
    for golden in &LABYRINTH_GOLDENS {
        assert_eq!(
            &run_labyrinth_golden_cell(golden.kind),
            golden,
            "{} (labyrinth): a modelled count, the cycle count or the routed grid moved",
            golden.kind
        );
    }
    for kind in StmKind::ALL {
        assert!(
            LABYRINTH_GOLDENS.iter().any(|g| g.kind == kind),
            "{kind} has no pinned labyrinth golden"
        );
    }
}

/// One pinned golden of a high-contention list or KMeans cell (scale 0.2,
/// 4 tasklets, seed 42, MRAM metadata, the STM configuration `RunSpec`
/// gives the workload) for one design: the protocol outcome, the MRAM DMA
/// traffic and a fingerprint of the committed state. The list walks one
/// node per step and KMeans scans one centroid per step between its
/// transactions, so a tasklet that takes a step more or fewer, or takes
/// them in another order, moves the cycle count.
#[derive(Debug, PartialEq, Eq)]
struct CellGolden {
    kind: StmKind,
    commits: u64,
    aborts: u64,
    makespan_cycles: u64,
    dma_setups: u64,
    dma_words: u64,
    state_fingerprint: u64,
}

/// Runs one golden cell of `workload` for `kind` through the workload's
/// `build`, the construction every simulated run uses.
fn run_cell_golden(workload: Workload, kind: StmKind) -> CellGolden {
    let (tasklets, seed, scale) = (4, 42, 0.2);
    let spec = RunSpec::new(workload, kind, MetadataPlacement::Mram, tasklets);
    let mut dpu = Dpu::new(DpuConfig::default());
    let shared = StmShared::allocate(&mut dpu, spec.stm_config()).expect("metadata fits");
    let run = |dpu: &mut Dpu, programs| Scheduler::new().run(dpu, programs);
    let (report, state) = match workload {
        Workload::ListHc => {
            let config = LinkedListConfig::high_contention().scaled(scale);
            let (data, programs) = linked_list::build(&mut dpu, &shared, config, tasklets, seed);
            (run(&mut dpu, programs), data.snapshot(&dpu))
        }
        Workload::KmeansHc => {
            let config = KmeansConfig::high_contention().scaled(scale);
            let (data, programs) = kmeans::build(&mut dpu, &shared, config, tasklets, seed);
            let report = run(&mut dpu, programs);
            (
                report,
                (0..data.centroids.len()).map(|i| peek_var(&dpu, data.centroids.at(i))).collect(),
            )
        }
        other => unreachable!("no golden cell for {other}"),
    };
    CellGolden {
        kind,
        commits: report.total_commits(),
        aborts: report.total_aborts(),
        makespan_cycles: report.makespan_cycles,
        dma_setups: report.total_mram_dma_setups(),
        dma_words: report.total_mram_dma_words(),
        state_fingerprint: fnv1a(&state),
    }
}

/// The list-hc goldens, one per design.
const LIST_GOLDENS: [CellGolden; 7] = [
    CellGolden {
        kind: StmKind::TinyCtlWb,
        commits: 80,
        aborts: 13,
        makespan_cycles: 796936,
        dma_setups: 8814,
        dma_words: 8827,
        state_fingerprint: 0x9e2b585f4112d13e,
    },
    CellGolden {
        kind: StmKind::TinyEtlWb,
        commits: 80,
        aborts: 17,
        makespan_cycles: 727596,
        dma_setups: 8058,
        dma_words: 8070,
        state_fingerprint: 0x21544e4858015371,
    },
    CellGolden {
        kind: StmKind::TinyEtlWt,
        commits: 80,
        aborts: 17,
        makespan_cycles: 728914,
        dma_setups: 8092,
        dma_words: 8092,
        state_fingerprint: 0x21544e4858015371,
    },
    CellGolden {
        kind: StmKind::Norec,
        commits: 80,
        aborts: 35,
        makespan_cycles: 718740,
        dma_setups: 7996,
        dma_words: 8012,
        state_fingerprint: 0x9e2b585f4112d13e,
    },
    CellGolden {
        kind: StmKind::VrEtlWt,
        commits: 80,
        aborts: 54,
        makespan_cycles: 1389056,
        dma_setups: 12547,
        dma_words: 12547,
        state_fingerprint: 0x928b5ce533e9194f,
    },
    CellGolden {
        kind: StmKind::VrEtlWb,
        commits: 80,
        aborts: 44,
        makespan_cycles: 1603523,
        dma_setups: 12189,
        dma_words: 12203,
        state_fingerprint: 0x928b5ce533e9194f,
    },
    CellGolden {
        kind: StmKind::VrCtlWb,
        commits: 80,
        aborts: 52,
        makespan_cycles: 1441100,
        dma_setups: 12993,
        dma_words: 13005,
        state_fingerprint: 0x928b5ce533e9194f,
    },
];

/// The kmeans-hc goldens, one per design.
const KMEANS_GOLDENS: [CellGolden; 7] = [
    CellGolden {
        kind: StmKind::TinyCtlWb,
        commits: 80,
        aborts: 69,
        makespan_cycles: 6663815,
        dma_setups: 72260,
        dma_words: 73380,
        state_fingerprint: 0xbdade40bf3c9081e,
    },
    CellGolden {
        kind: StmKind::TinyEtlWb,
        commits: 80,
        aborts: 304,
        makespan_cycles: 3105780,
        dma_setups: 32441,
        dma_words: 33561,
        state_fingerprint: 0xbdade40bf3c9081e,
    },
    CellGolden {
        kind: StmKind::TinyEtlWt,
        commits: 80,
        aborts: 288,
        makespan_cycles: 3044626,
        dma_setups: 31568,
        dma_words: 31568,
        state_fingerprint: 0xbdade40bf3c9081e,
    },
    CellGolden {
        kind: StmKind::Norec,
        commits: 80,
        aborts: 88,
        makespan_cycles: 5579786,
        dma_setups: 53952,
        dma_words: 55072,
        state_fingerprint: 0xbdade40bf3c9081e,
    },
    CellGolden {
        kind: StmKind::VrEtlWt,
        commits: 80,
        aborts: 235,
        makespan_cycles: 3397122,
        dma_setups: 32635,
        dma_words: 32635,
        state_fingerprint: 0xbdade40bf3c9081e,
    },
    CellGolden {
        kind: StmKind::VrEtlWb,
        commits: 80,
        aborts: 300,
        makespan_cycles: 3269237,
        dma_setups: 33980,
        dma_words: 35100,
        state_fingerprint: 0xbdade40bf3c9081e,
    },
    CellGolden {
        kind: StmKind::VrCtlWb,
        commits: 80,
        aborts: 211,
        makespan_cycles: 13500841,
        dma_setups: 141474,
        dma_words: 142594,
        state_fingerprint: 0xbdade40bf3c9081e,
    },
];

/// The list and KMeans anchors: every design on the high-contention cell.
#[test]
fn list_and_kmeans_match_the_pinned_goldens() {
    for (workload, goldens) in
        [(Workload::ListHc, &LIST_GOLDENS), (Workload::KmeansHc, &KMEANS_GOLDENS)]
    {
        for golden in goldens {
            assert_eq!(
                &run_cell_golden(workload, golden.kind),
                golden,
                "{} ({workload}): a modelled count, the cycle count or the committed state moved",
                golden.kind
            );
        }
        for kind in StmKind::ALL {
            assert!(
                goldens.iter().any(|g| g.kind == kind),
                "{kind} has no pinned {workload} golden"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Simulator determinism over the whole design space: the same seeded
    /// cell replayed twice produces the identical outcome — commits,
    /// histograms, memory, cycle count. This is the property the goldens
    /// lean on (a nondeterministic simulator would make pinned literals
    /// meaningless), kept live over arbitrary seeds and tasklet counts.
    #[test]
    fn seeded_cells_replay_bit_identically(
        kind_index in 0usize..StmKind::ALL.len(),
        mram_metadata in any::<bool>(),
        tasklets in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let kind = StmKind::ALL[kind_index];
        let placement =
            if mram_metadata { MetadataPlacement::Mram } else { MetadataPlacement::Wram };
        let cfg = ArrayBenchConfig::workload_b().scaled(0.1);
        let stm = stm_config(kind, placement, &cfg);
        let first = run_sim(stm, cfg, tasklets, seed);
        let second = run_sim(stm, cfg, tasklets, seed);
        prop_assert_eq!(first, second);
    }
}

/// The `LockOrder` outcome contract for grouped update records: sorted
/// multi-ORec acquisition may reorder platform operations relative to the
/// legacy per-word `RecordOrder` path, but on uncontended cells the
/// *outcome* — final memory, commit count, zero aborts — must be identical.
#[test]
fn write_record_lock_orders_agree_on_uncontended_outcomes() {
    let cfg = ArrayBenchConfig::workload_b().with_update_record_words(4).scaled(0.1);
    for kind in StmKind::ALL {
        let ordered = |lock_order| {
            stm_config(kind, MetadataPlacement::Mram, &cfg)
                .with_knobs(StmKnobs { lock_order, ..StmKnobs::default() })
        };
        let (record_order, sorted) =
            (ordered(LockOrder::RecordOrder), ordered(LockOrder::AddressSorted));
        let legacy_path = run_sim(record_order, cfg, 1, 9);
        let sorted_path = run_sim(sorted, cfg, 1, 9);
        assert_eq!(
            legacy_path.memory, sorted_path.memory,
            "{kind}: acquisition order changed memory"
        );
        assert_eq!(
            legacy_path.commits, sorted_path.commits,
            "{kind}: acquisition order lost commits"
        );
        assert_eq!(legacy_path.aborts, 0, "{kind}: single tasklet never conflicts");
        assert_eq!(sorted_path.aborts, 0, "{kind}: single tasklet never conflicts");
    }
}

/// Threaded outcome of one cell: commits, aborts and the conserved
/// update-region sum.
fn run_threaded_cell(
    kind: StmKind,
    cfg: ArrayBenchConfig,
    tasklets: usize,
    seed: u64,
) -> (u64, u64, u64) {
    let stm = stm_config(kind, MetadataPlacement::Mram, &cfg);
    let mut dpu = ThreadedDpu::new(stm).expect("metadata fits");
    let (data, report) = run_threaded(&mut dpu, cfg, tasklets, seed).expect("run schedulable");
    (report.commits, report.aborts, data.update_region_sum(&dpu))
}

/// Single-tasklet threaded runs are outcome-deterministic: every design
/// must commit every transaction, abort never, and apply the analytically
/// known number of updates.
#[test]
fn threaded_single_tasklet_outcomes_are_exact_for_every_kind() {
    let cfg = ArrayBenchConfig::workload_b().scaled(0.2);
    let expected_commits = u64::from(cfg.transactions_per_tasklet);
    let expected_sum = expected_commits * u64::from(cfg.updates_applied_per_tx());
    for kind in StmKind::ALL {
        let (commits, aborts, sum) = run_threaded_cell(kind, cfg, 1, 42);
        assert_eq!(commits, expected_commits, "{kind}: lost transactions");
        assert_eq!(aborts, 0, "{kind}: single-tasklet runs never abort");
        assert_eq!(sum, expected_sum, "{kind}: threaded final state diverged");
    }
}

/// Contended threaded runs are nondeterministic in interleaving but not in
/// outcome (ArrayBench increments commute): every design must conserve the
/// same committed total under genuine concurrency.
#[test]
fn threaded_contended_runs_conserve_the_final_state_for_every_kind() {
    let cfg = ArrayBenchConfig::workload_b().scaled(0.25);
    let tasklets = 4;
    let expected_commits = u64::from(cfg.transactions_per_tasklet) * tasklets as u64;
    let expected_sum = expected_commits * u64::from(cfg.updates_applied_per_tx());
    for kind in StmKind::ALL {
        let (commits, _, sum) = run_threaded_cell(kind, cfg, tasklets, 7);
        assert_eq!(commits, expected_commits, "{kind}: lost transactions");
        assert_eq!(sum, expected_sum, "{kind}: lost updates");
    }
}
