//! `sim-short-tx` and `sim-long-tx`: the serial simulator driven cell by
//! cell through the public builders, so set-up (DPU, STM metadata,
//! programs) and the scheduler run are timed apart.
//!
//! The two workloads push the same `pim-sim`/`pim-stm` layers in opposite
//! directions. Short: tiny contended transactions at 24 tasklets — the most
//! scheduler steps and aborts per second, so the scheduler's per-step scan
//! and context construction are the largest share of host time. Long: few
//! fat steps at 4 tasklets (record DMA, private-grid BFS), so memory block
//! operations and the workload bodies dominate. A scheduler-only
//! optimisation must show on short and predict no change on long.

use super::{label, stm_profile_metrics};
use crate::harness::{Checks, Workload};
use crate::metric::MetricSet;
use crate::probes;
use crate::stats::geomean;
use crate::trace::{self, Span, Tracer};
use pim_sim::{Dpu, DpuConfig, DpuRunReport, Scheduler, StepStatus, TaskletCtx, TaskletProgram};
use pim_stm::{ExecProfile, MetadataPlacement, StmKind, StmShared, TimeDomain};
use pim_workloads::array_bench::{self, ArrayBenchConfig, ArrayBenchData};
use pim_workloads::kmeans::{self, KmeansConfig, KmeansData};
use pim_workloads::labyrinth::{self, LabyrinthConfig, LabyrinthData};
use pim_workloads::linked_list::{self, LinkedListConfig, LinkedListData};
use pim_workloads::spec::Executor;
use pim_workloads::{RunSpec, Workload as Paper};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Handles to a cell's shared data, kept to read the committed state back
/// through the workloads' public accessors.
enum Data {
    Array(ArrayBenchData, ArrayBenchConfig),
    List(LinkedListData),
    Kmeans(KmeansData),
    Labyrinth(LabyrinthData),
}

impl Data {
    /// The conservation law of the committed state, from public accessors.
    fn validate(&self, dpu: &Dpu, commits: u64) -> Result<(), String> {
        match self {
            Data::Array(data, config) => {
                let want = commits * u64::from(config.updates_applied_per_tx());
                let sum = data.update_region_sum(dpu);
                (sum == want)
                    .then_some(())
                    .ok_or(format!("update region sums to {sum}, want {want}"))
            }
            Data::List(data) => {
                let keys = data.snapshot(dpu);
                keys.windows(2).all(|w| w[0] < w[1]).then_some(()).ok_or("list not sorted".into())
            }
            Data::Kmeans(data) => {
                let members = data.totals(dpu).0;
                (members == commits)
                    .then_some(())
                    .ok_or(format!("{members} members, want {commits}"))
            }
            Data::Labyrinth(data) => data.validate(dpu),
        }
    }
}

/// Steps taken and host time spent inside one cell's programs.
#[derive(Default)]
struct Tally {
    steps: Cell<u64>,
    ns: Cell<u64>,
}

/// Counts and times the steps of the program it wraps (traced rep only).
struct Timed {
    inner: Box<dyn TaskletProgram>,
    tally: Rc<Tally>,
}

impl TaskletProgram for Timed {
    fn step(&mut self, ctx: &mut TaskletCtx<'_>) -> StepStatus {
        let start = Instant::now();
        let status = self.inner.step(ctx);
        self.tally.ns.set(self.tally.ns.get() + start.elapsed().as_nanos() as u64);
        self.tally.steps.set(self.tally.steps.get() + 1);
        status
    }
}

pub struct PreparedCell {
    dpu: Dpu,
    data: Data,
    programs: Vec<Box<dyn TaskletProgram>>,
    tally: Rc<Tally>,
}

pub struct CellRun {
    dpu: Dpu,
    data: Data,
    report: DpuRunReport,
    steps: u64,
}

/// A fixed list of single-DPU cells.
pub struct Panel {
    cells: Vec<RunSpec>,
}

impl Workload for Panel {
    type Prepared = Vec<PreparedCell>;
    type Output = Vec<CellRun>;

    fn cells(&self) -> Vec<String> {
        self.cells.iter().map(label).collect()
    }

    fn prepare(&self, tracer: &Tracer) -> Vec<PreparedCell> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let i = i as u32;
                let mut dpu = tracer.span("pim-sim/Dpu::new", i, || Dpu::new(DpuConfig::default()));
                let shared = tracer.span("pim-stm/StmShared::allocate", i, || {
                    StmShared::allocate(&mut dpu, spec.stm_config()).expect("STM metadata fits")
                });
                let (data, mut programs) =
                    tracer.span("pim-workloads/build", i, || build(spec, &mut dpu, &shared));
                let tally = Rc::new(Tally::default());
                if tracer.on() {
                    programs = programs
                        .into_iter()
                        .map(|inner| {
                            Box::new(Timed { inner, tally: Rc::clone(&tally) })
                                as Box<dyn TaskletProgram>
                        })
                        .collect();
                }
                PreparedCell { dpu, data, programs, tally }
            })
            .collect()
    }

    fn run(&self, prepared: Vec<PreparedCell>, tracer: &Tracer) -> Vec<CellRun> {
        prepared
            .into_iter()
            .enumerate()
            .map(|(i, PreparedCell { mut dpu, data, programs, tally })| {
                let report = tracer.span("pim-sim/Scheduler::run", i as u32, || {
                    let report = Scheduler::new().run(&mut dpu, programs);
                    tracer.folded(
                        "pim-workloads/step",
                        i as u32,
                        tally.ns.get(),
                        tally.steps.get(),
                    );
                    report
                });
                CellRun { dpu, data, report, steps: tally.steps.get() }
            })
            .collect()
    }

    fn model_tx_per_s(&self, runs: &Vec<CellRun>) -> f64 {
        geomean(runs.iter().map(|r| r.report.throughput_tx_per_sec()))
    }

    fn digest(&self, runs: &Vec<CellRun>) -> Vec<u64> {
        runs.iter()
            .flat_map(|r| {
                [r.report.total_commits(), r.report.total_aborts(), r.report.makespan_cycles]
            })
            .collect()
    }

    /// Each cell against `RunSpec::run_on`, the path every figure and grid
    /// cell takes: its invariants must hold and the hand-built run must be
    /// the same simulation, cycle for cycle.
    fn verify(&self, runs: &Vec<CellRun>, checks: &mut Checks) {
        for (spec, run) in self.cells.iter().zip(runs) {
            let name = label(spec);
            let reference = spec.run_on(Executor::Simulator);
            checks.check(reference.invariant_violation.is_none(), || {
                format!("{name}: {}", reference.invariant_violation.clone().unwrap_or_default())
            });
            let sim = reference.sim.as_ref().expect("simulator runs carry the full report");
            checks.same(
                &format!("{name}: commits, aborts, makespan, DMA setups vs run_on"),
                (
                    run.report.total_commits(),
                    run.report.total_aborts(),
                    run.report.makespan_cycles,
                    run.report.total_mram_dma_setups(),
                ),
                (
                    sim.total_commits(),
                    sim.total_aborts(),
                    sim.makespan_cycles,
                    sim.total_mram_dma_setups(),
                ),
            );
            let state = run.data.validate(&run.dpu, run.report.total_commits());
            checks.check(state.is_ok(), || format!("{name}: {}", state.unwrap_err()));
        }
    }

    fn layers(&self, runs: &Vec<CellRun>, spans: &[Span], metrics: &mut MetricSet<'_>) {
        let run_s = trace::total_s(spans, "pim-sim/Scheduler::run");
        let sched_self_s = trace::total_self_s(spans, "pim-sim/Scheduler::run");
        let steps: u64 = runs.iter().map(|r| r.steps).sum();
        metrics.exact("pim-sim.steps", steps as f64);
        let cycles: u64 = runs.iter().map(|r| r.report.makespan_cycles).sum();
        metrics.exact("pim-sim.sim_cycles", cycles as f64);
        let setups: u64 = runs.iter().map(|r| r.report.total_mram_dma_setups()).sum();
        metrics.exact("pim-sim.dma_setups", setups as f64);
        let words: u64 = runs.iter().map(|r| r.report.total_mram_dma_words()).sum();
        metrics.exact("pim-sim.dma_words", words as f64);
        metrics.wall("pim-sim.steps_per_wall_s", steps as f64 / run_s);
        metrics.wall("pim-sim.sched_self_s", sched_self_s);
        metrics.wall("pim-sim.sched_self_share", sched_self_s / run_s);
        metrics.wall("pim-sim.dpu_new_s", trace::total_s(spans, "pim-sim/Dpu::new"));

        let mut profile = ExecProfile::new(TimeDomain::Cycles);
        for stats in runs.iter().flat_map(|r| &r.report.tasklet_stats) {
            profile.merge(&ExecProfile::from_sim(stats));
        }
        stm_profile_metrics(&profile, metrics);

        metrics.wall("pim-workloads.build_s", trace::total_s(spans, "pim-workloads/build"));
        metrics.wall("pim-workloads.step_s", trace::total_s(spans, "pim-workloads/step"));
        let start = Instant::now();
        for run in runs {
            run.data
                .validate(&run.dpu, run.report.total_commits())
                .expect("verified on the warm-up");
        }
        metrics.wall("pim-workloads.validate_s", start.elapsed().as_secs_f64());
        let mut papers: Vec<Paper> = self.cells.iter().map(|c| c.workload).collect();
        papers.sort_unstable();
        papers.dedup();
        for paper in papers {
            let seconds: f64 = spans
                .iter()
                .filter(|s| s.name == "pim-sim/Scheduler::run")
                .filter(|s| self.cells[s.cell as usize].workload == paper)
                .map(Span::seconds)
                .sum();
            metrics.wall(&format!("pim-workloads.cell_wall_s.{paper}"), seconds);
        }

        probes::scheduler(metrics);
        probes::ctx(metrics);
        probes::stm(metrics);
    }
}

/// The programs of one cell through the workload's public `build`, with
/// the same configuration `RunSpec` derives (checked in `Panel::verify`).
fn build(
    spec: &RunSpec,
    dpu: &mut Dpu,
    shared: &StmShared,
) -> (Data, Vec<Box<dyn TaskletProgram>>) {
    let (tasklets, seed, scale) = (spec.tasklets, spec.seed, spec.scale);
    let array = |config: ArrayBenchConfig, dpu: &mut Dpu| {
        let config = config.scaled(scale);
        let (data, programs) = array_bench::build(dpu, shared, config, tasklets, seed);
        (Data::Array(data, config), programs)
    };
    let list = |config: LinkedListConfig, dpu: &mut Dpu| {
        let (data, programs) =
            linked_list::build(dpu, shared, config.scaled(scale), tasklets, seed);
        (Data::List(data), programs)
    };
    let means = |config: KmeansConfig, dpu: &mut Dpu| {
        let (data, programs) = kmeans::build(dpu, shared, config.scaled(scale), tasklets, seed);
        (Data::Kmeans(data), programs)
    };
    let maze = |config: LabyrinthConfig, dpu: &mut Dpu| {
        let (data, programs) = labyrinth::build(dpu, shared, config.scaled(scale), tasklets, seed);
        (Data::Labyrinth(data), programs)
    };
    match spec.workload {
        Paper::ArrayA => array(ArrayBenchConfig::workload_a(), dpu),
        Paper::ArrayB => array(ArrayBenchConfig::workload_b(), dpu),
        Paper::ListLc => list(LinkedListConfig::low_contention(), dpu),
        Paper::ListHc => list(LinkedListConfig::high_contention(), dpu),
        Paper::KmeansLc => means(KmeansConfig::low_contention(), dpu),
        Paper::KmeansHc => means(KmeansConfig::high_contention(), dpu),
        Paper::LabyrinthS => maze(LabyrinthConfig::small(), dpu),
        Paper::LabyrinthM => maze(LabyrinthConfig::medium(), dpu),
        Paper::LabyrinthL => maze(LabyrinthConfig::large(), dpu),
    }
}

/// One cell per STM design. Each cell draws its own seed so that a lucky or
/// unlucky input does not hit all seven designs of a row at once.
fn row(
    cells: &mut Vec<RunSpec>,
    seed: u64,
    paper: Paper,
    kinds: &[StmKind],
    placement: MetadataPlacement,
    tasklets: usize,
    scale: f64,
) {
    for &kind in kinds {
        let cell_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(cells.len() as u64);
        cells.push(
            RunSpec::new(paper, kind, placement, tasklets).with_scale(scale).with_seed(cell_seed),
        );
    }
}

/// `sim-short-tx`.
pub fn short(seed: u64, size: f64) -> Panel {
    use MetadataPlacement::{Mram, Wram};
    let mut cells = Vec::new();
    row(&mut cells, seed, Paper::ArrayB, &StmKind::ALL, Mram, 24, 1.0 * size);
    row(&mut cells, seed, Paper::ListHc, &StmKind::ALL, Mram, 24, 4.0 * size);
    // 11 tasklets, not 24: at 24 the abort storm of VR CTLWB on two
    // centroids swings 330–600 ms of host time from seed to seed, which
    // alone exceeds the bound on `wall_s`.
    row(&mut cells, seed, Paper::KmeansHc, &StmKind::ALL, Mram, 11, 2.0 * size);
    // The metadata-tier axis of Fig. 9/10.
    row(&mut cells, seed, Paper::ArrayB, &StmKind::ALL, Wram, 11, 1.5 * size);
    Panel { cells }
}

/// `sim-long-tx`.
pub fn long(seed: u64, size: f64) -> Panel {
    use MetadataPlacement::Mram;
    let mut cells = Vec::new();
    row(&mut cells, seed, Paper::ArrayA, &StmKind::ALL, Mram, 4, 8.0 * size);
    row(&mut cells, seed, Paper::LabyrinthM, &StmKind::ALL, Mram, 4, 2.0 * size);
    row(&mut cells, seed, Paper::LabyrinthL, &[StmKind::Norec], Mram, 4, 0.5 * size);
    Panel { cells }
}
