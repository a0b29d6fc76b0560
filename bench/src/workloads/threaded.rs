//! `threaded-2t`: the threaded executor on the wall clock, next to
//! `host-stm` NOrec as the fixed yardstick.
//!
//! The measured body never enters `pim-sim`: a simulator speed-up must not
//! move `wall_s` here, and the per-phase `Instant::now()` charging of the
//! threaded platform moves only this workload. The simulator appears only
//! in set-up, where it produces the reference fingerprints the threaded
//! results are checked against (commutative workloads end in the same
//! state on every executor) and the modeled throughput reported as
//! `model_tx_per_s`.

use super::{label, scaled};
use crate::harness::{Checks, Workload};
use crate::metric::MetricSet;
use crate::stats::geomean;
use crate::trace::{self, Span, Tracer};
use host_stm::norec::HostTm;
use pim_service::{run_service, ArrivalProcess, ServiceConfig, ServiceReport};
use pim_sim::SimRng;
use pim_stm::{MetadataPlacement, StmKind};
use pim_workloads::spec::{Executor, WorkloadReport};
use pim_workloads::{RunSpec, Workload as Paper};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const THREADS: [usize; 2] = [1, 2];
/// Cells of the yardstick's table and the cells one transaction moves.
const HOST_CELLS: u64 = 1024;
const HOST_TX_CELLS: usize = 4;

pub struct Threaded {
    /// One per paper workload × design × thread count; the seven designs
    /// of a row share a seed, so one simulator run is the reference for
    /// the whole row.
    cells: Vec<RunSpec>,
    /// One per commutative row: the simulator run whose fingerprint every
    /// design of that row must reproduce.
    references: Vec<RunSpec>,
    service: ServiceConfig,
    host_txs_per_thread: u64,
    seed: u64,
}

pub fn new(seed: u64, size: f64) -> Threaded {
    let rows = [
        (Paper::ArrayB, 12.0),
        (Paper::ArrayA, 1.0),
        (Paper::KmeansLc, 6.0),
        (Paper::ListLc, 12.0),
    ];
    let (mut cells, mut references) = (Vec::new(), Vec::new());
    for (row, &(paper, scale)) in rows.iter().enumerate() {
        for threads in THREADS {
            let row_seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(row as u64);
            let spec = |kind| {
                RunSpec::new(paper, kind, MetadataPlacement::Mram, threads)
                    .with_scale(scale * size)
                    .with_seed(row_seed)
            };
            cells.extend(
                StmKind::ALL
                    .into_iter()
                    .filter(|&kind| !phantom_increment(kind, threads))
                    .map(spec),
            );
            if paper.commutative() {
                references.push(spec(StmKind::Norec));
            }
        }
    }
    let service = ServiceConfig::new(ArrivalProcess::ClosedLoop)
        .with_tasklets(2)
        .with_keys(4096)
        .with_requests(scaled(20_000, size, 64))
        .with_seed(seed);
    Threaded { cells, references, service, host_txs_per_thread: scaled(100_000, size, 64), seed }
}

/// The one cell left out. At the commit this benchmark was defined on, Tiny
/// ETLWT on two real threads commits a phantom increment in about one
/// ArrayBench-B run in 200 ("update region sums to 38401, expected 38400"):
/// a defect for ROADMAP item 3 to fix, and until then a check that would
/// fail at random. Its one-thread cell stays.
fn phantom_increment(kind: StmKind, threads: usize) -> bool {
    kind == StmKind::TinyEtlWt && threads > 1
}

pub struct Prepared {
    references: Vec<WorkloadReport>,
    table: Vec<AtomicU64>,
}

/// One run of the yardstick at one thread count.
pub struct HostRun {
    threads: usize,
    commits: u64,
    table_sum: u64,
    seconds: f64,
}

pub struct Output {
    references: Vec<WorkloadReport>,
    reports: Vec<WorkloadReport>,
    service: ServiceReport,
    host: Vec<HostRun>,
}

impl Threaded {
    /// `host_txs_per_thread` NOrec transactions per thread, each moving one
    /// unit around [`HOST_TX_CELLS`] random cells: the table sum stays 0
    /// modulo 2^64 whatever the interleaving.
    fn host_run(&self, table: &[AtomicU64], threads: usize) -> HostRun {
        for cell in table {
            cell.store(0, Ordering::Relaxed);
        }
        let tm = HostTm::new();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for thread in 0..threads {
                let (tm, seed) = (&tm, self.seed);
                scope.spawn(move || {
                    let mut rng = SimRng::new(seed).fork(thread as u64);
                    for _ in 0..self.host_txs_per_thread {
                        let picks: [usize; HOST_TX_CELLS] =
                            std::array::from_fn(|_| rng.next_range(HOST_CELLS) as usize);
                        tm.run(|tx| {
                            for (i, &pick) in picks.iter().enumerate() {
                                let value = tx.read(&table[pick])?;
                                let moved = if i % 2 == 0 {
                                    value.wrapping_add(1)
                                } else {
                                    value.wrapping_sub(1)
                                };
                                tx.write(&table[pick], moved)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        HostRun {
            threads,
            commits: tm.commits(),
            table_sum: table
                .iter()
                .fold(0u64, |sum, c| sum.wrapping_add(c.load(Ordering::Relaxed))),
            seconds: start.elapsed().as_secs_f64(),
        }
    }

    fn reference_of(&self, cell: &RunSpec) -> Option<usize> {
        self.references
            .iter()
            .position(|r| (r.workload, r.tasklets) == (cell.workload, cell.tasklets))
    }
}

impl Workload for Threaded {
    type Prepared = Prepared;
    type Output = Output;

    fn cells(&self) -> Vec<String> {
        self.cells.iter().map(label).collect()
    }

    fn prepare(&self, tracer: &Tracer) -> Prepared {
        let references = self
            .references
            .iter()
            .map(|spec| {
                tracer.span("pim-workloads/RunSpec::run_on(simulator)", trace::NO_CELL, || {
                    spec.run_on(Executor::Simulator)
                })
            })
            .collect();
        Prepared { references, table: (0..HOST_CELLS).map(|_| AtomicU64::new(0)).collect() }
    }

    fn run(&self, prepared: Prepared, tracer: &Tracer) -> Output {
        let reports = self
            .cells
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                tracer.span("pim-workloads/RunSpec::run_on(threaded)", i as u32, || {
                    spec.run_on(Executor::Threaded)
                })
            })
            .collect();
        let service = tracer.span("pim-service/run_service(threaded)", trace::NO_CELL, || {
            run_service(&self.service, Executor::Threaded)
        });
        let host = THREADS
            .iter()
            .map(|&threads| {
                tracer.span("host-stm/HostTm::run", trace::NO_CELL, || {
                    self.host_run(&prepared.table, threads)
                })
            })
            .collect();
        Output { references: prepared.references, reports, service, host }
    }

    fn model_tx_per_s(&self, output: &Output) -> f64 {
        geomean(output.references.iter().map(|r| r.throughput_tx_per_sec().expect("simulator run")))
    }

    /// Aborts differ from run to run on real threads; commits and the
    /// commutative fingerprints do not.
    fn digest(&self, output: &Output) -> Vec<u64> {
        let cells = output
            .reports
            .iter()
            .flat_map(|r| [r.commits, if r.deterministic_final_state { r.fingerprint } else { 0 }]);
        cells
            .chain([output.service.completed])
            .chain(output.host.iter().map(|h| h.commits))
            .collect()
    }

    fn verify(&self, output: &Output, checks: &mut Checks) {
        for reference in &output.references {
            checks.check(reference.invariant_violation.is_none(), || {
                format!("{} reference: {:?}", label(&reference.spec), reference.invariant_violation)
            });
        }
        for (spec, report) in self.cells.iter().zip(&output.reports) {
            let name = label(spec);
            checks.check(report.invariant_violation.is_none(), || {
                format!("{name}: {}", report.invariant_violation.clone().unwrap_or_default())
            });
            if let Some(reference) = self.reference_of(spec) {
                checks.same(
                    &format!("{name}: fingerprint, threaded vs simulator"),
                    report.fingerprint,
                    output.references[reference].fingerprint,
                );
            }
        }
        checks.same(
            "threaded service completed == requests",
            output.service.completed,
            self.service.requests,
        );
        for host in &output.host {
            let what = format!("host NOrec at {} threads", host.threads);
            checks.same(
                &format!("{what}: commits"),
                host.commits,
                self.host_txs_per_thread * host.threads as u64,
            );
            checks.same(&format!("{what}: table sum is conserved"), host.table_sum, 0);
        }
    }

    fn layers(&self, output: &Output, spans: &[Span], metrics: &mut MetricSet<'_>) {
        // The acceptance contrast: no simulator step inside the measured body.
        metrics.exact("pim-sim.steps", 0.0);
        let mut per_s = [0.0; 2];
        for (slot, threads) in THREADS.iter().enumerate() {
            let (mut commits, mut seconds) = (0u64, 0.0);
            for span in spans.iter().filter(|s| s.name == "pim-workloads/RunSpec::run_on(threaded)")
            {
                if self.cells[span.cell as usize].tasklets == *threads {
                    commits += output.reports[span.cell as usize].commits;
                    seconds += span.seconds();
                }
            }
            per_s[slot] = commits as f64 / seconds;
            metrics.wall(&format!("pim-stm.threaded_commits_per_s.{threads}t"), per_s[slot]);
        }
        metrics.wall("pim-stm.threaded_scaling_2t", per_s[1] / per_s[0]);
        let two: Vec<&WorkloadReport> =
            output.reports.iter().filter(|r| r.spec.tasklets == 2).collect();
        let (commits, aborts) = two.iter().fold((0, 0), |(c, a), r| (c + r.commits, a + r.aborts));
        metrics.wall("pim-stm.threaded_abort_rate_2t", aborts as f64 / (commits + aborts) as f64);
        let mut host_per_s = [0.0; 2];
        for (slot, host) in output.host.iter().enumerate() {
            host_per_s[slot] = host.commits as f64 / host.seconds;
            metrics
                .wall(&format!("host-stm.norec_commits_per_s.{}t", host.threads), host_per_s[slot]);
        }
        // Both sides slow down together on a slower or busier machine, so
        // the ratio is the noise-robust reading of this workload's wall_s.
        metrics.wall("pim-stm.threaded_vs_host_norec", per_s[0] / host_per_s[0]);
        metrics
            .exact("pim-stm.commits", output.reports.iter().map(|r| r.commits).sum::<u64>() as f64);
    }
}
