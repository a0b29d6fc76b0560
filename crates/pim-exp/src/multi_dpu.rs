//! Figures 7 and 8: speed-up and energy gains of the multi-DPU ports of
//! KMeans and Labyrinth with respect to their CPU implementations.
//!
//! Methodology (matching §4.3 of the paper, with the substitutions listed
//! here):
//!
//! * **DPU side** — one representative DPU is simulated at its best tasklet
//!   count with the NOrec STM (the configuration the paper uses), and its
//!   per-unit-of-work time is extrapolated linearly to the full per-DPU
//!   workload (200 k points per DPU for KMeans, one routing instance per DPU
//!   for Labyrinth). Host↔DPU transfers and the CPU merge step are added
//!   through [`pim_sim::MultiDpuPlan`]; DPUs work in parallel, so the DPU
//!   compute time does not grow with the DPU count while the total input
//!   does.
//! * **CPU side** — the `host-stm` NOrec baseline is *actually executed* on
//!   this machine with the paper's thread counts (4 for KMeans, 4 × 8 for
//!   Labyrinth), on a reference input, and its per-unit-of-work time is
//!   extrapolated linearly to the total input size (which grows with the
//!   number of DPUs, as in the paper).
//! * **Energy** — UPMEM energy is TDP (370 W) × time, exactly the paper's
//!   estimate; CPU energy is package+DRAM power × time (RAPL substitute).

use pim_fleet::baseline::{
    KMEANS_CPU_THREADS, KMEANS_POINTS_PER_DPU, KMEANS_ROUNDS, LABYRINTH_CPU_PROCESSES,
    LABYRINTH_CPU_THREADS,
};
use pim_sim::{CpuTransferModel, EnergyModel, MultiDpuPlan, RoundPlan};
use pim_stm::{MetadataPlacement, StmKind};
use pim_workloads::{RunSpec, Workload};
use std::fmt;

use crate::report::{fmt_f64, render_table};

/// The five workloads of the multi-DPU study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiDpuBenchmark {
    /// KMeans, low contention (k = 15).
    KmeansLc,
    /// KMeans, high contention (k = 2).
    KmeansHc,
    /// Labyrinth on the 16×16×3 grid.
    LabyrinthS,
    /// Labyrinth on the 32×32×3 grid.
    LabyrinthM,
    /// Labyrinth on the 128×128×3 grid.
    LabyrinthL,
}

impl MultiDpuBenchmark {
    /// All benchmarks, in the order of Fig. 8.
    pub const ALL: [MultiDpuBenchmark; 5] = [
        MultiDpuBenchmark::LabyrinthS,
        MultiDpuBenchmark::LabyrinthM,
        MultiDpuBenchmark::LabyrinthL,
        MultiDpuBenchmark::KmeansLc,
        MultiDpuBenchmark::KmeansHc,
    ];

    /// Short label used in Fig. 8.
    pub fn label(self) -> &'static str {
        match self {
            MultiDpuBenchmark::KmeansLc => "Kmeans LC",
            MultiDpuBenchmark::KmeansHc => "Kmeans HC",
            MultiDpuBenchmark::LabyrinthS => "Labyrinth S",
            MultiDpuBenchmark::LabyrinthM => "Labyrinth M",
            MultiDpuBenchmark::LabyrinthL => "Labyrinth L",
        }
    }

    /// Parses a CLI name such as `kmeans-lc` or `labyrinth-l`.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "kmeans-lc" => Some(MultiDpuBenchmark::KmeansLc),
            "kmeans-hc" => Some(MultiDpuBenchmark::KmeansHc),
            "labyrinth-s" => Some(MultiDpuBenchmark::LabyrinthS),
            "labyrinth-m" => Some(MultiDpuBenchmark::LabyrinthM),
            "labyrinth-l" => Some(MultiDpuBenchmark::LabyrinthL),
            _ => None,
        }
    }

    fn is_kmeans(self) -> bool {
        matches!(self, MultiDpuBenchmark::KmeansLc | MultiDpuBenchmark::KmeansHc)
    }

    fn single_dpu_workload(self) -> Workload {
        match self {
            MultiDpuBenchmark::KmeansLc => Workload::KmeansLc,
            MultiDpuBenchmark::KmeansHc => Workload::KmeansHc,
            MultiDpuBenchmark::LabyrinthS => Workload::LabyrinthS,
            MultiDpuBenchmark::LabyrinthM => Workload::LabyrinthM,
            MultiDpuBenchmark::LabyrinthL => Workload::LabyrinthL,
        }
    }

    fn grid_dims(self) -> Option<(usize, usize, usize)> {
        match self {
            MultiDpuBenchmark::LabyrinthS => Some((16, 16, 3)),
            MultiDpuBenchmark::LabyrinthM => Some((32, 32, 3)),
            MultiDpuBenchmark::LabyrinthL => Some((128, 128, 3)),
            _ => None,
        }
    }
}

impl fmt::Display for MultiDpuBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One DPU-count sample of the speed-up curve.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupPoint {
    /// Number of DPUs used (and therefore the input-size multiplier).
    pub n_dpus: usize,
    /// End-to-end PIM execution time in seconds (DPU compute + transfers +
    /// host merge).
    pub pim_seconds: f64,
    /// CPU baseline execution time in seconds for the same total input.
    pub cpu_seconds: f64,
    /// `cpu_seconds / pim_seconds`.
    pub speedup: f64,
}

/// The speed-up/energy study for one benchmark (one curve of Fig. 7 plus its
/// Fig. 8 bar).
#[derive(Debug, Clone)]
pub struct MultiDpuStudy {
    /// Which benchmark this study describes.
    pub benchmark: MultiDpuBenchmark,
    /// Speed-up samples over the swept DPU counts.
    pub points: Vec<SpeedupPoint>,
    /// Energy gain (CPU energy / PIM energy) at the largest DPU count.
    pub energy_gain: f64,
    /// Speed-up at the largest DPU count.
    pub peak_speedup: f64,
}

impl MultiDpuStudy {
    /// Runs the study for `benchmark`, sampling the DPU counts in
    /// `dpu_counts`. `scale` shrinks the reference workloads that are
    /// simulated/measured before linear extrapolation (1.0 reproduces the
    /// paper's sizes; benches use much smaller values).
    pub fn run(benchmark: MultiDpuBenchmark, dpu_counts: &[usize], scale: f64, seed: u64) -> Self {
        let transfer = CpuTransferModel::default();
        let energy = EnergyModel::default();
        let max_dpus = dpu_counts.iter().copied().max().unwrap_or(1);

        let (per_unit_dpu_seconds, per_unit_cpu_seconds, unit_bytes) = if benchmark.is_kmeans() {
            Self::kmeans_reference(benchmark, scale, seed)
        } else {
            Self::labyrinth_reference(benchmark, scale, seed)
        };

        let mut points = Vec::new();
        for &n_dpus in dpu_counts {
            let pim_seconds = if benchmark.is_kmeans() {
                let mut plan = MultiDpuPlan::new(n_dpus);
                let round_compute =
                    per_unit_dpu_seconds * KMEANS_POINTS_PER_DPU as f64 / KMEANS_ROUNDS as f64;
                for round in 0..KMEANS_ROUNDS {
                    let scatter = if round == 0 {
                        // Points are scattered once, before the first round.
                        unit_bytes * KMEANS_POINTS_PER_DPU * n_dpus as u64
                    } else {
                        0
                    } + 4096 * n_dpus as u64; // fresh centroids each round
                    plan.push_round(RoundPlan {
                        dpu_compute_seconds: round_compute,
                        bytes_to_dpus: scatter,
                        bytes_from_dpus: 4096 * n_dpus as u64,
                        cpu_merge_seconds: 2e-8 * n_dpus as f64 * 64.0,
                        ..RoundPlan::default()
                    });
                }
                plan.execute(&transfer).total_seconds()
            } else {
                let (w, h, d) = benchmark.grid_dims().expect("labyrinth benchmark");
                let grid_bytes = (w * h * d * 8) as u64;
                let mut plan = MultiDpuPlan::new(n_dpus);
                plan.push_round(RoundPlan {
                    dpu_compute_seconds: per_unit_dpu_seconds,
                    bytes_to_dpus: grid_bytes * n_dpus as u64,
                    bytes_from_dpus: grid_bytes * n_dpus as u64,
                    cpu_merge_seconds: 1e-6 * n_dpus as f64,
                    ..RoundPlan::default()
                });
                plan.execute(&transfer).total_seconds()
            };

            let cpu_seconds = if benchmark.is_kmeans() {
                per_unit_cpu_seconds * (KMEANS_POINTS_PER_DPU * n_dpus as u64) as f64
            } else {
                // n_dpus independent instances, solved by 4 parallel host
                // processes.
                per_unit_cpu_seconds * n_dpus as f64 / LABYRINTH_CPU_PROCESSES as f64
            };

            points.push(SpeedupPoint {
                n_dpus,
                pim_seconds,
                cpu_seconds,
                speedup: cpu_seconds / pim_seconds,
            });
        }

        let last =
            points.iter().find(|p| p.n_dpus == max_dpus).copied().expect("dpu_counts is not empty");
        MultiDpuStudy {
            benchmark,
            points,
            energy_gain: energy.energy_gain(last.cpu_seconds, last.pim_seconds, max_dpus),
            peak_speedup: last.speedup,
        }
    }

    /// Simulates/measures the KMeans references and returns
    /// `(dpu_seconds_per_point_over_all_rounds, cpu_seconds_per_point_over_all_rounds, bytes_per_point)`.
    fn kmeans_reference(benchmark: MultiDpuBenchmark, scale: f64, seed: u64) -> (f64, f64, u64) {
        // DPU reference: one DPU at its best tasklet count, NOrec, WRAM
        // metadata (the paper's §4.3 configuration for KMeans).
        let spec = RunSpec::new(
            benchmark.single_dpu_workload(),
            StmKind::Norec,
            MetadataPlacement::Wram,
            11,
        )
        .with_scale(scale)
        .with_seed(seed);
        let report = spec.run();
        let simulated_points = report.total_commits() as f64;
        let dpu_per_point = report.makespan_seconds() / simulated_points * KMEANS_ROUNDS as f64;

        // CPU reference: actually run the host baseline on a scaled input.
        let reference_points = ((50_000.0 * scale) as usize).max(2_000);
        let host_config = if benchmark == MultiDpuBenchmark::KmeansLc {
            host_stm::kmeans::HostKmeansConfig::low_contention(reference_points, KMEANS_CPU_THREADS)
        } else {
            host_stm::kmeans::HostKmeansConfig::high_contention(
                reference_points,
                KMEANS_CPU_THREADS,
            )
        };
        let host = host_stm::kmeans::run(&host_config);
        let cpu_per_point = host.elapsed_seconds / reference_points as f64;

        // 14 dimensions × 4 bytes per feature scattered to the DPUs.
        (dpu_per_point, cpu_per_point, 14 * 4)
    }

    /// Simulates/measures the Labyrinth references and returns
    /// `(dpu_seconds_per_instance, cpu_seconds_per_instance, 0)`.
    fn labyrinth_reference(benchmark: MultiDpuBenchmark, scale: f64, seed: u64) -> (f64, f64, u64) {
        let workload = benchmark.single_dpu_workload();
        // DPU reference: NOrec with MRAM metadata (WRAM cannot hold the
        // logs), at the paper's saturation point of ~5 tasklets.
        let spec = RunSpec::new(workload, StmKind::Norec, MetadataPlacement::Mram, 5)
            .with_scale(scale)
            .with_seed(seed);
        let report = spec.run();
        let simulated_paths = (100.0 * scale).round().max(12.0);
        let dpu_per_instance = report.makespan_seconds() * (100.0 / simulated_paths);

        let (w, h, d) = benchmark.grid_dims().expect("labyrinth benchmark");
        let host_paths = ((100.0 * scale) as usize).max(12);
        let host_config = host_stm::labyrinth::HostLabyrinthConfig::with_grid(
            w,
            h,
            d,
            host_paths,
            LABYRINTH_CPU_THREADS,
        );
        let host = host_stm::labyrinth::run(&host_config);
        let cpu_per_instance = host.elapsed_seconds * (100.0 / host_paths as f64);

        (dpu_per_instance, cpu_per_instance, 0)
    }

    /// Renders the Fig. 7 speed-up curve as a table.
    pub fn speedup_table(&self) -> String {
        let header =
            ["#DPUs", "PIM time (s)", "CPU time (s)", "speedup"].map(str::to_string).to_vec();
        let rows = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.n_dpus.to_string(),
                    fmt_f64(p.pim_seconds),
                    fmt_f64(p.cpu_seconds),
                    fmt_f64(p.speedup),
                ]
            })
            .collect::<Vec<_>>();
        format!("{}\n{}", self.benchmark, render_table(&header, &rows))
    }
}

/// Renders the Fig. 8 summary (speed-up and energy gain at the largest DPU
/// count) for a set of studies.
pub fn figure8_table(studies: &[MultiDpuStudy]) -> String {
    let header = ["benchmark", "speedup", "energy gain"].map(str::to_string).to_vec();
    let rows = studies
        .iter()
        .map(|s| {
            vec![s.benchmark.label().to_string(), fmt_f64(s.peak_speedup), fmt_f64(s.energy_gain)]
        })
        .collect::<Vec<_>>();
    render_table(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names_roundtrip() {
        for b in MultiDpuBenchmark::ALL {
            let name = b.label().to_ascii_lowercase().replace(' ', "-");
            assert_eq!(MultiDpuBenchmark::parse(&name), Some(b));
        }
        assert_eq!(MultiDpuBenchmark::parse("unknown"), None);
    }

    #[test]
    fn kmeans_speedup_grows_with_dpu_count() {
        let study = MultiDpuStudy::run(MultiDpuBenchmark::KmeansHc, &[1, 64, 512], 0.02, 5);
        assert_eq!(study.points.len(), 3);
        // A single DPU is far slower than the CPU; adding DPUs increases the
        // input on the CPU side while PIM time stays ~constant, so speed-up
        // must grow monotonically.
        assert!(study.points[0].speedup < study.points[2].speedup);
        assert!(study.points[0].speedup < 1.0, "one DPU must not beat a multicore CPU");
        assert!(study.peak_speedup > 0.0);
        assert!(study.energy_gain > 0.0);
        assert!(study.speedup_table().contains("#DPUs"));
    }

    #[test]
    fn labyrinth_speedup_grows_with_dpu_count() {
        let study = MultiDpuStudy::run(MultiDpuBenchmark::LabyrinthS, &[1, 256], 0.15, 5);
        assert!(study.points[0].speedup < study.points[1].speedup);
        let table = figure8_table(&[study]);
        assert!(table.contains("Labyrinth S"));
    }
}
