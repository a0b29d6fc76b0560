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

use crate::report::{fmt_f64, render_table};

/// The five workloads of the multi-DPU study, in the order of Fig. 8.
pub const MULTI_DPU_WORKLOADS: [Workload; 5] = [
    Workload::LabyrinthS,
    Workload::LabyrinthM,
    Workload::LabyrinthL,
    Workload::KmeansLc,
    Workload::KmeansHc,
];

/// The label Fig. 7 and 8 give a multi-DPU workload, and the Labyrinth
/// grid each of its instances routes (`None` for KMeans).
///
/// # Panics
///
/// Panics for a workload outside [`MULTI_DPU_WORKLOADS`].
fn shape(workload: Workload) -> (&'static str, Option<(usize, usize, usize)>) {
    match workload {
        Workload::KmeansLc => ("Kmeans LC", None),
        Workload::KmeansHc => ("Kmeans HC", None),
        Workload::LabyrinthS => ("Labyrinth S", Some((16, 16, 3))),
        Workload::LabyrinthM => ("Labyrinth M", Some((32, 32, 3))),
        Workload::LabyrinthL => ("Labyrinth L", Some((128, 128, 3))),
        other => panic!("{other} is not a multi-DPU workload"),
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

/// The speed-up/energy study for one workload (one curve of Fig. 7 plus its
/// Fig. 8 bar).
#[derive(Debug, Clone)]
pub struct MultiDpuStudy {
    /// Which of the [`MULTI_DPU_WORKLOADS`] this study describes.
    pub benchmark: Workload,
    /// Speed-up samples over the swept DPU counts.
    pub points: Vec<SpeedupPoint>,
    /// Energy gain (CPU energy / PIM energy) at the largest DPU count.
    pub energy_gain: f64,
    /// Speed-up at the largest DPU count.
    pub peak_speedup: f64,
}

impl MultiDpuStudy {
    /// Runs the study for `benchmark`, one of the [`MULTI_DPU_WORKLOADS`],
    /// sampling the DPU counts in `dpu_counts`. `scale` shrinks the
    /// reference workloads that are simulated/measured before linear
    /// extrapolation (1.0 reproduces the paper's sizes; benches use much
    /// smaller values).
    pub fn run(benchmark: Workload, dpu_counts: &[usize], scale: f64, seed: u64) -> Self {
        let transfer = CpuTransferModel::default();
        let energy = EnergyModel::default();
        let max_dpus = dpu_counts.iter().copied().max().unwrap_or(1);

        let grid = shape(benchmark).1;
        let (per_unit_dpu_seconds, per_unit_cpu_seconds, unit_bytes) = match grid {
            None => Self::kmeans_reference(benchmark, scale, seed),
            Some(grid) => Self::labyrinth_reference(benchmark, grid, scale, seed),
        };

        let mut points = Vec::new();
        for &n_dpus in dpu_counts {
            let pim_seconds = if let Some((w, h, d)) = grid {
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
            } else {
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
            };

            let cpu_seconds = if grid.is_some() {
                // n_dpus independent instances, solved by 4 parallel host
                // processes.
                per_unit_cpu_seconds * n_dpus as f64 / LABYRINTH_CPU_PROCESSES as f64
            } else {
                per_unit_cpu_seconds * (KMEANS_POINTS_PER_DPU * n_dpus as u64) as f64
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
    fn kmeans_reference(benchmark: Workload, scale: f64, seed: u64) -> (f64, f64, u64) {
        // DPU reference: one DPU at its best tasklet count, NOrec, WRAM
        // metadata (the paper's §4.3 configuration for KMeans).
        let spec = RunSpec::new(benchmark, StmKind::Norec, MetadataPlacement::Wram, 11)
            .with_scale(scale)
            .with_seed(seed);
        let report = spec.run();
        let simulated_points = report.total_commits() as f64;
        let dpu_per_point = report.makespan_seconds() / simulated_points * KMEANS_ROUNDS as f64;

        // CPU reference: actually run the host baseline on a scaled input.
        let reference_points = ((50_000.0 * scale) as usize).max(2_000);
        let host_config = if benchmark == Workload::KmeansLc {
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
    fn labyrinth_reference(
        workload: Workload,
        (w, h, d): (usize, usize, usize),
        scale: f64,
        seed: u64,
    ) -> (f64, f64, u64) {
        // DPU reference: NOrec with MRAM metadata (WRAM cannot hold the
        // logs), at the paper's saturation point of ~5 tasklets.
        let spec = RunSpec::new(workload, StmKind::Norec, MetadataPlacement::Mram, 5)
            .with_scale(scale)
            .with_seed(seed);
        let report = spec.run();
        let simulated_paths = (100.0 * scale).round().max(12.0);
        let dpu_per_instance = report.makespan_seconds() * (100.0 / simulated_paths);

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

    /// The label Fig. 7 and 8 print for this study's workload
    /// (`Kmeans LC`, `Labyrinth S`, ...).
    pub fn label(&self) -> &'static str {
        shape(self.benchmark).0
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
        format!("{}\n{}", self.label(), render_table(&header, &rows))
    }
}

/// Renders the Fig. 8 summary (speed-up and energy gain at the largest DPU
/// count) for a set of studies.
pub fn figure8_table(studies: &[MultiDpuStudy]) -> String {
    let header = ["benchmark", "speedup", "energy gain"].map(str::to_string).to_vec();
    let rows = studies
        .iter()
        .map(|s| vec![s.label().to_string(), fmt_f64(s.peak_speedup), fmt_f64(s.energy_gain)])
        .collect::<Vec<_>>();
    render_table(&header, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_names_roundtrip() {
        // Each figure label is its workload's CLI name, spelled for print.
        for w in MULTI_DPU_WORKLOADS {
            let name = shape(w).0.to_ascii_lowercase().replace(' ', "-");
            assert_eq!(Workload::parse(&name), Some(w));
        }
    }

    #[test]
    fn kmeans_speedup_grows_with_dpu_count() {
        let study = MultiDpuStudy::run(Workload::KmeansHc, &[1, 64, 512], 0.02, 5);
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
        let study = MultiDpuStudy::run(Workload::LabyrinthS, &[1, 256], 0.15, 5);
        assert!(study.points[0].speedup < study.points[1].speedup);
        let table = figure8_table(&[study]);
        assert!(table.contains("Labyrinth S"));
    }
}
