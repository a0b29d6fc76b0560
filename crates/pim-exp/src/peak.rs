//! Figure 6: for each STM design, the distribution — across all workloads —
//! of the ratio between the best design's peak throughput and that design's
//! peak throughput (1.0 means "this design is the best for that workload";
//! lower is better).
//!
//! Fig. 6 is a fold over the cells of the sweep figures: Fig. 4/5 (MRAM
//! metadata) and Fig. 9/10 (WRAM metadata). It runs no cell of its own, so a
//! `--cache-dir` those figures filled replays every one.

use pim_stm::{MetadataPlacement, StmKind};
use pim_workloads::Workload;

use crate::design_space::DesignSpaceSweep;
use crate::report::{fmt_f64, render_table};

/// The normalised peak-throughput distribution of one metadata placement.
#[derive(Debug, Clone)]
pub struct PeakDistribution {
    /// Metadata placement the distribution was computed for.
    pub placement: MetadataPlacement,
    /// `(workload, design, best_peak / design_peak)` for every combination.
    pub ratios: Vec<(Workload, StmKind, f64)>,
}

impl PeakDistribution {
    /// Folds the sweeps of `placement` out of `sweeps` (sweeps of the other
    /// placement are skipped): each design's peak throughput over the swept
    /// tasklet counts, as a ratio to the best design's peak on the same
    /// workload. Workloads whose metadata cannot live in a tier (Labyrinth
    /// with WRAM) have no sweep there, as in the paper.
    pub fn from_sweeps(placement: MetadataPlacement, sweeps: &[DesignSpaceSweep]) -> Self {
        let mut ratios = Vec::new();
        for sweep in sweeps.iter().filter(|sweep| sweep.placement == placement) {
            let best = sweep.peak_throughput(sweep.best_design());
            for kind in StmKind::ALL {
                let peak = sweep.peak_throughput(kind);
                if peak > 0.0 {
                    ratios.push((sweep.workload, kind, best / peak));
                }
            }
        }
        PeakDistribution { placement, ratios }
    }

    /// All ratios of one design, sorted ascending.
    pub(crate) fn ratios_for(&self, kind: StmKind) -> Vec<f64> {
        let mut r: Vec<f64> =
            self.ratios.iter().filter(|(_, k, _)| *k == kind).map(|(_, _, v)| *v).collect();
        r.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        r
    }

    /// Arithmetic mean of one design's ratios (the paper ranks designs by
    /// this).
    pub(crate) fn mean_ratio(&self, kind: StmKind) -> f64 {
        let r = self.ratios_for(kind);
        if r.is_empty() {
            f64::NAN
        } else {
            r.iter().sum::<f64>() / r.len() as f64
        }
    }

    /// Median of one design's ratios.
    pub(crate) fn median_ratio(&self, kind: StmKind) -> f64 {
        let r = self.ratios_for(kind);
        if r.is_empty() {
            f64::NAN
        } else {
            r[r.len() / 2]
        }
    }

    /// Designs ordered from most to least competitive (ascending mean ratio)
    /// — the left-to-right order of the paper's box plot.
    pub(crate) fn ranking(&self) -> Vec<StmKind> {
        let mut kinds: Vec<StmKind> = StmKind::ALL.to_vec();
        kinds.sort_by(|a, b| {
            self.mean_ratio(*a).partial_cmp(&self.mean_ratio(*b)).expect("means are finite")
        });
        kinds
    }

    /// Renders the distribution as a table (min / median / mean / max per
    /// design, best-ranked first).
    pub fn table(&self) -> String {
        let header = ["design", "min", "median", "mean", "max"].map(str::to_string).to_vec();
        let rows = self
            .ranking()
            .into_iter()
            .map(|kind| {
                let r = self.ratios_for(kind);
                vec![
                    kind.name().to_string(),
                    fmt_f64(r.first().copied().unwrap_or(f64::NAN)),
                    fmt_f64(self.median_ratio(kind)),
                    fmt_f64(self.mean_ratio(kind)),
                    fmt_f64(r.last().copied().unwrap_or(f64::NAN)),
                ]
            })
            .collect::<Vec<_>>();
        render_table(&header, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_skips_infeasible_workloads_and_ranks_designs() {
        // Labyrinth has no WRAM sweep to fold (its logs exceed WRAM), and
        // the MRAM sweep is the other placement's.
        let sweeps = [
            DesignSpaceSweep::run(Workload::ArrayB, MetadataPlacement::Wram, &[2], 0.05, 3),
            DesignSpaceSweep::run(Workload::ArrayA, MetadataPlacement::Mram, &[2], 0.05, 3),
        ];
        let dist = PeakDistribution::from_sweeps(MetadataPlacement::Wram, &sweeps);
        // Only the WRAM sweep folds: exactly one workload and one ratio per
        // design.
        for kind in StmKind::ALL {
            assert_eq!(dist.ratios_for(kind).len(), 1, "{kind}");
            assert!(dist.mean_ratio(kind) >= 1.0, "{kind}: ratios are normalised to the best");
        }
        // Exactly one design is the per-workload best (ratio 1.0).
        let best = dist.ranking()[0];
        assert!((dist.mean_ratio(best) - 1.0).abs() < 1e-9);
        let table = dist.table();
        assert!(table.contains("median"));
    }
}
