//! The `--grid` full-grid design-space search: "the engine picks its own
//! STM", offline half.
//!
//! For one workload × metadata placement, this enumerates the *entire*
//! coherent composition × knob space —
//!
//! * the R × L × W composition grid ([`TmComposition::all`]), pruned to the
//!   paper's seven sound designs by [`TmComposition::is_coherent`];
//! * × retry policy ([`RetryPolicy::ALL`]);
//! * × record-read strategy ([`ReadStrategy::ALL`]);
//! * × commit write-back strategy ([`WriteBackStrategy::ALL`], only for
//!   write-back designs — write-through commits publish nothing, so the
//!   axis is degenerate there and enumerating it would double-count cells);
//! * × multi-ORec lock order ([`LockOrder::ALL`], only for encounter-time
//!   designs — commit-time designs acquire inside their commit protocol and
//!   never consult the knob);
//! * × a ladder of DMA burst caps —
//!
//! runs every cell once on the deterministic simulator under one seed, and
//! ranks the cells by committed throughput. The report names the best cell,
//! each cell's slowdown-vs-best, and — the actionable number — how far the
//! *static defaults* (the knobs a `pim-exp` run uses when nothing is
//! overridden) sit from the per-workload optimum. Closing that gap is an
//! offline choice: run the best cell's knobs as the static vector of the
//! next run.
//!
//! Axis collapsing is an *honesty* device, not a shortcut: a collapsed axis
//! is one the design provably never reads, so the enumerated set still
//! covers every distinguishable configuration. The
//! `enumeration_is_exactly_the_coherent_grid` test pins both directions —
//! no coherent composition is skipped, no incoherent one runs.

use pim_stm::config::DEFAULT_BURST_WORDS;
use pim_stm::{
    LockOrder, LockTiming, MetadataPlacement, ReadStrategy, RetryPolicy, StmKind, StmKnobs,
    TmComposition, WriteBackStrategy, WritePolicy,
};
use pim_workloads::spec::Executor;
use pim_workloads::{RunSpec, Workload};

use crate::cache::{CacheStats, SimCache};
use crate::design_space::run_cells;
use crate::pool::WorkerPool;
use crate::report::{fmt_f64, render_table};

/// Knobs of one `--grid` search beyond the workload × placement cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GridOptions {
    /// Scale factor applied to the workload size.
    pub scale: f64,
    /// PRNG seed every cell runs under (one run per cell — the simulator is
    /// deterministic, so repeats would re-measure the same numbers).
    pub seed: u64,
    /// Tasklet count of every cell.
    pub tasklets: usize,
    /// The burst-cap ladder (the eighth axis); each cap multiplies the
    /// knob grid.
    pub caps: Vec<u32>,
    /// ArrayBench record-grouping override (see
    /// [`crate::SweepOptions::record_words`]).
    pub record_words: Option<u32>,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions {
            scale: 1.0,
            seed: 42,
            tasklets: 8,
            caps: vec![16, DEFAULT_BURST_WORDS],
            record_words: None,
        }
    }
}

/// One enumerated configuration of the full grid (before it is run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCellSpec {
    /// The coherent composition, as the paper's design name.
    pub kind: StmKind,
    /// The knob vector; `write_back` is pinned to the default for
    /// write-through designs and `lock_order` for commit-time designs,
    /// which never consult them.
    pub knobs: StmKnobs,
}

impl GridCellSpec {
    /// Whether this cell runs the static default knob values — the
    /// configuration a plain `pim-exp` run (no overrides) uses.
    /// The default burst cap is [`DEFAULT_BURST_WORDS`] when the ladder
    /// includes it, otherwise the ladder's largest cap.
    pub fn is_default(&self, caps: &[u32]) -> bool {
        self.knobs == StmKnobs { max_burst_words: default_cap(caps), ..StmKnobs::default() }
    }
}

/// The burst cap the static defaults run under: [`DEFAULT_BURST_WORDS`] if
/// the ladder carries it, else the ladder's largest cap.
fn default_cap(caps: &[u32]) -> u32 {
    if caps.contains(&DEFAULT_BURST_WORDS) {
        DEFAULT_BURST_WORDS
    } else {
        caps.iter().copied().max().unwrap_or(DEFAULT_BURST_WORDS)
    }
}

/// One measured cell of the grid, ranked.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// The configuration that ran.
    pub spec: GridCellSpec,
    /// 1-based rank by committed throughput (1 = best).
    pub rank: usize,
    /// Committed transactions per simulated second.
    pub throughput_tx_per_sec: f64,
    /// Simulated makespan in seconds.
    pub makespan_seconds: f64,
    /// Merged total time over all tasklets, in cycles.
    pub total_time: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Aborted attempts / all attempts.
    pub abort_rate: f64,
    /// How much slower this cell is than the grid best
    /// (`best tx/s ÷ this tx/s`, ≥ 1.0; 1.0 for the best cell itself).
    pub slowdown_vs_best: f64,
    /// Whether this cell is the static-defaults configuration
    /// ([`GridCellSpec::is_default`]).
    pub is_default: bool,
}

/// The full-grid search result for one workload × placement cell: every
/// coherent composition × knob combination, ranked best-first.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearch {
    /// The workload that was run.
    pub workload: Workload,
    /// Where the STM metadata lived.
    pub placement: MetadataPlacement,
    /// Tasklet count of every cell.
    pub tasklets: usize,
    /// Scale factor applied to the workload size.
    pub scale: f64,
    /// PRNG seed every cell ran under.
    pub seed: u64,
    /// The burst-cap ladder that was swept.
    pub caps: Vec<u32>,
    /// All measured cells, ranked best-first (rank 1 first).
    pub cells: Vec<GridCell>,
    /// Simulation-cache movement attributable to *this* search (hits,
    /// misses, disk bytes) — the report panel behind `--cache-dir`.
    pub cache: CacheStats,
}

/// Enumerates the full coherent grid for one burst-cap ladder: every
/// coherent cell of [`TmComposition::all`] × the knob axes that design
/// actually reads (see the module docs for the collapsing rules) × `caps`.
pub fn enumerate_cells(caps: &[u32]) -> Vec<GridCellSpec> {
    let mut cells = Vec::new();
    for composition in TmComposition::all().filter(|c| c.is_coherent()) {
        let kind = composition
            .kind()
            .expect("every coherent composition maps onto one of the paper's seven designs");
        let write_backs: &[WriteBackStrategy] = match composition.write {
            WritePolicy::WriteBack => &WriteBackStrategy::ALL,
            WritePolicy::WriteThrough => &[WriteBackStrategy::Coalesced],
        };
        let lock_orders: &[LockOrder] = match composition.timing {
            LockTiming::Encounter => &LockOrder::ALL,
            LockTiming::Commit => &[LockOrder::AddressSorted],
        };
        for &retry in &RetryPolicy::ALL {
            for &read_strategy in &ReadStrategy::ALL {
                for &write_back in write_backs {
                    for &lock_order in lock_orders {
                        for &max_burst_words in caps {
                            let knobs = StmKnobs {
                                retry,
                                read_strategy,
                                write_back,
                                lock_order,
                                max_burst_words,
                            };
                            cells.push(GridCellSpec { kind, knobs });
                        }
                    }
                }
            }
        }
    }
    cells
}

impl GridSearch {
    /// Runs the full grid for one workload × placement on the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `options.caps` is empty, or if the workload cannot host
    /// its metadata in the requested tier.
    pub fn run(workload: Workload, placement: MetadataPlacement, options: GridOptions) -> Self {
        Self::run_with(workload, placement, options, &WorkerPool::default(), &SimCache::in_memory())
    }

    /// The cells of one grid: every [`enumerate_cells`] configuration as a
    /// run of `workload` × `placement` under `options`.
    pub fn specs(
        workload: Workload,
        placement: MetadataPlacement,
        options: &GridOptions,
    ) -> Vec<RunSpec> {
        let spec = |cell: GridCellSpec| RunSpec {
            record_words: options.record_words,
            ..RunSpec::new(workload, cell.kind, placement, options.tasklets)
                .with_scale(options.scale)
                .with_seed(options.seed)
                .with_knobs(cell.knobs)
        };
        enumerate_cells(&options.caps).into_iter().map(spec).collect()
    }

    /// Runs the full grid on an explicit worker pool and simulation cache
    /// (the `--workers` / `--cache-dir` entry point) through [`run_cells`],
    /// then ranks the cells. The result — ranking, defaults gap, JSON — is
    /// bit-identical for any worker count, and cells the cache has
    /// already seen (defaults-gap passes, overlapping burst ladders,
    /// warm `--cache-dir` runs) are replayed instead of re-simulated.
    ///
    /// # Panics
    ///
    /// Panics as [`GridSearch::run`] does.
    pub fn run_with(
        workload: Workload,
        placement: MetadataPlacement,
        options: GridOptions,
        pool: &WorkerPool,
        cache: &SimCache,
    ) -> Self {
        assert!(!options.caps.is_empty(), "--grid needs at least one burst cap");
        let stats_before = cache.stats();
        let specs = Self::specs(workload, placement, &options);
        let points = run_cells(&specs, Executor::Simulator, 1, pool, cache, "grid");
        let mut cells: Vec<GridCell> = specs
            .iter()
            .zip(points)
            .map(|(run, point)| {
                let spec = GridCellSpec { kind: run.kind, knobs: run.knobs };
                GridCell {
                    spec,
                    rank: 0, // filled in after ranking
                    throughput_tx_per_sec: point
                        .throughput_tx_per_sec
                        .expect("simulator runs carry the full report"),
                    makespan_seconds: point
                        .makespan_seconds
                        .expect("simulator runs carry a makespan"),
                    total_time: point.profile.total_time(),
                    commits: point.commits,
                    aborts: point.aborts,
                    abort_rate: point.abort_rate,
                    slowdown_vs_best: 1.0, // filled in after ranking
                    is_default: spec.is_default(&options.caps),
                }
            })
            .collect();
        // Rank by throughput, best first; ties break toward fewer aborted
        // attempts (less wasted work for the same committed rate), then
        // stay in enumeration order, which is deterministic.
        cells.sort_by(|a, b| {
            b.throughput_tx_per_sec
                .partial_cmp(&a.throughput_tx_per_sec)
                .expect("throughputs are finite")
                .then(a.aborts.cmp(&b.aborts))
        });
        let best = cells.first().map_or(0.0, |c| c.throughput_tx_per_sec);
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.rank = i + 1;
            cell.slowdown_vs_best = if cell.throughput_tx_per_sec > 0.0 {
                best / cell.throughput_tx_per_sec
            } else {
                f64::INFINITY
            };
        }
        GridSearch {
            workload,
            placement,
            tasklets: options.tasklets,
            scale: options.scale,
            seed: options.seed,
            caps: options.caps,
            cells,
            cache: cache.stats().since(&stats_before),
        }
    }

    /// The best cell of the grid (rank 1).
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty (it never is after [`GridSearch::run`]).
    pub fn best(&self) -> &GridCell {
        self.cells.first().expect("a grid search always measures at least one cell")
    }

    /// The static-defaults cell of one design, if that design was swept
    /// with the default knob values.
    pub fn default_cell(&self, kind: StmKind) -> Option<&GridCell> {
        self.cells.iter().find(|c| c.is_default && c.spec.kind == kind)
    }

    /// The best-ranked cell of one design (how far *any* knob setting can
    /// carry that composition).
    pub fn best_cell_of(&self, kind: StmKind) -> Option<&GridCell> {
        self.cells.iter().find(|c| c.spec.kind == kind)
    }

    /// Renders the ranked-cells panel: the top `limit` cells with their
    /// full knob vector, throughput and slowdown-vs-best.
    pub fn ranked_table(&self, limit: usize) -> String {
        let header: Vec<String> = [
            "rank",
            "stm",
            "retry",
            "read",
            "write-back",
            "lock order",
            "cap",
            "tx/s",
            "aborts",
            "x best",
            "default",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .take(limit)
            .map(|c| {
                vec![
                    c.rank.to_string(),
                    c.spec.kind.grid_name(),
                    c.spec.knobs.retry.name().to_string(),
                    c.spec.knobs.read_strategy.name().to_string(),
                    c.spec.knobs.write_back.name().to_string(),
                    c.spec.knobs.lock_order.name().to_string(),
                    c.spec.knobs.max_burst_words.to_string(),
                    fmt_f64(c.throughput_tx_per_sec),
                    c.aborts.to_string(),
                    fmt_f64(c.slowdown_vs_best),
                    if c.is_default { "*" } else { "" }.to_string(),
                ]
            })
            .collect();
        format!(
            "full-grid search: {} ({}, {} tasklets, seed {}, {} cells)\n{}",
            self.workload,
            self.placement.name(),
            self.tasklets,
            self.seed,
            self.cells.len(),
            render_table(&header, &rows)
        )
    }

    /// Renders the defaults panel: per design, where the static defaults
    /// rank, their slowdown-vs-best, and what the best knob vector for that
    /// design looks like.
    pub fn defaults_table(&self) -> String {
        let header: Vec<String> = [
            "stm",
            "default rank",
            "default x best",
            "best-of-design rank",
            "best-of-design knobs",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let rows: Vec<Vec<String>> = StmKind::ALL
            .iter()
            .filter_map(|&kind| {
                let default = self.default_cell(kind)?;
                let best = self.best_cell_of(kind)?;
                Some(vec![
                    kind.grid_name(),
                    default.rank.to_string(),
                    fmt_f64(default.slowdown_vs_best),
                    best.rank.to_string(),
                    best.spec.knobs.to_string(),
                ])
            })
            .collect();
        format!(
            "static defaults vs grid best (best cell: {} {})\n{}",
            self.best().spec.kind.grid_name(),
            self.best().spec.knobs,
            render_table(&header, &rows)
        )
    }

    /// Renders the simulation-cache panel: how many of this search's cells
    /// were replayed from the cache vs simulated fresh, and the
    /// `--cache-dir` traffic. All zeros reads as "cold cache, nothing
    /// persisted".
    pub fn cache_table(&self) -> String {
        let header: Vec<String> =
            ["cells", "cache hits", "misses", "disk hits", "read B", "written B"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let rows = vec![vec![
            self.cells.len().to_string(),
            self.cache.hits.to_string(),
            self.cache.misses.to_string(),
            self.cache.disk_hits.to_string(),
            self.cache.bytes_read.to_string(),
            self.cache.bytes_written.to_string(),
        ]];
        format!("simulation cache\n{}", render_table(&header, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exhaustiveness check of the enumeration ↔ coherence contract,
    /// run over *every* cell of the 3 × 2 × 2 composition grid: every
    /// coherent composition appears (no cell skipped), no incoherent
    /// composition appears (no struck cell runs), and each composition's
    /// multiplicity is exactly the product of the knob axes that design
    /// reads — the collapsing rules of the module docs, pinned.
    #[test]
    fn enumeration_is_exactly_the_coherent_grid() {
        let caps = [8, 64];
        let cells = enumerate_cells(&caps);
        for composition in TmComposition::all() {
            let matching: Vec<&GridCellSpec> =
                cells.iter().filter(|c| c.kind.composition() == composition).collect();
            if !composition.is_coherent() {
                assert!(
                    matching.is_empty(),
                    "incoherent cell {} must never run ({})",
                    composition.grid_name(),
                    composition.rejection_reason().unwrap(),
                );
                continue;
            }
            let write_back_axis = if composition.write == WritePolicy::WriteBack { 2 } else { 1 };
            let lock_order_axis = if composition.timing == LockTiming::Encounter { 2 } else { 1 };
            let expected = RetryPolicy::ALL.len()
                * ReadStrategy::ALL.len()
                * write_back_axis
                * lock_order_axis
                * caps.len();
            assert_eq!(
                matching.len(),
                expected,
                "coherent cell {} must enumerate exactly its readable knob product",
                composition.grid_name(),
            );
            // Collapsed axes are pinned to the defaults, not dropped.
            for cell in matching {
                if write_back_axis == 1 {
                    assert_eq!(cell.knobs.write_back, WriteBackStrategy::Coalesced);
                }
                if lock_order_axis == 1 {
                    assert_eq!(cell.knobs.lock_order, LockOrder::AddressSorted);
                }
            }
        }
        // The seven coherent designs, 108 cells per cap: 2 × 24 (ETL+WB:
        // all four axes) + 3 × 12 (CTL+WB) + 2 × 12 (ETL+WT).
        assert_eq!(cells.len(), 108 * caps.len());
        // Exactly one enumerated cell per design is the static default.
        for kind in StmKind::ALL {
            let defaults = cells.iter().filter(|c| c.kind == kind && c.is_default(&caps)).count();
            assert_eq!(defaults, 1, "{kind} must have exactly one static-defaults cell");
        }
    }

    #[test]
    fn grid_ranks_cells_and_pins_the_defaults_gap() {
        let grid = GridSearch::run(
            Workload::ArrayB,
            MetadataPlacement::Mram,
            GridOptions { scale: 0.05, tasklets: 4, caps: vec![64], ..GridOptions::default() },
        );
        assert_eq!(grid.cells.len(), 108);
        // Ranks are 1..=n in order and slowdowns grow monotonically.
        for (i, cell) in grid.cells.iter().enumerate() {
            assert_eq!(cell.rank, i + 1);
            assert!(cell.slowdown_vs_best >= 1.0 - 1e-12);
            assert!(cell.commits > 0, "every coherent cell must commit");
        }
        for pair in grid.cells.windows(2) {
            assert!(pair[0].throughput_tx_per_sec >= pair[1].throughput_tx_per_sec);
        }
        assert!((grid.best().slowdown_vs_best - 1.0).abs() < 1e-12);
        // Every design has its defaults cell, ranked at or behind the
        // design's best cell.
        for kind in StmKind::ALL {
            let default = grid.default_cell(kind).expect("defaults cell was swept");
            let best = grid.best_cell_of(kind).expect("design was swept");
            assert!(best.rank <= default.rank, "{kind}: defaults cannot beat the design's best");
        }
        let ranked = grid.ranked_table(10);
        assert!(ranked.contains("x best"));
        assert!(ranked.contains("rank"));
        let defaults = grid.defaults_table();
        assert!(defaults.contains("default rank"));
        assert!(defaults.contains("norec-ctl-wb"));
    }

    /// The `--workers` acceptance check: a grid search is bit-identical
    /// for any worker count — same cells, same ranking, same JSON — because
    /// cells are independent jobs collected by index.
    #[test]
    fn grid_results_are_bit_identical_for_any_worker_count() {
        let options =
            GridOptions { scale: 0.02, tasklets: 2, caps: vec![64], ..GridOptions::default() };
        let serial = GridSearch::run_with(
            Workload::ArrayB,
            MetadataPlacement::Mram,
            options.clone(),
            &WorkerPool::serial(),
            &SimCache::in_memory(),
        );
        let wide = GridSearch::run_with(
            Workload::ArrayB,
            MetadataPlacement::Mram,
            options,
            &WorkerPool::new(8),
            &SimCache::in_memory(),
        );
        assert_eq!(serial, wide, "worker count must never change a single reported number");
        assert_eq!(
            crate::json::grid_to_json(&serial).to_string(),
            crate::json::grid_to_json(&wide).to_string(),
            "and the JSON dumps must be byte-identical"
        );
    }

    /// The cache acceptance check: repeating an identical search over a
    /// shared cache replays every cell (hits == cells, zero duplicate
    /// simulations) and returns bit-identical cells.
    #[test]
    fn warm_grid_reruns_hit_every_cell_and_change_nothing() {
        let options =
            GridOptions { scale: 0.02, tasklets: 2, caps: vec![64], ..GridOptions::default() };
        let cache = SimCache::in_memory();
        let cold = GridSearch::run_with(
            Workload::ArrayB,
            MetadataPlacement::Mram,
            options.clone(),
            &WorkerPool::serial(),
            &cache,
        );
        assert_eq!(cold.cache.misses, cold.cells.len() as u64, "a cold search simulates all");
        assert_eq!(cold.cache.hits, 0);
        let warm = GridSearch::run_with(
            Workload::ArrayB,
            MetadataPlacement::Mram,
            options,
            &WorkerPool::serial(),
            &cache,
        );
        assert_eq!(warm.cache.hits, warm.cells.len() as u64, "a warm search replays all");
        assert_eq!(warm.cache.misses, 0, "zero duplicate simulations");
        assert_eq!(warm.cells, cold.cells, "replayed cells are bit-identical");
        assert!(warm.cache_table().contains("simulation cache"));
    }

    #[test]
    fn grid_searches_are_deterministic_for_a_fixed_seed() {
        let options =
            GridOptions { scale: 0.05, tasklets: 4, caps: vec![64], ..GridOptions::default() };
        let a = GridSearch::run(Workload::ArrayB, MetadataPlacement::Mram, options.clone());
        let b = GridSearch::run(Workload::ArrayB, MetadataPlacement::Mram, options);
        assert_eq!(a, b, "same seed, same grid — cell for cell, rank for rank");
    }
}
