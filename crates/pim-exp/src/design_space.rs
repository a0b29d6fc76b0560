//! Figures 4, 5, 9 and 10: throughput, abort rate and time breakdown of
//! every STM design as the number of tasklets grows, for one workload and
//! one metadata placement — on either executor.
//!
//! Every point carries the unified [`ExecProfile`], so the same tables
//! (phase breakdown, abort-reason histogram, DMA/back-off summary) render
//! for simulator runs (cycle domain) and threaded runs (wall-clock domain);
//! the header names the [`TimeDomain`] so the units are never confused.
//! Cycle-only metrics (throughput, makespan) are simply absent from
//! threaded sweeps.
//!
//! # Seeding contract
//!
//! [`run_cells`] runs every cell of a sweep (and of the [`crate::grid`]
//! full-grid search) under the *same* seed sequence: iteration `i` of a
//! `--repeat N` cell runs with [`repeat_seed`]`(base, i)`, and iteration 0
//! is always the base seed itself. Because the sequence depends only on the base seed — never on the
//! cell's design, knobs or position in the sweep — any two cells are
//! comparable run-for-run: they saw identical workloads in the same order.
//! The fleet's `--repeat` path derives its per-iteration seeds the same way.

use pim_sim::Phase;
use pim_stm::{AbortReason, ExecProfile, MetadataPlacement, StmKind, StmKnobs, TimeDomain};
use pim_workloads::spec::Executor;
use pim_workloads::{RunSpec, Workload};

use crate::cache::{CachedRun, SimCache};
use crate::pool::WorkerPool;
use crate::report::{fmt_f64, render_table};

/// Tuning knobs of a design-space sweep beyond the workload × design ×
/// tasklet grid itself.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Scale factor applied to the workload size.
    pub scale: f64,
    /// PRNG seed.
    pub seed: u64,
    /// Which executor runs the sweep.
    pub executor: Executor,
    /// Median-of-N aggregation: run every cell `repeat` times and keep the
    /// run with the median merged total time. `1` (the default) runs each
    /// cell once; larger values make the noisy wall-clock cells of threaded
    /// sweeps sturdy enough for A/B comparisons (simulator cells are
    /// deterministic, so repeating them only re-confirms the same numbers).
    pub repeat: usize,
    /// The engine knobs every cell runs under.
    pub knobs: StmKnobs,
    /// Override for ArrayBench's read-phase record grouping; `Some(1)`
    /// restores the paper's original scattered single-entry reads. Ignored
    /// by other workloads.
    pub record_words: Option<u32>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            scale: 1.0,
            seed: 42,
            executor: Executor::Simulator,
            repeat: 1,
            knobs: StmKnobs::default(),
            record_words: None,
        }
    }
}

/// The seed iteration `i` of a `--repeat N` cell runs under: iteration 0 is
/// the base seed itself (so `--repeat 1` reproduces a plain run exactly),
/// later iterations step deterministically. The sequence depends only on the
/// base seed, never on the cell — see the module-level seeding contract.
pub fn repeat_seed(base: u64, iteration: usize) -> u64 {
    base.wrapping_add(iteration as u64)
}

/// One configuration: a workload run with one STM design and one tasklet
/// count on one executor.
#[derive(Debug, Clone)]
pub struct DesignSpacePoint {
    /// The STM design.
    pub kind: StmKind,
    /// Number of tasklets.
    pub tasklets: usize,
    /// Committed transactions per simulated second (simulator runs only —
    /// the threaded executor has no cycle model).
    pub throughput_tx_per_sec: Option<f64>,
    /// Aborted attempts / all attempts, in `[0, 1]`.
    pub abort_rate: f64,
    /// Total committed transactions.
    pub commits: u64,
    /// Total aborted attempts.
    pub aborts: u64,
    /// The unified execution profile, merged over all tasklets (phase
    /// times in the executor's native unit, abort-reason histogram, DMA and
    /// back-off counters).
    pub profile: ExecProfile,
    /// Simulated makespan in seconds (simulator runs only).
    pub makespan_seconds: Option<f64>,
    /// Spread over the `--repeat N` runs of this cell (`None` when the cell
    /// ran once — including every simulator cell, which is deterministic).
    /// The point's own numbers come from the run with the *median* total
    /// time; the spread is what turns a threaded A/B comparison into a
    /// confidence call: if two cells' `[min, max]` total-time ranges
    /// overlap, the median difference is noise.
    pub spread: Option<RepeatSpread>,
}

/// Min/median/max spread plus a mean ± 95 % confidence interval over the
/// repeated runs of one cell.
#[derive(Debug, Clone, Copy)]
pub struct RepeatSpread {
    /// How many runs the cell was repeated for.
    pub runs: usize,
    /// Smallest merged total time across the runs (executor-native unit).
    pub min_total_time: u64,
    /// The kept (median) run's merged total time.
    pub median_total_time: u64,
    /// Largest merged total time across the runs.
    pub max_total_time: u64,
    /// Mean merged total time across the runs (executor-native unit).
    pub mean_total_time: f64,
    /// Half-width of the 95 % confidence interval of the mean total time
    /// (Student's t on `runs - 1` degrees of freedom, executor-native
    /// unit): the true mean lies in `mean ± ci95` with 95 % confidence.
    /// `0.0` for a single run, where no interval exists. Two cells whose
    /// intervals do not overlap differ significantly — the statistical
    /// grounding behind fleet and threaded A/B comparisons.
    pub ci95_total_time: f64,
    /// Fewest aborted attempts across the runs.
    pub min_aborts: u64,
    /// Most aborted attempts across the runs.
    pub max_aborts: u64,
}

/// `mean ± ci95` of arbitrary repeated samples (Student's t on `n - 1`
/// degrees of freedom). With fewer than two samples the interval
/// half-width is zero. Shared by single-DPU cell spreads and fleet
/// makespan spreads so both report the same statistic.
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    // Sample variance (n - 1 denominator) → standard error of the mean.
    let var = samples.iter().map(|&t| (t - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let se = (var / n).sqrt();
    (mean, t_critical_95(samples.len() - 1) * se)
}

/// Index of the run a `--repeat N` cell keeps: the lower median by `keys`,
/// ties broken on the run index (the sort is stable). For an even count
/// this keeps the *faster* middle run rather than degenerating to
/// worst-of-N (repeat = 2 would otherwise always keep the slower run).
/// Shared by single-DPU cells, fleet points and service cells.
///
/// # Panics
///
/// Panics if `keys` is empty or two keys are incomparable (a NaN).
pub fn lower_median_index<K: PartialOrd>(keys: &[K]) -> usize {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&a, &b| keys[a].partial_cmp(&keys[b]).expect("repeat keys are comparable"));
    order[(order.len() - 1) / 2]
}

/// Runs every cell of `specs` on `executor` and returns one point per
/// cell, in `specs` order: the one job loop behind the sweeps, fig6 and
/// `--grid`.
///
/// * Each cell × `--repeat` iteration is one job on `pool`, collected by
///   index, so the points are bit-identical for any worker count.
///   Iteration `i` runs under [`repeat_seed`]`(seed, i)`.
/// * Simulator cells are deterministic and run once whatever `repeat`
///   says. Threaded cells time real OS threads, so they run on
///   [`WorkerPool::serial`] rather than contend for the measured cores.
/// * Runs go through [`SimCache::get_or_run`]. A simulated cell prints one
///   progress line, `[<label> <i>/<n>] <cell>`, to stderr; a replayed one
///   is silent.
/// * A repeated cell keeps its [`lower_median_index`] run by merged total
///   time, counts and profile alike, plus a [`RepeatSpread`] over its runs.
///
/// # Panics
///
/// Panics if `repeat` is zero, or if a cell is infeasible
/// ([`RunSpec::check_feasible`]) or breaks a workload invariant.
pub fn run_cells(
    specs: &[RunSpec],
    executor: Executor,
    repeat: usize,
    pool: &WorkerPool,
    cache: &SimCache,
    label: &str,
) -> Vec<DesignSpacePoint> {
    assert!(repeat >= 1, "median-of-N needs at least one run per cell");
    let simulated = executor == Executor::Simulator;
    let repeat = if simulated { 1 } else { repeat };
    let serial = WorkerPool::serial();
    let pool = if simulated { pool } else { &serial };
    let total = specs.len();
    let jobs = (0..total).flat_map(|cell| (0..repeat).map(move |i| (cell, i))).collect();
    let runs = pool.run(jobs, |_, (cell, iteration)| {
        let spec = RunSpec { seed: repeat_seed(specs[cell].seed, iteration), ..specs[cell] };
        cache.get_or_run(&spec, executor, || {
            if iteration == 0 {
                let median =
                    if repeat > 1 { format!(" (median of {repeat})") } else { String::new() };
                eprintln!(
                    "[{label} {}/{total}] {} {} {executor} {} tasklets={} {}{median}",
                    cell + 1,
                    spec.workload,
                    spec.placement,
                    spec.kind.name(),
                    spec.tasklets,
                    spec.knobs,
                );
            }
            let report = spec.run_on(executor);
            report.assert_invariants();
            report
        })
    });
    let point = |spec: &RunSpec, run: CachedRun, spread| DesignSpacePoint {
        kind: spec.kind,
        tasklets: spec.tasklets,
        throughput_tx_per_sec: run.throughput_tx_per_sec,
        abort_rate: run.abort_rate(),
        commits: run.commits,
        aborts: run.aborts,
        profile: run.profile,
        makespan_seconds: run.makespan_seconds,
        spread,
    };
    if repeat == 1 {
        return specs.iter().zip(runs).map(|(spec, run)| point(spec, run, None)).collect();
    }
    specs
        .iter()
        .zip(runs.chunks(repeat))
        .map(|(spec, runs)| {
            let totals: Vec<u64> = runs.iter().map(|r| r.profile.total_time()).collect();
            let kept = lower_median_index(&totals);
            let (mean_total_time, ci95_total_time) =
                mean_ci95(&totals.iter().map(|&t| t as f64).collect::<Vec<_>>());
            let spread = RepeatSpread {
                runs: repeat,
                min_total_time: totals.iter().copied().min().unwrap_or(0),
                median_total_time: totals[kept],
                max_total_time: totals.iter().copied().max().unwrap_or(0),
                mean_total_time,
                ci95_total_time,
                min_aborts: runs.iter().map(|r| r.aborts).min().unwrap_or(0),
                max_aborts: runs.iter().map(|r| r.aborts).max().unwrap_or(0),
            };
            point(spec, runs[kept].clone(), Some(spread))
        })
        .collect()
}

/// Two-sided 95 % critical value of Student's t distribution with `df`
/// degrees of freedom; the normal approximation (1.96) beyond 30.
fn t_critical_95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        // No interval exists; callers return 0 width before reaching here.
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// The full sweep for one workload/placement/executor: the data behind one
/// column of Fig. 4/5 (MRAM metadata) or Fig. 9/10 (WRAM metadata), or its
/// threaded-executor counterpart.
#[derive(Debug, Clone)]
pub struct DesignSpaceSweep {
    /// The workload that was run.
    pub workload: Workload,
    /// Where the STM metadata lived.
    pub placement: MetadataPlacement,
    /// The options every cell ran under.
    pub options: SweepOptions,
    /// All points.
    pub points: Vec<DesignSpacePoint>,
}

impl DesignSpaceSweep {
    /// Runs the sweep on the simulator: every STM design × every tasklet
    /// count in `tasklet_counts`.
    ///
    /// # Panics
    ///
    /// Panics if the workload cannot host its metadata in the requested tier
    /// (e.g. Labyrinth with WRAM metadata).
    pub fn run(
        workload: Workload,
        placement: MetadataPlacement,
        tasklet_counts: &[usize],
        scale: f64,
        seed: u64,
    ) -> Self {
        Self::run_with(
            workload,
            placement,
            &StmKind::ALL,
            tasklet_counts,
            SweepOptions { scale, seed, ..SweepOptions::default() },
            &WorkerPool::default(),
            &SimCache::in_memory(),
        )
    }

    /// The cells of one sweep, design-major: `kinds` × `tasklet_counts`,
    /// each under `options`' scale, seed, knobs and record grouping.
    pub fn cells(
        workload: Workload,
        placement: MetadataPlacement,
        kinds: &[StmKind],
        tasklet_counts: &[usize],
        options: &SweepOptions,
    ) -> Vec<RunSpec> {
        let spec = |kind, tasklets| RunSpec {
            record_words: options.record_words,
            ..RunSpec::new(workload, kind, placement, tasklets)
                .with_scale(options.scale)
                .with_seed(options.seed)
                .with_knobs(options.knobs)
        };
        kinds.iter().flat_map(|&kind| tasklet_counts.iter().map(move |&t| spec(kind, t))).collect()
    }

    /// Runs `kinds` × `tasklet_counts` with the full option set
    /// ([`SweepOptions`]: executor, median-of-N repetition, the DMA and
    /// retry knobs) through [`run_cells`] on an explicit worker pool and
    /// simulation cache (the `--workers` / `--cache-dir` entry point), so the
    /// sweep — points, tables, JSON — is bit-identical for any worker count.
    /// Threaded points carry the full wall-clock profile but no cycle-domain
    /// throughput/makespan.
    ///
    /// # Panics
    ///
    /// Panics as [`DesignSpaceSweep::run`] does, if `kinds` is empty, or if
    /// `options.repeat` is zero.
    pub fn run_with(
        workload: Workload,
        placement: MetadataPlacement,
        kinds: &[StmKind],
        tasklet_counts: &[usize],
        options: SweepOptions,
        pool: &WorkerPool,
        cache: &SimCache,
    ) -> Self {
        assert!(!kinds.is_empty(), "design-space sweep needs at least one STM design");
        let specs = Self::cells(workload, placement, kinds, tasklet_counts, &options);
        let points =
            run_cells(&specs, options.executor, options.repeat, pool, cache, "design-space");
        DesignSpaceSweep { workload, placement, options, points }
    }

    /// The point for a specific design and tasklet count, if it was swept.
    pub fn point(&self, kind: StmKind, tasklets: usize) -> Option<&DesignSpacePoint> {
        self.points.iter().find(|p| p.kind == kind && p.tasklets == tasklets)
    }

    /// The designs this sweep actually ran, in taxonomy order.
    pub fn swept_kinds(&self) -> Vec<StmKind> {
        StmKind::ALL.into_iter().filter(|k| self.points.iter().any(|p| p.kind == *k)).collect()
    }

    /// The time domain of every profile in this sweep.
    pub fn time_domain(&self) -> TimeDomain {
        self.options.executor.time_domain()
    }

    /// Peak throughput (over the swept tasklet counts) of one design; 0.0
    /// on the threaded executor, which has no cycle model.
    pub fn peak_throughput(&self, kind: StmKind) -> f64 {
        self.points
            .iter()
            .filter(|p| p.kind == kind)
            .filter_map(|p| p.throughput_tx_per_sec)
            .fold(0.0, f64::max)
    }

    /// The design with the highest peak throughput in this sweep.
    pub fn best_design(&self) -> StmKind {
        StmKind::ALL
            .into_iter()
            .max_by(|a, b| {
                self.peak_throughput(*a)
                    .partial_cmp(&self.peak_throughput(*b))
                    .expect("throughputs are finite")
            })
            .expect("at least one design")
    }

    /// Renders the throughput panel (tx/s per design and tasklet count),
    /// matching the top rows of Fig. 4/5. Threaded cells render as `-`.
    pub fn throughput_table(&self) -> String {
        self.metric_table("throughput (tx/s)", |p| {
            p.throughput_tx_per_sec.map(fmt_f64).unwrap_or_else(|| "-".into())
        })
    }

    /// Renders the abort-rate panel (%), matching the middle rows of
    /// Fig. 4/5.
    pub fn abort_table(&self) -> String {
        self.metric_table("abort rate (%)", |p| fmt_f64(p.abort_rate * 100.0))
    }

    fn metric_table(&self, metric: &str, value: impl Fn(&DesignSpacePoint) -> String) -> String {
        let mut tasklet_counts: Vec<usize> =
            self.points.iter().map(|p| p.tasklets).collect::<Vec<_>>();
        tasklet_counts.sort_unstable();
        tasklet_counts.dedup();
        let mut header = vec![format!("{} [{}, {}]", self.workload, metric, self.options.executor)];
        header.extend(tasklet_counts.iter().map(|t| format!("{t} taskl.")));
        let rows = self
            .swept_kinds()
            .iter()
            .map(|&kind| {
                let mut row = vec![kind.name().to_string()];
                for &t in &tasklet_counts {
                    row.push(self.point(kind, t).map(&value).unwrap_or_else(|| "-".into()));
                }
                row
            })
            .collect::<Vec<_>>();
        render_table(&header, &rows)
    }

    /// The largest swept tasklet count (the column the per-phase tables
    /// report).
    fn max_tasklets(&self) -> usize {
        self.points.iter().map(|p| p.tasklets).max().expect("sweep is not empty")
    }

    /// Rows of `(kind, point)` at the largest swept tasklet count.
    fn max_tasklet_points(&self) -> Vec<(StmKind, &DesignSpacePoint)> {
        let max_tasklets = self.max_tasklets();
        StmKind::ALL
            .iter()
            .filter_map(|&kind| self.point(kind, max_tasklets).map(|p| (kind, p)))
            .collect()
    }

    /// Renders the time-breakdown panel (fraction of time per phase at the
    /// largest swept tasklet count), matching the bottom rows of Fig. 4/5.
    /// The same table renders for both executors; the header names the
    /// native unit (cycles vs wall-clock nanoseconds).
    pub fn breakdown_table(&self) -> String {
        let mut header = vec![format!(
            "{} phases @{} tasklets [{}]",
            self.workload,
            self.max_tasklets(),
            self.time_domain().unit()
        )];
        header.extend(Phase::ALL.iter().map(|p| p.label().to_string()));
        let rows = self
            .max_tasklet_points()
            .into_iter()
            .map(|(kind, point)| {
                let mut row = vec![kind.name().to_string()];
                for phase in Phase::ALL {
                    row.push(format!("{:.1}%", point.profile.phases().fraction(phase) * 100.0));
                }
                row
            })
            .collect::<Vec<_>>();
        render_table(&header, &rows)
    }

    /// Renders the abort-reason histogram (at the largest swept tasklet
    /// count): why attempts aborted, per design. The histogram always sums
    /// to the abort count — the shared retry core tags every abort.
    pub fn abort_reason_table(&self) -> String {
        let mut header =
            vec![format!("{} aborts by reason @{} tasklets", self.workload, self.max_tasklets())];
        header.extend(AbortReason::ALL.iter().map(|r| r.label().to_string()));
        header.push("total".to_string());
        let rows = self
            .max_tasklet_points()
            .into_iter()
            .map(|(kind, point)| {
                let mut row = vec![kind.name().to_string()];
                for reason in AbortReason::ALL {
                    row.push(point.profile.aborts_for(reason).to_string());
                }
                row.push(point.profile.aborts().to_string());
                row
            })
            .collect::<Vec<_>>();
        render_table(&header, &rows)
    }

    /// Whether any cell of this sweep carries a `--repeat` spread.
    pub fn has_spread(&self) -> bool {
        self.points.iter().any(|p| p.spread.is_some())
    }

    /// Renders the `--repeat` spread panel (at the largest swept tasklet
    /// count): min/median/max total time and the abort range over the
    /// repeated runs of each cell, in the executor's native unit. Rendered
    /// only when [`DesignSpaceSweep::has_spread`].
    pub fn repeat_spread_table(&self) -> String {
        let unit = self.time_domain().unit();
        let header = vec![
            format!("{} repeat spread @{} tasklets [{}]", self.workload, self.max_tasklets(), unit),
            "runs".to_string(),
            format!("min total ({unit})"),
            format!("median total ({unit})"),
            format!("max total ({unit})"),
            format!("mean ± CI95 ({unit})"),
            "aborts (min..max)".to_string(),
        ];
        let rows = self
            .max_tasklet_points()
            .into_iter()
            .map(|(kind, point)| match &point.spread {
                Some(s) => vec![
                    kind.name().to_string(),
                    s.runs.to_string(),
                    s.min_total_time.to_string(),
                    s.median_total_time.to_string(),
                    s.max_total_time.to_string(),
                    format!("{} ± {}", fmt_f64(s.mean_total_time), fmt_f64(s.ci95_total_time)),
                    format!("{}..{}", s.min_aborts, s.max_aborts),
                ],
                None => vec![
                    kind.name().to_string(),
                    "1".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ],
            })
            .collect::<Vec<_>>();
        render_table(&header, &rows)
    }

    /// Renders the profile summary (at the largest swept tasklet count):
    /// attempts, memory movement — absolute and per commit, the
    /// DMA-efficiency metric the burst knobs move — and back-off/lock-wait
    /// time, in the executor's native unit.
    pub fn profile_table(&self) -> String {
        let unit = self.time_domain().unit();
        let header = vec![
            format!("{} profile @{} tasklets [{}]", self.workload, self.max_tasklets(), unit),
            "attempts".to_string(),
            "commits".to_string(),
            "aborts".to_string(),
            "DMA setups".to_string(),
            "DMA words".to_string(),
            "setups/commit".to_string(),
            "words/commit".to_string(),
            format!("backoff ({unit})"),
            format!("total ({unit})"),
        ];
        let rows = self
            .max_tasklet_points()
            .into_iter()
            .map(|(kind, point)| {
                let p = &point.profile;
                vec![
                    kind.name().to_string(),
                    p.attempts().to_string(),
                    p.commits().to_string(),
                    p.aborts().to_string(),
                    p.dma_setups().to_string(),
                    p.dma_words().to_string(),
                    fmt_f64(p.dma_setups_per_commit()),
                    fmt_f64(p.dma_words_per_commit()),
                    p.backoff_time().to_string(),
                    p.total_time().to_string(),
                ]
            })
            .collect::<Vec<_>>();
        render_table(&header, &rows)
    }
}

/// The `--burst-words` study: the same cell run under a ladder of DMA
/// burst caps, reporting MRAM DMA setups per commit for each cap. This
/// ties the Fig. 9/10 WRAM/staging-pressure discussion to the
/// [`StmKnobs::max_burst_words`] knob — a tight cap splits the
/// batched-read and coalesced-write-back bursts into more transfers, a
/// roomy one amortises more setups, and the words moved stay constant.
/// `pim-exp` runs its cells in the same [`run_cells`] call as the base
/// sweep's; a cap equal to the base sweep's reads the base sweep's cells.
#[derive(Debug, Clone)]
pub struct BurstSweep {
    /// The workload that was run.
    pub workload: Workload,
    /// Where the STM metadata lived.
    pub placement: MetadataPlacement,
    /// Which executor ran the cells.
    pub executor: Executor,
    /// Tasklet count of every cell.
    pub tasklets: usize,
    /// The burst caps swept, in the order they were run.
    pub caps: Vec<u32>,
    /// One full design-space sweep per cap (same order as `caps`), so the
    /// per-cap cells can be dumped or inspected like any other sweep.
    pub sweeps: Vec<DesignSpaceSweep>,
}

impl BurstSweep {
    /// The merged profile of one design under each cap, in cap order.
    fn profiles_for(&self, kind: StmKind) -> Vec<&ExecProfile> {
        self.sweeps
            .iter()
            .map(|sweep| &sweep.point(kind, self.tasklets).expect("cell was swept").profile)
            .collect()
    }

    /// Renders MRAM DMA setups per commit under each cap, plus the words
    /// moved per commit for context. Words are usually cap-invariant (the
    /// same data moves either way), but contention can perturb them (extra
    /// re-issued bursts, word-wise fallbacks), so the column shows the
    /// range across caps whenever they diverge.
    pub fn table(&self) -> String {
        let mut header = vec![format!(
            "{} DMA setups/commit @{} tasklets ({}, {})",
            self.workload,
            self.tasklets,
            self.placement.name(),
            self.executor
        )];
        header.extend(self.caps.iter().map(|cap| format!("cap {cap}")));
        header.push("words/commit".to_string());
        let kinds = self.sweeps.first().map(DesignSpaceSweep::swept_kinds).unwrap_or_default();
        let rows = kinds
            .into_iter()
            .map(|kind| {
                let profiles = self.profiles_for(kind);
                let mut row = vec![kind.name().to_string()];
                row.extend(profiles.iter().map(|p| fmt_f64(p.dma_setups_per_commit())));
                let words: Vec<f64> = profiles.iter().map(|p| p.dma_words_per_commit()).collect();
                let lo = words.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = words.iter().copied().fold(0.0, f64::max);
                row.push(if fmt_f64(lo) == fmt_f64(hi) {
                    fmt_f64(hi)
                } else {
                    format!("{}..{}", fmt_f64(lo), fmt_f64(hi))
                });
                row
            })
            .collect::<Vec<_>>();
        render_table(&header, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_stm::RetryPolicy;

    fn tiny_sweep(workload: Workload, placement: MetadataPlacement) -> DesignSpaceSweep {
        DesignSpaceSweep::run(workload, placement, &[1, 4], 0.05, 9)
    }

    /// An ArrayB/MRAM sweep of `kinds` on the default pool and a fresh cache.
    fn array_b(kinds: &[StmKind], tasklets: &[usize], options: SweepOptions) -> DesignSpaceSweep {
        DesignSpaceSweep::run_with(
            Workload::ArrayB,
            MetadataPlacement::Mram,
            kinds,
            tasklets,
            options,
            &WorkerPool::default(),
            &SimCache::in_memory(),
        )
    }

    fn scaled(executor: Executor) -> SweepOptions {
        SweepOptions { scale: 0.05, seed: 9, executor, ..SweepOptions::default() }
    }

    /// The documented seeding contract: iteration 0 runs the base seed
    /// itself (so `--repeat 1` and an unrepeated run are the same run), and
    /// iteration `i` runs `base + i` — a sequence that depends only on the
    /// base seed, so every cell of a sweep sees the same seeds.
    #[test]
    fn repeat_iterations_follow_the_documented_seed_sequence() {
        assert_eq!(repeat_seed(42, 0), 42);
        assert_eq!(repeat_seed(42, 3), 45);
        assert_eq!(repeat_seed(u64::MAX, 1), 0, "the sequence wraps instead of panicking");
        let seeds: Vec<u64> = (0..4).map(|i| repeat_seed(7, i)).collect();
        assert_eq!(seeds, vec![7, 8, 9, 10]);
    }

    #[test]
    fn sweep_covers_every_design_and_tasklet_count() {
        let sweep = tiny_sweep(Workload::ArrayB, MetadataPlacement::Mram);
        assert_eq!(sweep.points.len(), StmKind::ALL.len() * 2);
        assert_eq!(sweep.options.executor, Executor::Simulator);
        assert_eq!(sweep.time_domain(), TimeDomain::Cycles);
        for kind in StmKind::ALL {
            assert!(sweep.point(kind, 1).is_some());
            assert!(sweep.peak_throughput(kind) > 0.0, "{kind} produced no throughput");
        }
        let _ = sweep.best_design();
    }

    #[test]
    fn tables_render_for_all_metrics() {
        let sweep = tiny_sweep(Workload::KmeansHc, MetadataPlacement::Wram);
        for table in [
            sweep.throughput_table(),
            sweep.abort_table(),
            sweep.breakdown_table(),
            sweep.abort_reason_table(),
            sweep.profile_table(),
        ] {
            assert!(table.contains("NOrec"));
            assert!(table.contains("VR CTLWB"));
        }
        assert!(sweep.breakdown_table().contains("[cyc]"), "cycle domain must be named");
    }

    #[test]
    fn filtered_sweeps_run_a_single_design() {
        let sweep = array_b(&[StmKind::Norec], &[2], scaled(Executor::Simulator));
        assert_eq!(sweep.points.len(), 1);
        assert_eq!(sweep.swept_kinds(), vec![StmKind::Norec]);
        let table = sweep.throughput_table();
        assert!(table.contains("NOrec"));
        assert!(!table.contains("VR CTLWB"), "unswept designs must not render as rows");
    }

    #[test]
    fn threaded_sweeps_share_the_schema_but_not_the_cycle_metrics() {
        let sweep =
            array_b(&[StmKind::Norec, StmKind::TinyEtlWb], &[2], scaled(Executor::Threaded));
        assert_eq!(sweep.options.executor, Executor::Threaded);
        assert_eq!(sweep.time_domain(), TimeDomain::WallNanos);
        for point in &sweep.points {
            assert_eq!(point.throughput_tx_per_sec, None);
            assert_eq!(point.makespan_seconds, None);
            assert_eq!(point.profile.time_domain, TimeDomain::WallNanos);
            assert!(point.commits > 0);
            assert_eq!(point.profile.commits(), point.commits);
            assert_eq!(point.profile.histogram_total(), point.aborts);
            assert!(point.profile.total_time() > 0, "wall-clock time must accrue");
        }
        assert!(sweep.breakdown_table().contains("[ns]"), "wall-clock domain must be named");
        assert!(sweep.throughput_table().contains('-'), "no cycle throughput on threads");
        let _ = sweep.abort_reason_table();
    }

    #[test]
    fn repeated_threaded_cells_carry_a_min_median_max_spread() {
        let sweep = array_b(
            &[StmKind::Norec],
            &[2],
            SweepOptions { executor: Executor::Threaded, repeat: 3, ..SweepOptions::default() },
        );
        assert!(sweep.has_spread());
        let point = sweep.point(StmKind::Norec, 2).unwrap();
        let spread = point.spread.as_ref().expect("repeat > 1 must record a spread");
        assert_eq!(spread.runs, 3);
        assert!(spread.min_total_time <= spread.median_total_time);
        assert!(spread.median_total_time <= spread.max_total_time);
        assert!(spread.min_aborts <= spread.max_aborts);
        // The mean lies inside the observed range and the interval is a
        // well-formed half-width.
        assert!(spread.mean_total_time >= spread.min_total_time as f64);
        assert!(spread.mean_total_time <= spread.max_total_time as f64);
        assert!(spread.ci95_total_time >= 0.0);
        assert!(spread.ci95_total_time.is_finite());
        // The kept point *is* the median run.
        assert_eq!(point.profile.total_time(), spread.median_total_time);
        let table = sweep.repeat_spread_table();
        assert!(table.contains("repeat spread"));
        assert!(table.contains("NOrec"));
        assert!(table.contains("CI95"), "the spread panel must show the interval");
        assert!(table.contains("[ns]"), "spread times are in the executor's native unit");
    }

    #[test]
    fn confidence_intervals_follow_student_t() {
        // Two runs (df = 1): mean 150, sample sd ≈ 70.71, se = 50,
        // t(1) = 12.706 → half-width 635.3.
        let (mean, ci) = mean_ci95(&[100.0, 200.0]);
        assert!((mean - 150.0).abs() < 1e-9);
        assert!((ci - 12.706 * 50.0).abs() < 1e-6, "got {ci}");
        // Identical runs: zero-width interval.
        let (mean, ci) = mean_ci95(&[42.0, 42.0, 42.0, 42.0]);
        assert_eq!(mean, 42.0);
        assert_eq!(ci, 0.0);
        // A single run has no interval.
        let (mean, ci) = mean_ci95(&[7.0]);
        assert_eq!(mean, 7.0);
        assert_eq!(ci, 0.0);
        // Large df falls back to the normal critical value.
        assert_eq!(t_critical_95(100), 1.96);
        assert_eq!(t_critical_95(30), 2.042);
        assert!(t_critical_95(0).is_infinite());
    }

    #[test]
    fn simulator_cells_are_deterministic_and_carry_no_spread() {
        let sweep =
            array_b(&[StmKind::Norec], &[2], SweepOptions { repeat: 5, ..SweepOptions::default() });
        assert!(!sweep.has_spread(), "simulator repeats are clamped to one run");
        assert!(sweep.point(StmKind::Norec, 2).unwrap().spread.is_none());
    }

    /// The `--workers` acceptance check for sweeps, including the
    /// flattened `--repeat` iterations: any worker count produces the same
    /// JSON dump byte for byte.
    #[test]
    fn sweep_results_are_bit_identical_for_any_worker_count() {
        let options = SweepOptions { scale: 0.05, seed: 9, repeat: 2, ..SweepOptions::default() };
        let run = |pool: &WorkerPool| {
            DesignSpaceSweep::run_with(
                Workload::ArrayB,
                MetadataPlacement::Mram,
                &[StmKind::Norec, StmKind::TinyEtlWb],
                &[1, 4],
                options,
                pool,
                &SimCache::in_memory(),
            )
        };
        let serial = run(&WorkerPool::serial());
        let wide = run(&WorkerPool::new(8));
        assert_eq!(
            crate::json::sweeps_to_json(&[serial]).to_string(),
            crate::json::sweeps_to_json(&[wide]).to_string(),
            "worker count must never change a single swept number"
        );
    }

    /// A burst ladder sharing the base sweep's cache replays the cells the
    /// base already ran: the cap equal to the base's is pure hits — the
    /// content-addressed form of the old ad-hoc base-sweep reuse.
    #[test]
    fn burst_sweeps_reuse_base_cells_through_the_cache() {
        let cache = SimCache::in_memory();
        let pool = WorkerPool::serial();
        let options = scaled(Executor::Simulator);
        let ladder = |cap| {
            DesignSpaceSweep::run_with(
                Workload::ArrayB,
                MetadataPlacement::Mram,
                &[StmKind::TinyEtlWb],
                &[4],
                SweepOptions {
                    knobs: StmKnobs { max_burst_words: cap, ..options.knobs },
                    ..options
                },
                &pool,
                &cache,
            )
        };
        let base_cap = options.knobs.max_burst_words;
        let base = ladder(base_cap);
        let before = cache.stats();
        assert_eq!(before.misses, 1, "the base sweep simulates its one cell");
        let reused = ladder(base_cap);
        ladder(8);
        let delta = cache.stats().since(&before);
        assert_eq!(delta.hits, 1, "the base-cap cell must replay from the cache");
        assert_eq!(delta.misses, 1, "only the new cap simulates");
        let (a, b) = (
            reused.point(StmKind::TinyEtlWb, 4).unwrap(),
            base.point(StmKind::TinyEtlWb, 4).unwrap(),
        );
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.profile.total_time(), b.profile.total_time());
        assert_eq!(a.throughput_tx_per_sec, b.throughput_tx_per_sec);
    }

    #[test]
    fn retry_policy_threads_into_the_cells() {
        // An adaptive-retry sweep is a *new* sweepable cell (same design
        // axes, different retry axis): it must run, conserve its
        // invariants, and record the policy it ran under.
        let sweep = array_b(
            &[StmKind::TinyEtlWb],
            &[4],
            SweepOptions {
                knobs: StmKnobs { retry: RetryPolicy::Adaptive, ..StmKnobs::default() },
                scale: 0.05,
                ..SweepOptions::default()
            },
        );
        assert_eq!(sweep.options.knobs.retry, RetryPolicy::Adaptive);
        let point = sweep.point(StmKind::TinyEtlWb, 4).unwrap();
        assert!(point.commits > 0);
        // The default-retry run of the same cell is the legacy behaviour;
        // under contention the two back-off schedules diverge, which is
        // exactly what makes the axis sweepable (deterministic check: the
        // simulator reproduces each policy's schedule bit-for-bit).
        let default_sweep = array_b(
            &[StmKind::TinyEtlWb],
            &[4],
            SweepOptions { scale: 0.05, ..SweepOptions::default() },
        );
        let default_point = default_sweep.point(StmKind::TinyEtlWb, 4).unwrap();
        assert_eq!(point.commits, default_point.commits, "same workload, same commits");
    }

    #[test]
    fn more_tasklets_do_not_reduce_total_commits() {
        let sweep = tiny_sweep(Workload::ArrayB, MetadataPlacement::Mram);
        for kind in StmKind::ALL {
            let one = sweep.point(kind, 1).unwrap().commits;
            let four = sweep.point(kind, 4).unwrap().commits;
            assert!(four >= one, "{kind}: commits shrank with more tasklets");
        }
    }

    #[test]
    fn profiles_agree_with_the_point_counters_on_the_simulator() {
        let sweep = array_b(&[StmKind::VrEtlWb], &[4], scaled(Executor::Simulator));
        let point = sweep.point(StmKind::VrEtlWb, 4).unwrap();
        assert_eq!(point.profile.commits(), point.commits);
        assert_eq!(point.profile.aborts(), point.aborts);
        assert_eq!(point.profile.histogram_total(), point.aborts);
    }
}
