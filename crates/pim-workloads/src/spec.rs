//! Run specifications: one place that knows how to set up and execute every
//! workload of the paper's evaluation — on the cycle-accounted simulator
//! *and* on the threaded executor.
//!
//! [`RunSpec::run_on`] is the cross-executor entry point: the same seeded
//! specification builds the same data structures and runs the same
//! [`crate::driver::TaskletLoop`]s on either [`Executor`], and
//! returns one unified [`WorkloadReport`] (commit/abort counts, a
//! final-state fingerprint, invariant checking, and — on the simulator —
//! the full cycle-level [`DpuRunReport`]). `pim-exp` consumes this report
//! type.

use pim_sim::{Dpu, DpuConfig, DpuRunReport, Scheduler, TaskletProgram};
use pim_stm::shared::WordCounter;
use pim_stm::threaded::{ThreadedDpu, ThreadedRunReport};
use pim_stm::var::WordAccess;
use pim_stm::{
    ExecProfile, MetadataPlacement, RunError, StmConfig, StmKind, StmKnobs, StmShared, TimeDomain,
};
use std::fmt;

use crate::array_bench::{self, ArrayBenchConfig, ArrayBenchData};
use crate::kmeans::{self, KmeansConfig, KmeansData};
use crate::labyrinth::{self, LabyrinthConfig, LabyrinthData};
use crate::linked_list::{self, LinkedListConfig, LinkedListData};

/// The evaluation workloads of §4.1/§4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// ArrayBench workload A (large read phase, low contention).
    ArrayA,
    /// ArrayBench workload B (tiny highly contended transactions).
    ArrayB,
    /// Linked list, low contention (90 % `contains`).
    ListLc,
    /// Linked list, high contention (50 % `contains`).
    ListHc,
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

impl Workload {
    /// All workloads, in the order the paper presents them.
    pub const ALL: [Workload; 9] = [
        Workload::ArrayA,
        Workload::ArrayB,
        Workload::ListLc,
        Workload::ListHc,
        Workload::KmeansLc,
        Workload::KmeansHc,
        Workload::LabyrinthS,
        Workload::LabyrinthM,
        Workload::LabyrinthL,
    ];

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArrayA => "array-a",
            Workload::ArrayB => "array-b",
            Workload::ListLc => "list-lc",
            Workload::ListHc => "list-hc",
            Workload::KmeansLc => "kmeans-lc",
            Workload::KmeansHc => "kmeans-hc",
            Workload::LabyrinthS => "labyrinth-s",
            Workload::LabyrinthM => "labyrinth-m",
            Workload::LabyrinthL => "labyrinth-l",
        }
    }

    /// Parses a CLI name (case-insensitive).
    pub fn parse(name: &str) -> Option<Workload> {
        let canon = name.to_ascii_lowercase();
        Workload::ALL.into_iter().find(|w| w.name() == canon)
    }

    /// Which figure panel of the paper this workload appears in.
    pub fn figure(self) -> &'static str {
        match self {
            Workload::ArrayA => "Fig. 4a/e/i",
            Workload::ArrayB => "Fig. 4b/f/j",
            Workload::ListLc => "Fig. 4c/g/k",
            Workload::ListHc => "Fig. 4d/h/l",
            Workload::KmeansLc => "Fig. 5a/e/i",
            Workload::KmeansHc => "Fig. 5b/f/j",
            Workload::LabyrinthS => "Fig. 5c/g/k",
            Workload::LabyrinthM => "Fig. 7b (multi-DPU)",
            Workload::LabyrinthL => "Fig. 5d/h/l",
        }
    }

    /// Whether the paper studies this workload with WRAM metadata: it
    /// excludes Labyrinth, whose read/write sets do not fit WRAM at the
    /// tasklet counts it sweeps. Whether a given run fits is
    /// [`RunSpec::check_feasible`]'s to say.
    pub fn supports_wram_metadata(self) -> bool {
        !matches!(self, Workload::LabyrinthS | Workload::LabyrinthM | Workload::LabyrinthL)
    }

    /// Whether the workload's final committed state is independent of the
    /// interleaving (all its transactions commute — ArrayBench increments,
    /// KMeans accumulator folds). For these workloads a seeded run produces
    /// the **same fingerprint on every executor**; for the others
    /// (linked list, Labyrinth) only the structural invariants are
    /// executor-independent.
    pub fn commutative(self) -> bool {
        matches!(
            self,
            Workload::ArrayA | Workload::ArrayB | Workload::KmeansLc | Workload::KmeansHc
        )
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The two ways a [`RunSpec`] can be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Executor {
    /// The deterministic, cycle-accounted discrete-event simulator
    /// ([`pim_sim`]): produces the full [`DpuRunReport`] behind the paper's
    /// figures.
    Simulator,
    /// Real OS threads over atomic shared memory
    /// ([`pim_stm::threaded::ThreadedDpu`]): no timing model, genuine
    /// concurrency — the correctness cross-check.
    Threaded,
}

impl Executor {
    /// Both executors.
    pub const ALL: [Executor; 2] = [Executor::Simulator, Executor::Threaded];

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Executor::Simulator => "simulator",
            Executor::Threaded => "threaded",
        }
    }

    /// The native unit this executor's profiles measure time in.
    pub fn time_domain(self) -> TimeDomain {
        match self {
            Executor::Simulator => TimeDomain::Cycles,
            Executor::Threaded => TimeDomain::WallNanos,
        }
    }
}

impl fmt::Display for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully specified single-DPU run: workload × STM design × metadata
/// placement × tasklet count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Which workload to run.
    pub workload: Workload,
    /// Which STM design to use.
    pub kind: StmKind,
    /// Where the STM metadata lives.
    pub placement: MetadataPlacement,
    /// Number of tasklets (1–24; the paper sweeps 1–11).
    pub tasklets: usize,
    /// PRNG seed (runs are deterministic given the same seed).
    pub seed: u64,
    /// Scale factor applied to the workload's operation counts; < 1.0 makes
    /// runs proportionally shorter (test- and sweep-sized runs).
    pub scale: f64,
    /// The engine knobs (retry, read strategy, write-back, lock order,
    /// burst cap; see [`StmKnobs`]).
    pub knobs: StmKnobs,
    /// Override for ArrayBench's read-phase record grouping
    /// ([`ArrayBenchConfig::record_words`]); `Some(1)` restores the paper's
    /// original scattered single-entry reads. Ignored by other workloads.
    pub record_words: Option<u32>,
}

impl RunSpec {
    /// Creates a run specification with the default seed and full scale.
    pub fn new(
        workload: Workload,
        kind: StmKind,
        placement: MetadataPlacement,
        tasklets: usize,
    ) -> Self {
        RunSpec {
            workload,
            kind,
            placement,
            tasklets,
            seed: 42,
            scale: 1.0,
            knobs: StmKnobs::default(),
            record_words: None,
        }
    }

    /// Overrides the operation-count scale factor.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Overrides the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the engine knobs (default: [`StmKnobs::default`]).
    ///
    /// # Panics
    ///
    /// Panics if [`StmKnobs::check`] rejects the burst cap.
    pub fn with_knobs(mut self, knobs: StmKnobs) -> Self {
        knobs.check().unwrap_or_else(|why| panic!("{why}"));
        self.knobs = knobs;
        self
    }

    /// The STM configuration (log capacities, lock-table size and placement)
    /// appropriate for this workload, mirroring the sizing discussion in the
    /// paper.
    pub fn stm_config(&self) -> StmConfig {
        let base = StmConfig::new(self.kind, self.placement).with_knobs(self.knobs);
        match self.workload {
            Workload::ArrayA => {
                let cfg = ArrayBenchConfig::workload_a();
                // The paper sizes the ORec lock table to the array and notes
                // that it does not fit in WRAM for this workload, so the
                // table stays in MRAM even when the rest of the metadata is
                // promoted to WRAM.
                let stm = base
                    .with_read_set_capacity(cfg.read_set_capacity())
                    .with_write_set_capacity(cfg.write_set_capacity())
                    .with_lock_table_entries(16 * 1024);
                if self.placement == MetadataPlacement::Wram {
                    stm.with_lock_table_placement(MetadataPlacement::Mram)
                } else {
                    stm
                }
            }
            Workload::ArrayB => {
                let cfg = ArrayBenchConfig::workload_b();
                base.with_read_set_capacity(cfg.read_set_capacity())
                    .with_write_set_capacity(cfg.write_set_capacity())
                    .with_lock_table_entries(1024)
            }
            Workload::ListLc | Workload::ListHc => {
                let cfg = self.list_config();
                base.with_read_set_capacity(cfg.read_set_capacity())
                    .with_write_set_capacity(cfg.write_set_capacity())
                    .with_lock_table_entries(1024)
            }
            Workload::KmeansLc | Workload::KmeansHc => {
                let cfg = self.kmeans_config();
                base.with_read_set_capacity(cfg.read_set_capacity())
                    .with_write_set_capacity(cfg.write_set_capacity())
                    .with_lock_table_entries(1024)
            }
            Workload::LabyrinthS | Workload::LabyrinthM | Workload::LabyrinthL => {
                let cfg = self.labyrinth_config();
                base.with_read_set_capacity(cfg.read_set_capacity())
                    .with_write_set_capacity(cfg.write_set_capacity())
                    .with_lock_table_entries(1024)
            }
        }
    }

    fn array_config(&self) -> ArrayBenchConfig {
        let config = match self.workload {
            Workload::ArrayA => ArrayBenchConfig::workload_a().scaled(self.scale),
            Workload::ArrayB => ArrayBenchConfig::workload_b().scaled(self.scale),
            _ => unreachable!("not an ArrayBench workload"),
        };
        match self.record_words {
            Some(words) => config.with_record_words(words),
            None => config,
        }
    }

    fn list_config(&self) -> LinkedListConfig {
        match self.workload {
            Workload::ListLc => LinkedListConfig::low_contention().scaled(self.scale),
            Workload::ListHc => LinkedListConfig::high_contention().scaled(self.scale),
            _ => unreachable!("not a linked-list workload"),
        }
    }

    fn kmeans_config(&self) -> KmeansConfig {
        match self.workload {
            Workload::KmeansLc => KmeansConfig::low_contention().scaled(self.scale),
            Workload::KmeansHc => KmeansConfig::high_contention().scaled(self.scale),
            _ => unreachable!("not a KMeans workload"),
        }
    }

    fn labyrinth_config(&self) -> LabyrinthConfig {
        match self.workload {
            Workload::LabyrinthS => LabyrinthConfig::small().scaled(self.scale),
            Workload::LabyrinthM => LabyrinthConfig::medium().scaled(self.scale),
            Workload::LabyrinthL => LabyrinthConfig::large().scaled(self.scale),
            _ => unreachable!("not a Labyrinth workload"),
        }
    }

    /// Checks that this run fits a stock UPMEM DPU: Labyrinth keeps its
    /// metadata out of WRAM, as in the paper
    /// ([`Workload::supports_wram_metadata`]), and the STM metadata — the
    /// shared words plus one registered slot per tasklet, counted by
    /// replaying their allocation on a [`WordCounter`] — must fit its
    /// tiers (64 KB WRAM, 64 MB MRAM).
    ///
    /// # Errors
    ///
    /// Returns why not; for metadata that does not fit, the words it needs
    /// and the words a DPU has.
    pub fn check_feasible(&self) -> Result<(), String> {
        let workload = self.workload;
        if self.placement == MetadataPlacement::Wram && !workload.supports_wram_metadata() {
            return Err(format!(
                "{workload} cannot keep its STM metadata in WRAM (transaction logs exceed 64 KB)"
            ));
        }
        let mut words = WordCounter::default();
        let counted = StmShared::allocate(&mut words, self.stm_config()).and_then(|shared| {
            (0..self.tasklets).try_for_each(|t| shared.register_tasklet(&mut words, t).map(drop))
        });
        counted.and_then(|()| words.sized_config()).map(drop).map_err(|e| {
            format!(
                "{workload} at {} tasklets needs {} words of {} for its {} STM metadata; a DPU \
                 has {}",
                self.tasklets,
                e.requested_words,
                e.tier.name().to_uppercase(),
                self.kind,
                e.available_words
            )
        })
    }

    fn assert_feasible(&self) {
        self.check_feasible().unwrap_or_else(|why| panic!("{why}"));
    }

    /// Builds the DPU, STM instance and tasklet programs, runs the
    /// deterministic scheduler and returns the raw simulator report
    /// (throughput, abort rate, phase breakdown).
    ///
    /// This is the simulator-only shorthand kept for the figure pipeline;
    /// [`RunSpec::run_on`] wraps the same run in the executor-agnostic
    /// [`WorkloadReport`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is infeasible ([`RunSpec::check_feasible`])
    /// — e.g. WRAM metadata placement for Labyrinth, whose transaction logs
    /// exceed WRAM capacity (the paper excludes this combination for the
    /// same reason).
    pub fn run(&self) -> DpuRunReport {
        self.run_on(Executor::Simulator).sim.expect("simulator runs carry the full report")
    }

    /// Runs this specification on `executor` and returns the unified report.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is infeasible (see [`RunSpec::run`]); on
    /// the threaded executor additionally if the tasklet count exceeds the
    /// hardware limit.
    pub fn run_on(&self, executor: Executor) -> WorkloadReport {
        self.assert_feasible();
        match self.workload {
            Workload::ArrayA | Workload::ArrayB => self.execute(
                executor,
                self.array_config(),
                array_bench::build,
                array_bench::run_threaded,
                DataHandles::Array,
            ),
            Workload::ListLc | Workload::ListHc => self.execute(
                executor,
                self.list_config(),
                linked_list::build,
                linked_list::run_threaded,
                DataHandles::List,
            ),
            Workload::KmeansLc | Workload::KmeansHc => self.execute(
                executor,
                self.kmeans_config(),
                kmeans::build,
                kmeans::run_threaded,
                DataHandles::Kmeans,
            ),
            Workload::LabyrinthS | Workload::LabyrinthM | Workload::LabyrinthL => self.execute(
                executor,
                self.labyrinth_config(),
                labyrinth::build,
                labyrinth::run_threaded,
                DataHandles::Labyrinth,
            ),
        }
    }

    /// Runs one workload, given by its `build` and `run_threaded`, at
    /// `config` on `executor`; `handles` keeps its data for the report.
    fn execute<C, D>(
        &self,
        executor: Executor,
        config: C,
        build: Build<C, D>,
        run_threaded: RunThreaded<C, D>,
        handles: fn(D) -> DataHandles,
    ) -> WorkloadReport {
        match executor {
            Executor::Simulator => {
                let mut dpu = Dpu::new(DpuConfig::default());
                let shared = StmShared::allocate(&mut dpu, self.stm_config())
                    .expect("STM metadata must fit in the configured tier");
                let (data, programs) = build(&mut dpu, &shared, config, self.tasklets, self.seed);
                let report = Scheduler::new().run(&mut dpu, programs);
                let profiles = report.tasklet_stats.iter().map(ExecProfile::from_sim).collect();
                self.finish_report(executor, handles(data), &dpu, profiles, Some(report))
            }
            Executor::Threaded => {
                let mut dpu = ThreadedDpu::new(self.stm_config())
                    .expect("STM metadata must fit in the configured tier");
                let (data, report) = run_threaded(&mut dpu, config, self.tasklets, self.seed)
                    .unwrap_or_else(|e| {
                        panic!("threaded {} run must be schedulable: {e}", self.workload)
                    });
                self.finish_report(executor, handles(data), &dpu, report.profiles, None)
            }
        }
    }

    /// The report of a run whose tasklets left `profiles` and its data in
    /// `mem`.
    fn finish_report<M: WordAccess + ?Sized>(
        &self,
        executor: Executor,
        data: DataHandles,
        mem: &M,
        profiles: Vec<ExecProfile>,
        sim: Option<DpuRunReport>,
    ) -> WorkloadReport {
        let commits = profiles.iter().map(ExecProfile::commits).sum();
        let aborts = profiles.iter().map(ExecProfile::aborts).sum();
        let fingerprint = data.fingerprint(mem);
        let invariant_violation = data.validate(mem, self, commits).err();
        WorkloadReport {
            spec: *self,
            executor,
            commits,
            aborts,
            profiles,
            fingerprint,
            deterministic_final_state: self.workload.commutative(),
            invariant_violation,
            sim,
        }
    }
}

/// A workload's `build`: its simulator programs over its data.
type Build<C, D> = fn(&mut Dpu, &StmShared, C, usize, u64) -> (D, Vec<Box<dyn TaskletProgram>>);

/// A workload's `run_threaded`: its data and run on the threaded executor.
type RunThreaded<C, D> =
    fn(&mut ThreadedDpu, C, usize, u64) -> Result<(D, ThreadedRunReport), RunError>;

/// Typed handles to the shared data structures of one run, kept so the
/// harness can observe the final committed state.
enum DataHandles {
    Array(ArrayBenchData),
    List(LinkedListData),
    Kmeans(KmeansData),
    Labyrinth(LabyrinthData),
}

/// FNV-1a over a stream of words — the final-state fingerprint.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl DataHandles {
    /// Hashes the observable committed state of the workload's shared data.
    fn fingerprint<M: WordAccess + ?Sized>(&self, mem: &M) -> u64 {
        let mut hash = Fnv::new();
        match self {
            DataHandles::Array(data) => {
                for i in 0..data.array.len() {
                    hash.write(pim_stm::var::peek_var(mem, data.array.at(i)));
                }
            }
            DataHandles::List(data) => {
                for key in data.snapshot(mem) {
                    hash.write(key);
                }
            }
            DataHandles::Kmeans(data) => {
                for i in 0..data.centroids.len() {
                    hash.write(pim_stm::var::peek_var(mem, data.centroids.at(i)));
                }
            }
            DataHandles::Labyrinth(data) => {
                hash.write(data.jobs_claimed(mem));
                for i in 0..data.grid.len() {
                    hash.write(pim_stm::var::peek_var(mem, data.cell(i)));
                }
            }
        }
        hash.0
    }

    /// Checks the workload's conservation invariants against the committed
    /// state.
    fn validate<M: WordAccess + ?Sized>(
        &self,
        mem: &M,
        spec: &RunSpec,
        commits: u64,
    ) -> Result<(), String> {
        let tasklets = spec.tasklets as u64;
        match self {
            DataHandles::Array(data) => {
                let cfg = spec.array_config();
                let expected_commits = u64::from(cfg.transactions_per_tasklet) * tasklets;
                if commits != expected_commits {
                    return Err(format!("committed {commits} txs, expected {expected_commits}"));
                }
                let expected_sum = expected_commits * u64::from(cfg.updates_applied_per_tx());
                let sum = data.update_region_sum(mem);
                if sum != expected_sum {
                    return Err(format!(
                        "update region sums to {sum}, expected {expected_sum} (lost updates)"
                    ));
                }
                Ok(())
            }
            DataHandles::List(data) => {
                let cfg = spec.list_config();
                let expected_commits = u64::from(cfg.ops_per_tasklet) * tasklets;
                if commits != expected_commits {
                    return Err(format!("committed {commits} ops, expected {expected_commits}"));
                }
                let keys = data.snapshot(mem);
                for pair in keys.windows(2) {
                    if pair[0] >= pair[1] {
                        return Err(format!("list not sorted/unique around key {}", pair[0]));
                    }
                }
                if let Some(&bad) = keys.iter().find(|&&k| k < 1 || k > cfg.key_range) {
                    return Err(format!("key {bad} outside 1..={}", cfg.key_range));
                }
                Ok(())
            }
            DataHandles::Kmeans(data) => {
                let cfg = spec.kmeans_config();
                let expected = u64::from(cfg.points_per_tasklet) * tasklets;
                if commits != expected {
                    return Err(format!("committed {commits} folds, expected {expected}"));
                }
                let (members, _) = data.totals(mem);
                if members != expected {
                    return Err(format!(
                        "membership counts sum to {members}, expected {expected} (lost updates)"
                    ));
                }
                Ok(())
            }
            DataHandles::Labyrinth(data) => {
                let cfg = spec.labyrinth_config();
                // One pop per job, one final empty pop per tasklet, one
                // route transaction per job.
                let expected_commits = 2 * u64::from(cfg.paths) + tasklets;
                if commits != expected_commits {
                    return Err(format!("committed {commits} txs, expected {expected_commits}"));
                }
                data.validate(mem)
            }
        }
    }
}

/// Executor-agnostic result of one [`RunSpec`] run — what the experiment
/// harness and the benches consume.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// The specification that was run.
    pub spec: RunSpec,
    /// Which executor ran it.
    pub executor: Executor,
    /// Committed transactions across all tasklets.
    pub commits: u64,
    /// Aborted attempts across all tasklets.
    pub aborts: u64,
    /// One [`ExecProfile`] per tasklet (indexed by tasklet id), in the
    /// executor's native time domain: simulator cycles or wall-clock
    /// nanoseconds. This is the unified instrumentation schema — phase
    /// breakdown, abort-reason histogram, DMA traffic, back-off time — that
    /// both executors fill.
    pub profiles: Vec<ExecProfile>,
    /// FNV-1a hash of the final committed state of the workload's shared
    /// data. For [`Workload::commutative`] workloads this is identical
    /// across executors for the same seed; for all workloads it is identical
    /// across repeated simulator runs.
    pub fingerprint: u64,
    /// Whether `fingerprint` is expected to be executor-independent.
    pub deterministic_final_state: bool,
    /// First violated conservation invariant, if any (`None` = the committed
    /// state is consistent).
    pub invariant_violation: Option<String>,
    /// The full cycle-level report ([`Executor::Simulator`] only) — extra
    /// detail (makespan, atomic-register stats) beyond the unified profile.
    pub sim: Option<DpuRunReport>,
}

impl WorkloadReport {
    /// Abort rate in `[0, 1]` across all tasklets.
    pub fn abort_rate(&self) -> f64 {
        if self.commits + self.aborts == 0 {
            0.0
        } else {
            self.aborts as f64 / (self.commits + self.aborts) as f64
        }
    }

    /// The time domain of this run's profiles.
    pub fn time_domain(&self) -> TimeDomain {
        self.executor.time_domain()
    }

    /// All tasklets' profiles merged into one (an empty profile in the
    /// executor's time domain for a zero-tasklet run).
    pub fn merged_profile(&self) -> ExecProfile {
        ExecProfile::merged(&self.profiles).unwrap_or_else(|| ExecProfile::new(self.time_domain()))
    }

    /// Committed transactions per simulated second (simulator runs only).
    pub fn throughput_tx_per_sec(&self) -> Option<f64> {
        self.sim.as_ref().map(|r| r.throughput_tx_per_sec())
    }

    /// Panics if a conservation invariant was violated — the harness's
    /// correctness gate.
    pub fn assert_invariants(&self) {
        if let Some(violation) = &self.invariant_violation {
            panic!(
                "{} on {} ({}, {} tasklets): {violation}",
                self.spec.workload, self.executor, self.spec.kind, self.spec.tasklets
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_stm::{LockOrder, ReadStrategy, RetryPolicy};

    #[test]
    fn workload_names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(!w.figure().is_empty());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn labyrinth_is_excluded_from_wram_metadata() {
        assert!(!Workload::LabyrinthL.supports_wram_metadata());
        assert!(Workload::ArrayA.supports_wram_metadata());
    }

    #[test]
    fn read_strategy_and_burst_cap_thread_into_the_stm_config() {
        let spec = RunSpec::new(Workload::ArrayA, StmKind::TinyEtlWb, MetadataPlacement::Mram, 4);
        assert_eq!(spec.stm_config().knobs, StmKnobs::default());
        let knobs = StmKnobs {
            read_strategy: ReadStrategy::WordWise,
            lock_order: LockOrder::RecordOrder,
            max_burst_words: 8,
            ..spec.knobs
        };
        assert_eq!(spec.with_knobs(knobs).stm_config().knobs, knobs);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn a_zero_burst_cap_is_rejected_when_the_spec_is_built() {
        let spec = RunSpec::new(Workload::ArrayA, StmKind::TinyEtlWb, MetadataPlacement::Mram, 4);
        let _ = spec.with_knobs(StmKnobs { max_burst_words: 0, ..spec.knobs });
    }

    #[test]
    fn record_words_override_reaches_the_array_config() {
        let spec = RunSpec::new(Workload::ArrayA, StmKind::Norec, MetadataPlacement::Mram, 2);
        assert_eq!(spec.array_config().record_words, 20, "workload A defaults to record reads");
        let original = RunSpec { record_words: Some(1), ..spec };
        assert_eq!(
            original.array_config().record_words,
            1,
            "the paper's scattered single-entry reads stay reachable"
        );
        assert_eq!(original.array_config().read_records_per_tx(), 100);
    }

    #[test]
    fn retry_policy_threads_into_the_stm_config() {
        let spec = RunSpec::new(Workload::ArrayB, StmKind::Norec, MetadataPlacement::Mram, 2);
        assert_eq!(spec.stm_config().knobs.retry, RetryPolicy::Exponential, "legacy default");
        let adaptive = spec.with_knobs(StmKnobs { retry: RetryPolicy::Adaptive, ..spec.knobs });
        assert_eq!(adaptive.stm_config().knobs.retry, RetryPolicy::Adaptive);
        // An adaptive-retry cell runs end to end and conserves invariants —
        // the new sweepable axis is not just a recorded field.
        let report = adaptive.with_scale(0.05).run_on(Executor::Simulator);
        report.assert_invariants();
        assert!(report.commits > 0);
    }

    #[test]
    fn array_a_wram_config_keeps_lock_table_in_mram() {
        let spec = RunSpec::new(Workload::ArrayA, StmKind::TinyEtlWb, MetadataPlacement::Wram, 4);
        let cfg = spec.stm_config();
        assert_eq!(cfg.metadata_tier(), pim_sim::Tier::Wram);
        assert_eq!(cfg.lock_table_tier(), pim_sim::Tier::Mram);
    }

    #[test]
    fn specs_run_end_to_end_for_a_sample_of_the_design_space() {
        let samples = [
            (Workload::ArrayB, StmKind::Norec, MetadataPlacement::Mram),
            (Workload::ListHc, StmKind::VrEtlWb, MetadataPlacement::Wram),
            (Workload::KmeansHc, StmKind::TinyCtlWb, MetadataPlacement::Wram),
            (Workload::LabyrinthS, StmKind::TinyEtlWt, MetadataPlacement::Mram),
        ];
        for (workload, kind, placement) in samples {
            let report = RunSpec::new(workload, kind, placement, 4).with_scale(0.1).run();
            assert!(report.total_commits() > 0, "{workload}/{kind} committed nothing");
            assert!(report.throughput_tx_per_sec() > 0.0);
            assert!(report.makespan_cycles > 0);
        }
    }

    #[test]
    fn run_on_simulator_carries_the_cycle_report_and_invariants() {
        let spec = RunSpec::new(Workload::ArrayB, StmKind::Norec, MetadataPlacement::Mram, 4)
            .with_scale(0.1);
        let report = spec.run_on(Executor::Simulator);
        assert_eq!(report.executor, Executor::Simulator);
        assert!(report.sim.is_some());
        assert!(report.commits > 0);
        report.assert_invariants();
        assert!(report.throughput_tx_per_sec().unwrap() > 0.0);
        // The unified profile mirrors the cycle report, in the cycle domain.
        assert_eq!(report.time_domain(), TimeDomain::Cycles);
        assert_eq!(report.profiles.len(), 4);
        let profile = report.merged_profile();
        assert_eq!(profile.commits(), report.commits);
        assert_eq!(profile.aborts(), report.aborts);
        assert_eq!(profile.histogram_total(), report.aborts);
        let sim = report.sim.as_ref().unwrap();
        assert_eq!(profile.phases().total(), sim.breakdown().total());
        assert_eq!(profile.dma_setups(), sim.total_mram_dma_setups());
    }

    #[test]
    fn run_on_threaded_checks_the_same_invariants() {
        let spec = RunSpec::new(Workload::KmeansHc, StmKind::TinyEtlWb, MetadataPlacement::Wram, 4)
            .with_scale(0.1);
        let report = spec.run_on(Executor::Threaded);
        assert_eq!(report.executor, Executor::Threaded);
        assert!(report.sim.is_none());
        assert!(report.throughput_tx_per_sec().is_none());
        report.assert_invariants();
        // ...and carries the same profile schema, in wall-clock nanoseconds.
        assert_eq!(report.time_domain(), TimeDomain::WallNanos);
        assert_eq!(report.profiles.len(), 4);
        let profile = report.merged_profile();
        assert_eq!(profile.time_domain, TimeDomain::WallNanos);
        assert_eq!(profile.commits(), report.commits);
        assert_eq!(profile.histogram_total(), report.aborts);
        assert!(profile.total_time() > 0, "threads must accrue wall-clock time");
        assert!(profile.dma_words() > 0, "MRAM-addressed traffic must be counted");
    }

    #[test]
    fn the_threaded_bank_covers_labyrinth_private_grids_and_a_short_one_is_an_error() {
        let spec = RunSpec::new(Workload::LabyrinthM, StmKind::Norec, MetadataPlacement::Mram, 4)
            .with_scale(0.05);
        let config = spec.labyrinth_config();
        // A 64 MB MRAM holds the shared grid and one private grid per
        // tasklet.
        spec.run_on(Executor::Threaded).assert_invariants();
        // An MRAM of one grid per tasklet leaves no room for the shared
        // grid as well: a typed error, not an out-of-range panic in the
        // shared memory.
        let wram = DpuConfig::default().wram_words;
        let short = config.cells() * spec.tasklets as u32;
        let mut dpu = ThreadedDpu::with_capacity(spec.stm_config(), wram, short)
            .expect("the shared metadata still fits");
        let err = labyrinth::run_threaded(&mut dpu, config, spec.tasklets, spec.seed).unwrap_err();
        assert!(matches!(err, pim_stm::RunError::Alloc(_)), "got {err:?}");
    }

    #[test]
    #[should_panic(expected = "cannot keep its STM metadata in WRAM")]
    fn labyrinth_with_wram_metadata_panics() {
        let _ = RunSpec::new(Workload::LabyrinthS, StmKind::Norec, MetadataPlacement::Wram, 2)
            .with_scale(0.05)
            .run();
    }

    /// A list-hc slot is 560 words and the lock table 1 024: WRAM holds
    /// twelve slots beside the table, fourteen without it (NOrec), and MRAM
    /// all 24.
    #[test]
    fn feasibility_counts_the_metadata_at_the_tasklet_count() {
        use MetadataPlacement::{Mram, Wram};
        let spec = |kind, placement, tasklets| {
            RunSpec::new(Workload::ListHc, kind, placement, tasklets).check_feasible()
        };
        assert_eq!(spec(StmKind::TinyCtlWb, Wram, 12), Ok(()));
        assert_eq!(
            spec(StmKind::TinyCtlWb, Wram, 13),
            Err("list-hc at 13 tasklets needs 8306 words of WRAM for its Tiny CTLWB STM \
                 metadata; a DPU has 8192"
                .into())
        );
        assert_eq!(spec(StmKind::Norec, Wram, 14), Ok(()));
        assert!(spec(StmKind::Norec, Wram, 15).is_err());
        assert_eq!(spec(StmKind::TinyCtlWb, Mram, 24), Ok(()));
    }

    #[test]
    #[should_panic(expected = "list-hc at 24 tasklets needs 14466 words of WRAM")]
    fn wram_metadata_past_64_kb_panics_before_the_run() {
        let _ = RunSpec::new(Workload::ListHc, StmKind::VrEtlWb, MetadataPlacement::Wram, 24)
            .with_scale(0.05)
            .run();
    }

    #[test]
    fn runs_are_deterministic_for_a_fixed_seed() {
        let spec = RunSpec::new(Workload::ArrayB, StmKind::TinyEtlWb, MetadataPlacement::Mram, 4)
            .with_scale(0.2);
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.total_commits(), b.total_commits());
        assert_eq!(a.total_aborts(), b.total_aborts());
    }

    #[test]
    fn commutative_workloads_fingerprint_identically_across_executors() {
        let spec = RunSpec::new(Workload::ArrayB, StmKind::Norec, MetadataPlacement::Mram, 3)
            .with_scale(0.1);
        let sim = spec.run_on(Executor::Simulator);
        let threaded = spec.run_on(Executor::Threaded);
        assert!(sim.deterministic_final_state);
        assert_eq!(sim.fingerprint, threaded.fingerprint);
    }
}
