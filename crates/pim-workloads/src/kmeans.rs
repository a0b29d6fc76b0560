//! KMeans: the STAMP machine-learning benchmark ported to PIM-STM (§4.1).
//!
//! Each tasklet owns a shard of the input points. For every point it
//! computes the nearest centroid **outside** any transaction (distance
//! computation over all `k` centroids), then runs one small transaction that
//! folds the point into that centroid's running sums and membership count.
//! Read and write sets therefore have `d + 1` entries, and the fraction of
//! time spent in transactions shrinks as `k` grows — which is why the paper's
//! low-contention configuration (`k` = 15) is insensitive to the STM choice
//! while the high-contention one (`k` = 2) amplifies the differences.
//!
//! The transactional fold lives in [`KmeansTxBody`], written once against
//! [`TxOps`] over a typed [`TArray`] of accumulators and driven by both
//! executors (see [`crate::driver`]); the nearest-centroid scan is shared
//! pure code ([`nearest_cluster`]).

use pim_sim::{Dpu, SimRng, StepStatus, TaskletCtx, TaskletProgram, Tier};
use pim_stm::shared::MetadataAllocator;
use pim_stm::threaded::{ThreadedDpu, ThreadedRunReport};
use pim_stm::var::{self, TArray, TVar, WordAccess};
use pim_stm::{Abort, Phase, RunError, StmShared, TxOps};

use crate::driver::{run_tx_body, tasklet_rng, BodyStep, SimTxRunner, TxBody, TxMachine, TxStatus};

/// Parameters of a KMeans run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmeansConfig {
    /// Number of clusters (`k`). The paper uses 15 (LC) and 2 (HC).
    pub clusters: u32,
    /// Point dimensionality (`d` = 14 in the paper).
    pub dimensions: u32,
    /// Input points assigned to each tasklet.
    pub points_per_tasklet: u32,
    /// Value range of point coordinates (fixed-point integers).
    pub coordinate_range: u64,
}

impl KmeansConfig {
    /// Low-contention configuration of the paper: `k` = 15, `d` = 14.
    pub fn low_contention() -> Self {
        KmeansConfig {
            clusters: 15,
            dimensions: 14,
            points_per_tasklet: 100,
            coordinate_range: 1 << 16,
        }
    }

    /// High-contention configuration of the paper: `k` = 2, `d` = 14.
    pub fn high_contention() -> Self {
        KmeansConfig { clusters: 2, ..Self::low_contention() }
    }

    /// Scales the per-tasklet point count, keeping at least one point.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.points_per_tasklet = ((self.points_per_tasklet as f64 * factor).round() as u32).max(1);
        self
    }

    /// Words per centroid record: `d` running sums plus a membership count.
    pub fn centroid_words(&self) -> u32 {
        self.dimensions + 1
    }

    /// A sufficient read-set capacity (the transaction touches `d + 1`
    /// shared words).
    pub fn read_set_capacity(&self) -> u32 {
        (self.centroid_words() + 8).next_power_of_two()
    }

    /// A sufficient write-set capacity.
    pub fn write_set_capacity(&self) -> u32 {
        (self.centroid_words() + 8).next_power_of_two()
    }
}

/// Shared KMeans state: centroid accumulators in MRAM.
#[derive(Debug, Clone, Copy)]
pub struct KmeansData {
    /// The `k × (d + 1)` centroid accumulator array (`d` running sums
    /// followed by the membership count, per centroid).
    pub centroids: TArray<u64>,
    config: KmeansConfig,
}

impl KmeansData {
    /// Allocates the centroid accumulators on either executor
    /// (zero-initialised: sums and counts start at zero for the assignment
    /// round).
    ///
    /// # Panics
    ///
    /// Panics if MRAM cannot hold the accumulators.
    pub fn allocate<A: MetadataAllocator + ?Sized>(alloc: &mut A, config: KmeansConfig) -> Self {
        let centroids =
            var::alloc_array(alloc, Tier::Mram, config.clusters * config.centroid_words())
                .expect("centroid accumulators must fit in MRAM");
        KmeansData { centroids, config }
    }

    /// Typed handle to dimension `dim` of centroid `cluster`'s running sum.
    pub fn sum_var(&self, cluster: u32, dim: u32) -> TVar<u64> {
        self.centroids.at(cluster * self.config.centroid_words() + dim)
    }

    /// Typed handle to centroid `cluster`'s membership count.
    pub fn count_var(&self, cluster: u32) -> TVar<u64> {
        self.centroids.at(cluster * self.config.centroid_words() + self.config.dimensions)
    }

    /// Host-side (untimed) totals: sum of all membership counts and the grand
    /// total of all coordinate sums; used by tests to check no update was
    /// lost.
    pub fn totals<M: WordAccess + ?Sized>(&self, mem: &M) -> (u64, u64) {
        let mut members = 0;
        let mut coord_total = 0u64;
        for c in 0..self.config.clusters {
            members += var::peek_var(mem, self.count_var(c));
            for d in 0..self.config.dimensions {
                coord_total = coord_total.wrapping_add(var::peek_var(mem, self.sum_var(c, d)));
            }
        }
        (members, coord_total)
    }
}

/// The reference centroid coordinates used by the (non-transactional)
/// distance heuristic — a private copy per tasklet, like STAMP's
/// non-transactional read of the centres. Deterministic regardless of seed
/// or executor.
pub fn reference_centroids(config: &KmeansConfig) -> Vec<u64> {
    let mut seed_rng = SimRng::new(0xC0FFEE);
    (0..config.clusters * config.dimensions)
        .map(|_| seed_rng.next_range(config.coordinate_range))
        .collect()
}

/// Squared Euclidean distance of `point` to centroid `cluster` of the
/// private `reference` coordinates. Pure, shared by both executors.
pub fn cluster_distance(
    config: &KmeansConfig,
    reference: &[u64],
    point: &[u64],
    cluster: u32,
) -> u64 {
    let d = config.dimensions;
    (0..d)
        .map(|dim| {
            let c = reference[(cluster * d + dim) as usize];
            let x = point[dim as usize];
            let diff = c.abs_diff(x);
            diff.saturating_mul(diff)
        })
        .fold(0u64, u64::saturating_add)
}

/// Nearest centroid of `point` (see [`cluster_distance`]). Pure, shared by
/// both executors.
pub fn nearest_cluster(config: &KmeansConfig, reference: &[u64], point: &[u64]) -> u32 {
    let mut best_cluster = 0;
    let mut best_distance = u64::MAX;
    for cluster in 0..config.clusters {
        let distance = cluster_distance(config, reference, point, cluster);
        if distance < best_distance {
            best_distance = distance;
            best_cluster = cluster;
        }
    }
    best_cluster
}

/// One KMeans transaction: fold the current point into its nearest
/// centroid's accumulators, one dimension per step, then bump the
/// membership count. [`KmeansTxBody::prepare`] installs the point and its
/// (pre-computed, non-transactional) cluster assignment.
#[derive(Debug)]
pub struct KmeansTxBody {
    data: KmeansData,
    cluster: u32,
    point: Vec<u64>,
    position: u32,
}

impl KmeansTxBody {
    /// Creates a body over the shared accumulators.
    pub fn new(data: KmeansData) -> Self {
        KmeansTxBody { data, cluster: 0, point: Vec::new(), position: 0 }
    }

    /// Installs the next point and its target cluster.
    pub fn prepare(&mut self, cluster: u32, point: Vec<u64>) {
        self.cluster = cluster;
        self.point = point;
    }
}

impl TxBody for KmeansTxBody {
    fn reset(&mut self) {
        self.position = 0;
    }

    fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort> {
        let dims = self.data.config.dimensions;
        if self.position < dims {
            let var = self.data.sum_var(self.cluster, self.position);
            let sum = tx.get(var)?;
            tx.set(var, sum.wrapping_add(self.point[self.position as usize]))?;
            self.position += 1;
            Ok(BodyStep::Continue)
        } else {
            let var = self.data.count_var(self.cluster);
            let count = tx.get(var)?;
            tx.set(var, count + 1)?;
            Ok(BodyStep::Done)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProgramState {
    NextPoint,
    Scan { cluster: u32 },
    InTransaction,
}

/// One simulated tasklet of the KMeans benchmark.
pub struct KmeansProgram {
    runner: SimTxRunner,
    body: KmeansTxBody,
    config: KmeansConfig,
    rng: SimRng,
    remaining: u32,
    /// Coordinates of the point currently being processed.
    point: Vec<u64>,
    /// Reference centroid coordinates (see [`reference_centroids`]).
    reference: Vec<u64>,
    best_cluster: u32,
    best_distance: u64,
    state: ProgramState,
}

impl KmeansProgram {
    /// Creates one tasklet program.
    pub fn new(tm: TxMachine, data: KmeansData, rng: SimRng) -> Self {
        let config = data.config;
        KmeansProgram {
            runner: SimTxRunner::new(tm),
            body: KmeansTxBody::new(data),
            config,
            rng,
            remaining: config.points_per_tasklet,
            point: Vec::new(),
            reference: reference_centroids(&config),
            best_cluster: 0,
            best_distance: u64::MAX,
            state: ProgramState::NextPoint,
        }
    }
}

impl TaskletProgram for KmeansProgram {
    fn step(&mut self, ctx: &mut TaskletCtx<'_>) -> StepStatus {
        match self.state {
            ProgramState::NextPoint => {
                if self.remaining == 0 {
                    return StepStatus::Finished;
                }
                self.remaining -= 1;
                // Draw the point and model reading it from the tasklet's MRAM
                // shard (d words of non-transactional input).
                self.point = (0..self.config.dimensions)
                    .map(|_| self.rng.next_range(self.config.coordinate_range))
                    .collect();
                ctx.set_phase(Phase::OtherExec);
                ctx.compute(4 * u64::from(self.config.dimensions));
                self.best_cluster = 0;
                self.best_distance = u64::MAX;
                self.state = ProgramState::Scan { cluster: 0 };
            }
            ProgramState::Scan { cluster } => {
                // Non-transactional distance computation against one centroid
                // (one step per centroid so the scan interleaves): d
                // reference loads plus the arithmetic.
                ctx.set_phase(Phase::OtherExec);
                ctx.compute(6 * u64::from(self.config.dimensions));
                let distance =
                    cluster_distance(&self.config, &self.reference, &self.point, cluster);
                if distance < self.best_distance {
                    self.best_distance = distance;
                    self.best_cluster = cluster;
                }
                let next = cluster + 1;
                if next < self.config.clusters {
                    self.state = ProgramState::Scan { cluster: next };
                } else {
                    // Hand the point over (NextPoint rebuilds it); cloning
                    // here would allocate once per point in the hot loop.
                    self.body.prepare(self.best_cluster, std::mem::take(&mut self.point));
                    self.state = ProgramState::InTransaction;
                }
            }
            ProgramState::InTransaction => {
                if self.runner.step(ctx, &mut self.body) == TxStatus::Committed {
                    self.state = ProgramState::NextPoint;
                }
            }
        }
        StepStatus::Running
    }

    fn label(&self) -> &str {
        "kmeans"
    }
}

/// Builds the per-tasklet programs for one KMeans run.
pub fn build(
    dpu: &mut Dpu,
    shared: &StmShared,
    config: KmeansConfig,
    tasklets: usize,
    seed: u64,
) -> (KmeansData, Vec<Box<dyn TaskletProgram>>) {
    let data = KmeansData::allocate(dpu, config);
    let programs = (0..tasklets)
        .map(|t| {
            let slot = shared
                .register_tasklet(dpu, t)
                .expect("per-tasklet STM logs must fit in the metadata tier");
            let tm = TxMachine::for_shared(shared.clone(), slot);
            Box::new(KmeansProgram::new(tm, data, tasklet_rng(seed, t))) as Box<dyn TaskletProgram>
        })
        .collect();
    (data, programs)
}

/// Runs the same workload — the same [`KmeansTxBody`] and the same
/// [`nearest_cluster`] scan — on the threaded executor.
///
/// # Errors
///
/// Returns [`RunError`] if the tasklet count exceeds the hardware limit or
/// the per-tasklet transaction logs do not fit.
pub fn run_threaded(
    dpu: &mut ThreadedDpu,
    config: KmeansConfig,
    tasklets: usize,
    seed: u64,
) -> Result<(KmeansData, ThreadedRunReport), RunError> {
    let data = KmeansData::allocate(dpu, config);
    let report = dpu.run(tasklets, |mut tasklet| {
        let mut rng = tasklet_rng(seed, tasklet.tasklet_id());
        let reference = reference_centroids(&config);
        let mut body = KmeansTxBody::new(data);
        for _ in 0..config.points_per_tasklet {
            let point: Vec<u64> =
                (0..config.dimensions).map(|_| rng.next_range(config.coordinate_range)).collect();
            let cluster = nearest_cluster(&config, &reference, &point);
            body.prepare(cluster, point);
            run_tx_body(&mut tasklet, &mut body);
        }
    })?;
    Ok((data, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{DpuConfig, Scheduler};
    use pim_stm::{MetadataPlacement, StmConfig, StmKind};

    fn run_kmeans(kind: StmKind, config: KmeansConfig, tasklets: usize) -> (u64, u64, u64) {
        let mut dpu = Dpu::new(DpuConfig::default());
        let stm_cfg = StmConfig::new(kind, MetadataPlacement::Wram)
            .with_read_set_capacity(config.read_set_capacity())
            .with_write_set_capacity(config.write_set_capacity());
        let shared = StmShared::allocate(&mut dpu, stm_cfg).unwrap();
        let (data, programs) = build(&mut dpu, &shared, config, tasklets, 3);
        let report = Scheduler::new().run(&mut dpu, programs);
        let (members, _) = data.totals(&dpu);
        (report.total_commits(), report.total_aborts(), members)
    }

    #[test]
    fn paper_parameters() {
        assert_eq!(KmeansConfig::low_contention().clusters, 15);
        assert_eq!(KmeansConfig::high_contention().clusters, 2);
        assert_eq!(KmeansConfig::low_contention().dimensions, 14);
        assert_eq!(KmeansConfig::low_contention().centroid_words(), 15);
    }

    #[test]
    fn every_point_is_assigned_exactly_once() {
        let config = KmeansConfig::high_contention().scaled(0.3);
        for kind in StmKind::ALL {
            let (commits, _, members) = run_kmeans(kind, config, 4);
            let expected = config.points_per_tasklet as u64 * 4;
            assert_eq!(commits, expected, "{kind}");
            assert_eq!(members, expected, "{kind}: membership counts must not lose updates");
        }
    }

    #[test]
    fn high_contention_aborts_more_than_low_contention() {
        let lc = KmeansConfig::low_contention().scaled(0.5);
        let hc = KmeansConfig::high_contention().scaled(0.5);
        let (_, aborts_lc, _) = run_kmeans(StmKind::TinyEtlWb, lc, 8);
        let (_, aborts_hc, _) = run_kmeans(StmKind::TinyEtlWb, hc, 8);
        assert!(
            aborts_hc > aborts_lc,
            "k=2 ({aborts_hc} aborts) must conflict more than k=15 ({aborts_lc})"
        );
    }

    #[test]
    fn single_tasklet_never_aborts() {
        let (_, aborts, members) =
            run_kmeans(StmKind::VrCtlWb, KmeansConfig::high_contention().scaled(0.2), 1);
        assert_eq!(aborts, 0);
        assert_eq!(members, KmeansConfig::high_contention().scaled(0.2).points_per_tasklet as u64);
    }

    #[test]
    fn the_same_body_folds_every_point_on_the_threaded_executor() {
        let config = KmeansConfig::high_contention().scaled(0.3);
        let stm_cfg = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram)
            .with_read_set_capacity(config.read_set_capacity())
            .with_write_set_capacity(config.write_set_capacity());
        let mut dpu = ThreadedDpu::new(stm_cfg).unwrap();
        let (data, report) = run_threaded(&mut dpu, config, 4, 3).unwrap();
        let expected = config.points_per_tasklet as u64 * 4;
        assert_eq!(report.commits, expected);
        assert_eq!(data.totals(&dpu).0, expected);
    }

    #[test]
    fn scan_matches_the_programs_incremental_search() {
        let config = KmeansConfig::low_contention();
        let reference = reference_centroids(&config);
        let mut rng = SimRng::new(5);
        for _ in 0..20 {
            let point: Vec<u64> =
                (0..config.dimensions).map(|_| rng.next_range(config.coordinate_range)).collect();
            let best = nearest_cluster(&config, &reference, &point);
            assert!(best < config.clusters);
        }
    }
}
