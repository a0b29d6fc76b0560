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
//! [`TxOps`] over a typed [`TArray`] of accumulators, and the point read and
//! nearest-centroid scan around it in [`KmeansTasklet`]; both executors run
//! that one loop (see [`crate::driver`]).

use pim_sim::{Dpu, SimRng, TaskletProgram, Tier};
use pim_stm::shared::MetadataAllocator;
use pim_stm::threaded::{ThreadedDpu, ThreadedRunReport};
use pim_stm::var::{self, TArray, TVar, WordAccess};
use pim_stm::{Abort, Phase, Platform, RunError, StmShared, TxOps};

use crate::driver::{run_loop, sim_tasklets, tasklet_rng, BodyStep, Next, TaskletLoop, TxBody};

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
    pub(crate) fn centroid_words(&self) -> u32 {
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
    pub(crate) fn sum_var(&self, cluster: u32, dim: u32) -> TVar<u64> {
        self.centroids.at(cluster * self.config.centroid_words() + dim)
    }

    /// Typed handle to centroid `cluster`'s membership count.
    pub(crate) fn count_var(&self, cluster: u32) -> TVar<u64> {
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
pub(crate) fn reference_centroids(config: &KmeansConfig) -> Vec<u64> {
    let mut seed_rng = SimRng::new(0xC0FFEE);
    (0..config.clusters * config.dimensions)
        .map(|_| seed_rng.next_range(config.coordinate_range))
        .collect()
}

/// Squared Euclidean distance of `point` to centroid `cluster` of the
/// private `reference` coordinates.
pub(crate) fn cluster_distance(
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
    pub(crate) fn new(data: KmeansData) -> Self {
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

/// One KMeans tasklet: for each of its `points_per_tasklet` points, read the
/// point (one scheduler step), scan the centroids for the nearest (one step
/// per centroid, the last one handing the point over), then fold it in.
/// Every step between transactions charges its instructions as
/// non-transactional execution.
#[derive(Debug)]
pub struct KmeansTasklet {
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
    /// The centroid the next step compares; `None` reads the next point.
    scan: Option<u32>,
}

impl KmeansTasklet {
    /// The loop of one tasklet drawing its points from `rng`.
    pub(crate) fn new(data: KmeansData, rng: SimRng) -> Self {
        let config = data.config;
        KmeansTasklet {
            body: KmeansTxBody::new(data),
            config,
            rng,
            remaining: config.points_per_tasklet,
            point: Vec::new(),
            reference: reference_centroids(&config),
            best_cluster: 0,
            best_distance: u64::MAX,
            scan: None,
        }
    }
}

impl TaskletLoop for KmeansTasklet {
    type Body = KmeansTxBody;

    fn between(&mut self, p: &mut dyn Platform) -> Next {
        let dims = u64::from(self.config.dimensions);
        let Some(cluster) = self.scan else {
            if self.remaining == 0 {
                return Next::Finish;
            }
            self.remaining -= 1;
            // Draw the point and model reading it from the tasklet's MRAM
            // shard (d words of non-transactional input).
            self.point = (0..self.config.dimensions)
                .map(|_| self.rng.next_range(self.config.coordinate_range))
                .collect();
            p.set_phase(Phase::OtherExec);
            p.compute(4 * dims);
            self.best_cluster = 0;
            self.best_distance = u64::MAX;
            self.scan = Some(0);
            return Next::Between;
        };
        // The distance to one centroid: d reference loads plus the
        // arithmetic.
        p.set_phase(Phase::OtherExec);
        p.compute(6 * dims);
        let distance = cluster_distance(&self.config, &self.reference, &self.point, cluster);
        if distance < self.best_distance {
            self.best_distance = distance;
            self.best_cluster = cluster;
        }
        if cluster + 1 < self.config.clusters {
            self.scan = Some(cluster + 1);
            return Next::Between;
        }
        // Hand the point over (the next point is drawn afresh); cloning
        // here would allocate once per point in the hot loop.
        self.body.prepare(self.best_cluster, std::mem::take(&mut self.point));
        self.scan = None;
        Next::Run
    }

    fn body(&mut self) -> &mut KmeansTxBody {
        &mut self.body
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
    let programs =
        sim_tasklets(dpu, shared, tasklets, |_, t| KmeansTasklet::new(data, tasklet_rng(seed, t)));
    (data, programs)
}

/// Runs the same workload — the same [`KmeansTasklet`] — on the threaded
/// executor.
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
        let rng = tasklet_rng(seed, tasklet.tasklet_id());
        run_loop(&mut tasklet, KmeansTasklet::new(data, rng));
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
        let mut dpu = Dpu::new(DpuConfig::default());
        let data = KmeansData::allocate(&mut dpu, config);
        let mut stats = pim_sim::TaskletStats::new();
        let mut ctx = pim_sim::TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
        let mut tasklet = KmeansTasklet::new(data, SimRng::new(5));
        for _ in 0..20 {
            // One step reads the point, then one step per centroid; the
            // last one hands the point over with the nearest centroid.
            let steps: Vec<Next> =
                (0..=config.clusters).map(|_| tasklet.between(&mut ctx)).collect();
            assert_eq!(steps.last(), Some(&Next::Run));
            let point = &tasklet.body.point;
            let distance = |c| cluster_distance(&config, &tasklet.reference, point, c);
            let nearest = (0..config.clusters).min_by_key(|&c| (distance(c), c)).unwrap();
            assert_eq!(tasklet.body.cluster, nearest);
        }
    }
}
