//! Labyrinth: the STAMP circuit-routing benchmark (Lee's algorithm) ported
//! to PIM-STM (§4.1).
//!
//! A shared 3-D grid lives in MRAM. Tasklets pull routing jobs
//! (source/destination cell pairs) from a shared work queue — a very short
//! transaction — and then run one long transaction per job: copy the grid
//! into a private MRAM buffer (plain DMA, no STM instrumentation, exactly as
//! STAMP does), run a breadth-first Lee expansion plus backtrack on the
//! private copy, and finally *claim* the chosen path by transactionally
//! re-checking and writing every cell on it. If a cell turned out to be taken
//! by a concurrently committed path, the transaction restarts with a fresh
//! copy of the grid.
//!
//! The paper uses three grid sizes (S = 16×16×3, M = 32×32×3,
//! L = 128×128×3); larger grids mean longer, more memory-bound transactions,
//! which is what saturates the DPU pipeline below 11 tasklets in Fig. 5.
//!
//! Both transactions live in [`TxOps`]-generic bodies ([`PopTxBody`],
//! [`RouteTxBody`]), and the pop-then-route loop around them in
//! [`LabyrinthTasklet`]; both executors run that one loop (see
//! [`crate::driver`]). The
//! grid snapshot and the Lee expansion use the facade's *raw* (plain-DMA)
//! operations — sound because every consumed cell is transactionally
//! re-validated during the claim — and the application-level restart on a
//! taken cell goes through [`TxOps::cancel`].

use pim_sim::{Addr, Dpu, SimRng, TaskletProgram, Tier};
use pim_stm::shared::MetadataAllocator;
use pim_stm::threaded::{ThreadedDpu, ThreadedRunReport};
use pim_stm::var::{self, TArray, TVar, WordAccess};
use pim_stm::{Abort, Platform, RunError, StmShared, TxOps, TxStamps};

use crate::driver::{run_loop, sim_tasklets, BodyStep, Next, TaskletLoop, TxBody};

/// Cell states in the shared grid.
const FREE: u64 = 0;
const OCCUPIED: u64 = 1;
/// First wavefront value used by the Lee expansion on the private grid.
const WAVE_BASE: u64 = 2;

/// Parameters of a Labyrinth run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabyrinthConfig {
    /// Grid width (cells).
    pub width: u32,
    /// Grid height (cells).
    pub height: u32,
    /// Grid depth (layers).
    pub depth: u32,
    /// Number of paths to route (shared by all tasklets through the work
    /// queue).
    pub paths: u32,
}

impl LabyrinthConfig {
    /// Workload S of the paper: 16×16×3, 100 paths.
    pub fn small() -> Self {
        LabyrinthConfig { width: 16, height: 16, depth: 3, paths: 100 }
    }

    /// Workload M of the paper: 32×32×3, 100 paths.
    pub fn medium() -> Self {
        LabyrinthConfig { width: 32, height: 32, depth: 3, ..Self::small() }
    }

    /// Workload L of the paper: 128×128×3, 100 paths.
    pub fn large() -> Self {
        LabyrinthConfig { width: 128, height: 128, depth: 3, ..Self::small() }
    }

    /// Scales the number of paths, keeping at least one per expected tasklet.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.paths = ((self.paths as f64 * factor).round() as u32).max(12);
        self
    }

    /// Total number of grid cells.
    pub fn cells(&self) -> u32 {
        self.width * self.height * self.depth
    }

    /// Upper bound on the number of cells of a routed path, used to size the
    /// transaction logs.
    pub(crate) fn max_path_cells(&self) -> u32 {
        // A Lee path is at most a Manhattan walk that detours; four times the
        // grid semi-perimeter is a comfortable bound for these densities.
        (self.width + self.height + self.depth) * 4
    }

    /// A sufficient read-set capacity (path claim plus queue pop).
    pub fn read_set_capacity(&self) -> u32 {
        (self.max_path_cells() + 16).next_power_of_two()
    }

    /// A sufficient write-set capacity.
    pub fn write_set_capacity(&self) -> u32 {
        (self.max_path_cells() + 16).next_power_of_two()
    }

    /// The axis neighbours of `cell` inside the grid, in the order x−1,
    /// x+1, y−1, y+1, z−1, z+1. The backtrack claims the first neighbour
    /// one wave lower, so this order decides which path is claimed. They
    /// are held by value: the Lee expansion allocates nothing per cell.
    fn neighbours(&self, cell: u32) -> impl Iterator<Item = u32> {
        let w = self.width;
        let h = self.height;
        let d = self.depth;
        let layer = w * h;
        let z = cell / layer;
        let y = (cell % layer) / w;
        let x = cell % w;
        let mut cells = [0u32; 6];
        let mut len = 0;
        let mut push = |n| {
            cells[len] = n;
            len += 1;
        };
        if x > 0 {
            push(cell - 1);
        }
        if x + 1 < w {
            push(cell + 1);
        }
        if y > 0 {
            push(cell - w);
        }
        if y + 1 < h {
            push(cell + w);
        }
        if z > 0 {
            push(cell - layer);
        }
        if z + 1 < d {
            push(cell + layer);
        }
        cells.into_iter().take(len)
    }
}

/// Shared Labyrinth state: the grid and the work queue.
#[derive(Debug, Clone, Copy)]
pub struct LabyrinthData {
    /// The shared grid (`cells()` words).
    pub grid: TArray<u64>,
    /// Word holding the index of the next unclaimed job.
    pub queue_head: TVar<u64>,
    /// The job array (`2 × paths` words: source, destination).
    pub queue: TArray<u64>,
    config: LabyrinthConfig,
}

impl LabyrinthData {
    /// Allocates the grid and the work queue on either executor and fills
    /// the queue with `config.paths` random source/destination pairs.
    ///
    /// # Panics
    ///
    /// Panics if MRAM cannot hold the grid and queue.
    pub fn allocate<M: MetadataAllocator + WordAccess>(
        mem: &mut M,
        config: LabyrinthConfig,
        seed: u64,
    ) -> Self {
        let grid: TArray<u64> = var::alloc_array(mem, Tier::Mram, config.cells())
            .expect("shared grid must fit in MRAM");
        let queue_head: TVar<u64> =
            var::alloc_var(mem, Tier::Mram).expect("queue head must fit in MRAM");
        let queue: TArray<u64> = var::alloc_array(mem, Tier::Mram, config.paths * 2)
            .expect("work queue must fit in MRAM");
        let mut rng = SimRng::new(seed);
        for i in 0..config.paths {
            let src = rng.next_range(u64::from(config.cells()));
            let mut dst = rng.next_range(u64::from(config.cells()));
            while dst == src {
                dst = rng.next_range(u64::from(config.cells()));
            }
            var::poke_var(mem, queue.at(2 * i), src);
            var::poke_var(mem, queue.at(2 * i + 1), dst);
        }
        LabyrinthData { grid, queue_head, queue, config }
    }

    /// Typed handle to grid cell `index`.
    pub fn cell(&self, index: u32) -> TVar<u64> {
        self.grid.at(index)
    }

    /// Number of jobs already claimed from the queue (host-side read).
    pub(crate) fn jobs_claimed<M: WordAccess + ?Sized>(&self, mem: &M) -> u64 {
        var::peek_var(mem, self.queue_head)
    }

    /// Checks that the committed grid holds only free/occupied cells (no
    /// wave values leaked from private copies) and that every job was
    /// claimed exactly once.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate<M: WordAccess + ?Sized>(&self, mem: &M) -> Result<(), String> {
        let claimed = self.jobs_claimed(mem);
        if claimed != u64::from(self.config.paths) {
            return Err(format!(
                "queue head at {claimed}, expected all {} jobs claimed",
                self.config.paths
            ));
        }
        for i in 0..self.config.cells() {
            let v = var::peek_var(mem, self.cell(i));
            if v != FREE && v != OCCUPIED {
                return Err(format!("grid cell {i} holds unexpected value {v}"));
            }
        }
        Ok(())
    }
}

/// The queue-pop transaction: read the head, read the job pair, advance the
/// head. After commit, [`PopTxBody::job`] holds the claimed pair, or `None`
/// when the queue is drained.
#[derive(Debug)]
pub struct PopTxBody {
    data: LabyrinthData,
    head: u64,
    loaded_head: bool,
    job: Option<(u32, u32)>,
}

impl PopTxBody {
    /// Creates the body over the shared queue.
    pub(crate) fn new(data: LabyrinthData) -> Self {
        PopTxBody { data, head: 0, loaded_head: false, job: None }
    }

    /// The job claimed by the last committed pop (`None` = queue drained).
    pub fn job(&self) -> Option<(u32, u32)> {
        self.job
    }
}

impl TxBody for PopTxBody {
    fn reset(&mut self) {
        self.loaded_head = false;
        self.job = None;
    }

    fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort> {
        if !self.loaded_head {
            self.head = tx.get(self.data.queue_head)?;
            self.loaded_head = true;
            if self.head >= u64::from(self.data.config.paths) {
                // Drained: commit an (empty, read-only) transaction.
                return Ok(BodyStep::Done);
            }
            return Ok(BodyStep::Continue);
        }
        let index = self.head as u32;
        let src = tx.get(self.data.queue.at(2 * index))?;
        let dst = tx.get(self.data.queue.at(2 * index + 1))?;
        tx.set(self.data.queue_head, self.head + 1)?;
        self.job = Some((src as u32, dst as u32));
        Ok(BodyStep::Done)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouteStep {
    CopyGrid,
    Route,
    Claim { index: usize },
}

/// The routing transaction: snapshot the shared grid into this tasklet's
/// private MRAM buffer with plain DMA ([`TxOps::raw_copy`]), run the Lee
/// expansion and backtrack on the private copy ([`TxOps::raw_load`] /
/// [`TxOps::raw_store`] — the accesses that make the workload memory-bound),
/// then transactionally claim the path one cell per step.
///
/// A claim step that finds a cell taken by a concurrently *committed* path
/// cancels the attempt ([`TxOps::cancel`]); the retry re-snapshots the grid
/// and re-routes, exactly like STAMP. STM-level conflicts rewind the same
/// way through the normal abort path.
#[derive(Debug)]
pub struct RouteTxBody {
    data: LabyrinthData,
    /// Base of this tasklet's private `cells()`-word MRAM grid copy.
    private_grid: Addr,
    src: u32,
    dst: u32,
    step: RouteStep,
    path: Vec<u32>,
    /// Scratch for the expansion (kept across steps to avoid realloc).
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
}

impl RouteTxBody {
    /// Creates the body; `private_grid` must be a `cells()`-word MRAM region
    /// owned exclusively by this tasklet.
    pub(crate) fn new(data: LabyrinthData, private_grid: Addr) -> Self {
        RouteTxBody {
            data,
            private_grid,
            src: 0,
            dst: 0,
            step: RouteStep::CopyGrid,
            path: Vec::new(),
            frontier: Vec::new(),
            next_frontier: Vec::new(),
        }
    }

    /// Installs the next job.
    pub fn prepare(&mut self, src: u32, dst: u32) {
        self.src = src;
        self.dst = dst;
    }

    fn private_cell(&self, index: u32) -> Addr {
        self.private_grid.offset(index)
    }

    /// Lee expansion + backtrack on the private grid, through the raw
    /// (uninstrumented, but cycle-charged) facade ops. Returns the path
    /// (including both endpoints) or `None` if the destination is
    /// unreachable in the snapshot.
    fn route<O: TxOps>(&mut self, tx: &mut O) -> Option<Vec<u32>> {
        let config = self.data.config;
        let src = self.src;
        let dst = self.dst;
        if tx.raw_load(self.private_cell(src)) != FREE
            || tx.raw_load(self.private_cell(dst)) != FREE
        {
            return None;
        }
        tx.raw_store(self.private_cell(src), WAVE_BASE);
        self.frontier.clear();
        self.frontier.push(src);
        self.next_frontier.clear();
        let mut wave = WAVE_BASE;
        let mut found = src == dst;
        'expansion: while !self.frontier.is_empty() && !found {
            self.next_frontier.clear();
            for f in 0..self.frontier.len() {
                let cell = self.frontier[f];
                for n in config.neighbours(cell) {
                    tx.compute(4);
                    if n == dst {
                        tx.raw_store(self.private_cell(n), wave + 1);
                        found = true;
                        break 'expansion;
                    }
                    if tx.raw_load(self.private_cell(n)) == FREE {
                        tx.raw_store(self.private_cell(n), wave + 1);
                        self.next_frontier.push(n);
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
            wave += 1;
        }
        if !found {
            return None;
        }
        // Backtrack from the destination following decreasing wave values.
        let mut path = vec![dst];
        let mut cur = dst;
        let mut value = tx.raw_load(self.private_cell(dst));
        while cur != src {
            let mut stepped = false;
            for n in config.neighbours(cur) {
                tx.compute(2);
                if tx.raw_load(self.private_cell(n)) == value - 1 {
                    cur = n;
                    value -= 1;
                    path.push(n);
                    stepped = true;
                    break;
                }
            }
            assert!(stepped, "Lee backtrack lost the wavefront (corrupted private grid)");
        }
        Some(path)
    }
}

impl TxBody for RouteTxBody {
    fn reset(&mut self) {
        self.step = RouteStep::CopyGrid;
        self.path.clear();
    }

    fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort> {
        match self.step {
            RouteStep::CopyGrid => {
                // Snapshot the shared grid into the private buffer with plain
                // DMA (no STM instrumentation), exactly like STAMP; the claim
                // phase re-validates every consumed cell transactionally.
                tx.raw_copy(self.data.grid.addr(), self.private_grid, self.data.config.cells());
                self.step = RouteStep::Route;
                Ok(BodyStep::Continue)
            }
            RouteStep::Route => match self.route(tx) {
                Some(path) => {
                    self.path = path;
                    self.step = RouteStep::Claim { index: 0 };
                    Ok(BodyStep::Continue)
                }
                None => {
                    // No free path exists in the snapshot: give up on this
                    // job (the transaction is empty, so commit is trivial).
                    self.path.clear();
                    Ok(BodyStep::Done)
                }
            },
            RouteStep::Claim { index } => {
                if index >= self.path.len() {
                    return Ok(BodyStep::Done);
                }
                let cell = self.data.cell(self.path[index]);
                let value = tx.get(cell)?;
                if value != FREE {
                    // A concurrently committed path grabbed this cell:
                    // application-level restart with a fresh grid copy.
                    return Err(tx.cancel());
                }
                tx.set(cell, OCCUPIED)?;
                self.step = RouteStep::Claim { index: index + 1 };
                Ok(BodyStep::Continue)
            }
        }
    }
}

/// One Labyrinth tasklet: pop a job, route it, until the queue is drained.
/// Its first body, the pop, is ready from the start, and each commit hands
/// the next body over on the commit step itself: a popped job's route, or
/// after a route the next pop. The commit of the pop that finds the queue
/// drained ends the tasklet.
#[derive(Debug)]
pub struct LabyrinthTasklet {
    pop: PopTxBody,
    route: RouteTxBody,
    /// Whether the body in flight is the route (otherwise the pop).
    routing: bool,
}

impl LabyrinthTasklet {
    /// The loop of one tasklet; `private_grid` must be a `cells()`-word
    /// MRAM region owned exclusively by this tasklet.
    pub(crate) fn new(data: LabyrinthData, private_grid: Addr) -> Self {
        LabyrinthTasklet {
            pop: PopTxBody::new(data),
            route: RouteTxBody::new(data, private_grid),
            routing: false,
        }
    }
}

/// The tasklet's two transactions behind one body: the one in flight.
impl TxBody for LabyrinthTasklet {
    fn reset(&mut self) {
        if self.routing {
            self.route.reset()
        } else {
            self.pop.reset()
        }
    }

    fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort> {
        if self.routing {
            self.route.step(tx)
        } else {
            self.pop.step(tx)
        }
    }
}

impl TaskletLoop for LabyrinthTasklet {
    type Body = Self;

    const READY: bool = true;

    /// Never asked: every commit names the next body or the end.
    fn between(&mut self, _: &mut dyn Platform) -> Next {
        Next::Run
    }

    fn body(&mut self) -> &mut Self {
        self
    }

    fn committed(&mut self, _: &mut dyn Platform, _: TxStamps) -> Next {
        if self.routing {
            self.routing = false;
            return Next::Run;
        }
        match self.pop.job() {
            Some((src, dst)) => {
                self.route.prepare(src, dst);
                self.routing = true;
                Next::Run
            }
            None => Next::Finish,
        }
    }
}

/// Builds the per-tasklet programs for one Labyrinth run.
pub fn build(
    dpu: &mut Dpu,
    shared: &StmShared,
    config: LabyrinthConfig,
    tasklets: usize,
    seed: u64,
) -> (LabyrinthData, Vec<Box<dyn TaskletProgram>>) {
    let data = LabyrinthData::allocate(dpu, config, seed);
    let programs = sim_tasklets(dpu, shared, tasklets, |dpu, _| {
        let private_grid =
            dpu.alloc(Tier::Mram, config.cells()).expect("private grid copies must fit in MRAM");
        LabyrinthTasklet::new(data, private_grid)
    });
    (data, programs)
}

/// Runs the same workload — the same [`LabyrinthTasklet`] — on the threaded
/// executor.
///
/// # Errors
///
/// Returns [`RunError`] if the tasklet count exceeds the hardware limit or
/// the per-tasklet transaction logs / private grids do not fit.
pub fn run_threaded(
    dpu: &mut ThreadedDpu,
    config: LabyrinthConfig,
    tasklets: usize,
    seed: u64,
) -> Result<(LabyrinthData, ThreadedRunReport), RunError> {
    let data = LabyrinthData::allocate(dpu, config, seed);
    let private_grids: Vec<Addr> =
        (0..tasklets).map(|_| dpu.alloc(Tier::Mram, config.cells())).collect::<Result<_, _>>()?;
    let report = dpu.run(tasklets, |mut tasklet| {
        let private_grid = private_grids[tasklet.tasklet_id()];
        run_loop(&mut tasklet, LabyrinthTasklet::new(data, private_grid));
    })?;
    Ok((data, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{DpuConfig, Scheduler};
    use pim_stm::{MetadataPlacement, StmConfig, StmKind};

    fn run_labyrinth(
        kind: StmKind,
        config: LabyrinthConfig,
        tasklets: usize,
    ) -> (LabyrinthData, Dpu, pim_sim::DpuRunReport) {
        let mut dpu = Dpu::new(DpuConfig::default());
        let stm_cfg = StmConfig::new(kind, MetadataPlacement::Mram)
            .with_read_set_capacity(config.read_set_capacity())
            .with_write_set_capacity(config.write_set_capacity());
        let shared = StmShared::allocate(&mut dpu, stm_cfg).unwrap();
        let (data, programs) = build(&mut dpu, &shared, config, tasklets, 11);
        let report = Scheduler::new().run(&mut dpu, programs);
        (data, dpu, report)
    }

    #[test]
    fn paper_grid_sizes() {
        assert_eq!(LabyrinthConfig::small().cells(), 16 * 16 * 3);
        assert_eq!(LabyrinthConfig::medium().cells(), 32 * 32 * 3);
        assert_eq!(LabyrinthConfig::large().cells(), 128 * 128 * 3);
        assert_eq!(LabyrinthConfig::small().paths, 100);
    }

    #[test]
    fn neighbours_are_clipped_at_the_boundary_in_scan_order() {
        // 3×3×2: cell = x + 3y + 9z.
        let config = LabyrinthConfig { width: 3, height: 3, depth: 2, paths: 1 };
        let of = |cell| config.neighbours(cell).collect::<Vec<_>>();
        // Corners: (0,0,0) and (2,2,1).
        assert_eq!(of(0), [1, 3, 9]);
        assert_eq!(of(17), [16, 14, 8]);
        // Edge (1,0,0): no y−1, no z−1.
        assert_eq!(of(1), [0, 2, 4, 10]);
        // Layer centres (1,1,0) and (1,1,1): all four in-layer neighbours.
        assert_eq!(of(4), [3, 5, 1, 7, 13]);
        assert_eq!(of(13), [12, 14, 10, 16, 4]);
    }

    #[test]
    fn every_job_is_claimed_exactly_once() {
        let config = LabyrinthConfig::small().scaled(0.3);
        for kind in [StmKind::Norec, StmKind::TinyEtlWb, StmKind::VrEtlWt] {
            let (data, dpu, _report) = run_labyrinth(kind, config, 4);
            assert_eq!(data.jobs_claimed(&dpu), u64::from(config.paths), "{kind}");
        }
    }

    #[test]
    fn routed_paths_leave_occupied_cells_and_commits() {
        let config = LabyrinthConfig::small().scaled(0.2);
        let (data, dpu, report) = run_labyrinth(StmKind::Norec, config, 2);
        // Every routed path occupies at least two cells (its endpoints).
        let occupied =
            (0..config.cells()).filter(|&i| var::peek_var(&dpu, data.cell(i)) == OCCUPIED).count();
        assert!(occupied >= 2, "at least one path must route on an empty grid");
        // One pop transaction per job plus one final empty pop per tasklet,
        // plus one routing transaction per job.
        assert!(report.total_commits() >= u64::from(config.paths));
    }

    #[test]
    fn paths_never_overlap() {
        // Claimed cells are written exactly once: if two committed paths
        // overlapped, the second claim would have observed OCCUPIED and
        // cancelled. After the run the grid may only contain FREE/OCCUPIED
        // values (no wave values leaked from private copies).
        let config = LabyrinthConfig::small().scaled(0.2);
        let (data, dpu, _) = run_labyrinth(StmKind::TinyEtlWt, config, 6);
        for i in 0..config.cells() {
            let v = var::peek_var(&dpu, data.cell(i));
            assert!(v == FREE || v == OCCUPIED, "cell {i} holds unexpected value {v}");
        }
    }

    #[test]
    fn concurrent_routing_generates_application_level_restarts() {
        let config = LabyrinthConfig { width: 8, height: 8, depth: 1, paths: 30 };
        let (_, _, report) = run_labyrinth(StmKind::TinyEtlWb, config, 6);
        // On a tiny single-layer grid concurrent paths inevitably collide, so
        // some aborts (STM- or application-level) must have happened.
        assert!(report.total_aborts() > 0, "expected contention on an 8x8x1 grid");
    }

    #[test]
    fn the_same_bodies_route_on_the_threaded_executor() {
        let config = LabyrinthConfig::small().scaled(0.2);
        for kind in [StmKind::Norec, StmKind::TinyEtlWb] {
            let stm_cfg = StmConfig::new(kind, MetadataPlacement::Mram)
                .with_read_set_capacity(config.read_set_capacity())
                .with_write_set_capacity(config.write_set_capacity());
            let mut dpu = ThreadedDpu::new(stm_cfg).unwrap();
            let (data, _report) = run_threaded(&mut dpu, config, 4, 11).unwrap();
            assert_eq!(data.jobs_claimed(&dpu), u64::from(config.paths), "{kind}");
            for i in 0..config.cells() {
                let v = var::peek_var(&dpu, data.cell(i));
                assert!(v == FREE || v == OCCUPIED, "{kind}: cell {i} holds {v}");
            }
        }
    }
}
