//! ArrayBench: the synthetic micro-benchmark of §4.1.
//!
//! Transactions manipulate a shared array split into a *read region* of `Y`
//! entries and an *update region* of `K` entries:
//!
//! * **Workload A** (`N` = 12 500, `Y` = 2 500, `K` = 10 000): each
//!   transaction reads 100 random entries of the read region and then
//!   reads-and-modifies 20 random entries of the update region. Large read
//!   sets, low contention — the workload where validation-based designs
//!   (NOrec, Tiny) pay the most and visible reads shine.
//! * **Workload B** (`K` = 10): each transaction only performs the second
//!   phase on 4 random entries of a 10-entry region. Tiny transactions,
//!   very high contention — the workload where NOrec's implicit back-off and
//!   low abort cost win.
//!
//! The transaction logic lives in [`ArrayBenchBody`], written once against
//! [`TxOps`], and the tasklet loop around it in [`ArrayBenchTasklet`]; both
//! executors run that one loop (see [`crate::driver`]).

use pim_sim::{Dpu, SimRng, TaskletProgram, Tier};
use pim_stm::shared::MetadataAllocator;
use pim_stm::threaded::{ThreadedDpu, ThreadedRunReport};
use pim_stm::var::{self, TArray, TVar, WordAccess};
use pim_stm::{Abort, Platform, RunError, StmShared, TxOps};

use crate::driver::{run_loop, sim_tasklets, tasklet_rng, BodyStep, Next, TaskletLoop, TxBody};

/// Parameters of an ArrayBench run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayBenchConfig {
    /// Entries in the read-only region (`Y` in the paper).
    pub read_region: u32,
    /// Entries in the update region (`K` in the paper).
    pub update_region: u32,
    /// Entries read in the first phase of each transaction, in total.
    pub reads_per_tx: u32,
    /// Contiguous entries fetched per read operation: `1` reads individual
    /// random entries (the paper's original access pattern); larger values
    /// group the same `reads_per_tx` entries into `reads_per_tx /
    /// record_words` random contiguous records, which the STM moves through
    /// [`TxOps::read_words`] — one DMA burst per record under
    /// `ReadStrategy::Batched`, exercising the read-side analogue of the
    /// coalesced commit write-back.
    pub record_words: u32,
    /// Random read-modify-writes performed in the second phase, in total.
    pub updates_per_tx: u32,
    /// Contiguous entries written per update operation: `1` updates
    /// individual random entries (the paper's original access pattern);
    /// larger values group the same `updates_per_tx` entries into
    /// contiguous records, read-modify-written through
    /// [`TxOps::read_words`]/[`TxOps::write_words`] — under encounter-time
    /// locking the record write exercises the multi-ORec acquisition path
    /// ([`pim_stm::LockOrder`]).
    pub update_record_words: u32,
    /// Transactions each tasklet executes.
    pub transactions_per_tasklet: u32,
}

impl ArrayBenchConfig {
    /// Workload A of the paper: 100 entries read over 2 500 entries followed
    /// by 20 updates over 10 000 entries. The read phase fetches its 100
    /// entries as five random 20-entry records so the read-dominated cell
    /// exercises record DMA (the per-word STM checks are unchanged).
    pub fn workload_a() -> Self {
        ArrayBenchConfig {
            read_region: 2_500,
            update_region: 10_000,
            reads_per_tx: 100,
            record_words: 20,
            updates_per_tx: 20,
            update_record_words: 1,
            transactions_per_tasklet: 100,
        }
    }

    /// Workload B of the paper: 4 updates over a 10-entry region.
    pub fn workload_b() -> Self {
        ArrayBenchConfig {
            read_region: 0,
            update_region: 10,
            reads_per_tx: 0,
            record_words: 1,
            updates_per_tx: 4,
            update_record_words: 1,
            transactions_per_tasklet: 400,
        }
    }

    /// Number of read operations the first phase issues: `reads_per_tx`
    /// entries grouped into records of `record_words` (the last record is
    /// dropped rather than shortened if the division is not exact).
    pub fn read_records_per_tx(&self) -> u32 {
        self.reads_per_tx / self.record_words.max(1)
    }

    /// Overrides the record grouping of the read phase; `1` restores the
    /// paper's original access pattern of independent single-entry reads
    /// (note the RNG stream also changes: one draw per record, not per
    /// entry).
    pub fn with_record_words(mut self, words: u32) -> Self {
        self.record_words = words;
        self
    }

    /// Number of update operations the second phase issues: `updates_per_tx`
    /// entries grouped into records of `update_record_words` (mirroring
    /// [`ArrayBenchConfig::read_records_per_tx`]).
    pub fn update_records_per_tx(&self) -> u32 {
        self.updates_per_tx / self.update_record_words.max(1)
    }

    /// Entries actually incremented per committed transaction: with record
    /// grouping, `updates_per_tx` rounded down to a whole number of records.
    pub fn updates_applied_per_tx(&self) -> u32 {
        self.update_records_per_tx() * self.update_record_words.max(1)
    }

    /// Overrides the record grouping of the update phase; `1` restores the
    /// paper's original scattered single-entry read-modify-writes (as with
    /// [`ArrayBenchConfig::with_record_words`], the RNG stream changes: one
    /// draw per record).
    pub fn with_update_record_words(mut self, words: u32) -> Self {
        self.update_record_words = words;
        self
    }

    /// Scales the per-tasklet transaction count (used to shorten benchmark
    /// runs); always keeps at least one transaction.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.transactions_per_tasklet =
            ((self.transactions_per_tasklet as f64 * factor).round() as u32).max(1);
        self
    }

    /// Total array size `N = Y + K`.
    pub fn array_words(&self) -> u32 {
        self.read_region + self.update_region
    }

    /// A reasonable read-set capacity for this configuration.
    pub fn read_set_capacity(&self) -> u32 {
        (self.reads_per_tx + self.updates_per_tx + 8).next_power_of_two()
    }

    /// A reasonable write-set capacity for this configuration.
    pub fn write_set_capacity(&self) -> u32 {
        (self.updates_per_tx + 8).next_power_of_two()
    }
}

/// Shared state of the benchmark: the array in MRAM, handled through the
/// typed [`TArray`] facade.
#[derive(Debug, Clone, Copy)]
pub struct ArrayBenchData {
    /// The whole array: the read region (`Y` entries) directly followed by
    /// the update region.
    pub array: TArray<u64>,
    config: ArrayBenchConfig,
}

impl ArrayBenchData {
    /// Allocates the shared array in MRAM on either executor.
    ///
    /// # Panics
    ///
    /// Panics if MRAM cannot hold the array (it always can on a real DPU for
    /// the paper's sizes).
    pub fn allocate<A: MetadataAllocator + ?Sized>(
        alloc: &mut A,
        config: ArrayBenchConfig,
    ) -> Self {
        if config.reads_per_tx > 0 {
            assert!(
                config.record_words >= 1 && config.record_words <= config.read_region,
                "ArrayBench record_words ({}) must lie in 1..=read_region ({}) so every \
                 record fits inside the read region",
                config.record_words,
                config.read_region
            );
            assert!(
                config.record_words <= config.reads_per_tx,
                "ArrayBench record_words ({}) must not exceed reads_per_tx ({}): the read \
                 phase would silently vanish (reads_per_tx / record_words rounds to zero)",
                config.record_words,
                config.reads_per_tx
            );
        }
        if config.updates_per_tx > 0 {
            assert!(
                config.update_record_words >= 1
                    && config.update_record_words <= config.update_region,
                "ArrayBench update_record_words ({}) must lie in 1..=update_region ({}) so \
                 every update record fits inside the update region",
                config.update_record_words,
                config.update_region
            );
            assert!(
                config.update_record_words <= config.updates_per_tx,
                "ArrayBench update_record_words ({}) must not exceed updates_per_tx ({}): \
                 the update phase would silently vanish",
                config.update_record_words,
                config.updates_per_tx
            );
        }
        let array = var::alloc_array(alloc, Tier::Mram, config.array_words())
            .expect("ArrayBench array must fit in MRAM");
        ArrayBenchData { array, config }
    }

    fn read_entry(&self, index: u32) -> TVar<u64> {
        debug_assert!(index < self.config.read_region);
        self.array.at(index)
    }

    /// Address of a `record_words`-entry record starting at `index` in the
    /// read region.
    fn read_record_addr(&self, index: u32) -> pim_sim::Addr {
        debug_assert!(index + self.config.record_words <= self.config.read_region);
        self.array.at(index).addr()
    }

    fn update_entry(&self, index: u32) -> TVar<u64> {
        debug_assert!(index < self.config.update_region);
        self.array.at(self.config.read_region + index)
    }

    /// Address of an `update_record_words`-entry record starting at `index`
    /// in the update region.
    fn update_record_addr(&self, index: u32) -> pim_sim::Addr {
        debug_assert!(index + self.config.update_record_words <= self.config.update_region);
        self.update_entry(index).addr()
    }

    /// Sum of the update region, read directly (host-side); used by tests to
    /// check that committed increments are not lost.
    pub fn update_region_sum<M: WordAccess + ?Sized>(&self, mem: &M) -> u64 {
        (0..self.config.update_region).map(|i| var::peek_var(mem, self.update_entry(i))).sum()
    }
}

/// One ArrayBench transaction: the read phase followed by the update phase,
/// one read operation (a single entry or one contiguous record, depending
/// on [`ArrayBenchConfig::record_words`]) or one update per step.
/// [`ArrayBenchBody::prepare`] draws the random targets for the next
/// transaction (outside the body, so retries reuse them, like the original
/// benchmark).
#[derive(Debug)]
pub struct ArrayBenchBody {
    data: ArrayBenchData,
    read_targets: Vec<u32>,
    update_targets: Vec<u32>,
    /// Staging buffer for record reads (the tasklet's WRAM scratch).
    record_buf: Vec<u64>,
    /// Staging buffer for update-record read-modify-writes.
    update_buf: Vec<u64>,
    position: usize,
}

impl ArrayBenchBody {
    /// Creates a body over the shared array.
    pub fn new(data: ArrayBenchData) -> Self {
        let record_buf = vec![0u64; data.config.record_words.max(1) as usize];
        let update_buf = vec![0u64; data.config.update_record_words.max(1) as usize];
        ArrayBenchBody {
            data,
            read_targets: Vec::new(),
            update_targets: Vec::new(),
            record_buf,
            update_buf,
            position: 0,
        }
    }

    /// Draws the target entries of the next transaction.
    pub fn prepare(&mut self, rng: &mut SimRng) {
        let config = self.data.config;
        self.read_targets.clear();
        self.update_targets.clear();
        // Record starts stay inside the read region: a record spans
        // `record_words` consecutive entries from its start.
        let start_range =
            u64::from(config.read_region.saturating_sub(config.record_words.saturating_sub(1)));
        for _ in 0..config.read_records_per_tx() {
            self.read_targets.push(rng.next_range(start_range) as u32);
        }
        // Update-record starts likewise stay inside the update region.
        let update_range = u64::from(
            config.update_region.saturating_sub(config.update_record_words.saturating_sub(1)),
        );
        for _ in 0..config.update_records_per_tx() {
            self.update_targets.push(rng.next_range(update_range) as u32);
        }
    }

    fn total_ops(&self) -> usize {
        self.read_targets.len() + self.update_targets.len()
    }
}

impl TxBody for ArrayBenchBody {
    fn reset(&mut self) {
        self.position = 0;
    }

    fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort> {
        let position = self.position;
        if position < self.read_targets.len() {
            let start = self.read_targets[position];
            if self.data.config.record_words > 1 {
                tx.read_words(self.data.read_record_addr(start), &mut self.record_buf)?;
            } else {
                tx.get(self.data.read_entry(start))?;
            }
        } else if position < self.total_ops() {
            let start = self.update_targets[position - self.read_targets.len()];
            if self.data.config.update_record_words > 1 {
                // Read-modify-write one contiguous record: the record write
                // takes the multi-ORec acquisition path under encounter-time
                // locking.
                let addr = self.data.update_record_addr(start);
                tx.read_words(addr, &mut self.update_buf)?;
                for value in &mut self.update_buf {
                    *value = value.wrapping_add(1);
                }
                tx.write_words(addr, &self.update_buf)?;
            } else {
                let entry = self.data.update_entry(start);
                let value = tx.get(entry)?;
                tx.set(entry, value.wrapping_add(1))?;
            }
        }
        self.position += 1;
        if self.position >= self.total_ops() {
            Ok(BodyStep::Done)
        } else {
            Ok(BodyStep::Continue)
        }
    }
}

/// One ArrayBench tasklet: `transactions_per_tasklet` times, draw the next
/// transaction's targets (a scheduler step of its own), then run it.
#[derive(Debug)]
pub struct ArrayBenchTasklet {
    body: ArrayBenchBody,
    rng: SimRng,
    remaining: u32,
}

impl ArrayBenchTasklet {
    /// The loop of one tasklet drawing its targets from `rng`.
    pub fn new(data: ArrayBenchData, rng: SimRng) -> Self {
        let remaining = data.config.transactions_per_tasklet;
        ArrayBenchTasklet { body: ArrayBenchBody::new(data), rng, remaining }
    }
}

impl TaskletLoop for ArrayBenchTasklet {
    type Body = ArrayBenchBody;

    fn between(&mut self, _: &mut dyn Platform) -> Next {
        if self.remaining == 0 {
            return Next::Finish;
        }
        self.remaining -= 1;
        self.body.prepare(&mut self.rng);
        Next::Run
    }

    fn body(&mut self) -> &mut ArrayBenchBody {
        &mut self.body
    }
}

/// Builds the per-tasklet programs for one ArrayBench run.
///
/// The caller has already allocated the STM instance (`shared`) on `dpu`; the
/// returned programs share the same array.
pub fn build(
    dpu: &mut Dpu,
    shared: &StmShared,
    config: ArrayBenchConfig,
    tasklets: usize,
    seed: u64,
) -> (ArrayBenchData, Vec<Box<dyn TaskletProgram>>) {
    let data = ArrayBenchData::allocate(dpu, config);
    let programs = sim_tasklets(dpu, shared, tasklets, |_, t| {
        ArrayBenchTasklet::new(data, tasklet_rng(seed, t))
    });
    (data, programs)
}

/// Runs the same workload — the same [`ArrayBenchTasklet`] — on the threaded
/// executor. `dpu` must already hold the STM instance this run uses.
///
/// # Errors
///
/// Returns [`RunError`] if the tasklet count exceeds the hardware limit or
/// the per-tasklet transaction logs do not fit.
pub fn run_threaded(
    dpu: &mut ThreadedDpu,
    config: ArrayBenchConfig,
    tasklets: usize,
    seed: u64,
) -> Result<(ArrayBenchData, ThreadedRunReport), RunError> {
    let data = ArrayBenchData::allocate(dpu, config);
    let report = dpu.run(tasklets, |mut tasklet| {
        let rng = tasklet_rng(seed, tasklet.tasklet_id());
        run_loop(&mut tasklet, ArrayBenchTasklet::new(data, rng));
    })?;
    Ok((data, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{DpuConfig, Scheduler};
    use pim_stm::{MetadataPlacement, StmConfig, StmKind};

    fn run_arraybench(kind: StmKind, cfg: ArrayBenchConfig, tasklets: usize) -> (u64, f64) {
        let mut dpu = Dpu::new(DpuConfig::default());
        let stm_cfg = StmConfig::new(kind, MetadataPlacement::Mram)
            .with_read_set_capacity(cfg.read_set_capacity())
            .with_write_set_capacity(cfg.write_set_capacity());
        let shared = StmShared::allocate(&mut dpu, stm_cfg).unwrap();
        let (data, programs) = build(&mut dpu, &shared, cfg, tasklets, 42);
        let report = Scheduler::new().run(&mut dpu, programs);
        let expected_commits = cfg.transactions_per_tasklet as u64 * tasklets as u64;
        assert_eq!(report.total_commits(), expected_commits, "{kind}: committed tx count");
        // Every committed transaction increments `updates_per_tx` array
        // entries by one; lost updates would show up here.
        let expected_sum = expected_commits * u64::from(cfg.updates_applied_per_tx());
        assert_eq!(data.update_region_sum(&dpu), expected_sum, "{kind}: lost updates");
        (report.total_aborts(), report.throughput_tx_per_sec())
    }

    #[test]
    fn workload_a_parameters_match_the_paper() {
        let a = ArrayBenchConfig::workload_a();
        assert_eq!(a.array_words(), 12_500);
        assert_eq!(a.reads_per_tx, 100);
        assert_eq!(a.updates_per_tx, 20);
        // The 100 read entries move as five 20-entry records.
        assert_eq!(a.record_words, 20);
        assert_eq!(a.read_records_per_tx(), 5);
        let b = ArrayBenchConfig::workload_b();
        assert_eq!(b.update_region, 10);
        assert_eq!(b.updates_per_tx, 4);
        assert_eq!(b.record_words, 1);
    }

    #[test]
    fn record_reads_fill_the_read_set_with_every_record_word() {
        // A read-only single-tasklet cell: 2 records of 8 words each must
        // leave 16 read-set entries (per-word metadata bookkeeping survives
        // the batched data movement).
        let cfg = ArrayBenchConfig {
            read_region: 64,
            update_region: 4,
            reads_per_tx: 16,
            record_words: 8,
            updates_per_tx: 1,
            update_record_words: 1,
            transactions_per_tasklet: 3,
        };
        for kind in [StmKind::TinyEtlWb, StmKind::VrCtlWb, StmKind::Norec] {
            run_arraybench(kind, cfg, 2);
        }
    }

    #[test]
    fn grouped_updates_conserve_increments_for_every_design() {
        // Workload B with its 4 updates grouped into one contiguous 4-entry
        // record: under encounter-time locking the record write goes through
        // the sorted multi-ORec acquisition, and the conservation check
        // (updates_applied_per_tx per commit) must still hold.
        let cfg = ArrayBenchConfig::workload_b().with_update_record_words(4).scaled(0.1);
        assert_eq!(cfg.update_records_per_tx(), 1);
        assert_eq!(cfg.updates_applied_per_tx(), 4);
        for kind in StmKind::ALL {
            run_arraybench(kind, cfg, 4);
        }
    }

    #[test]
    #[should_panic(expected = "update_record_words")]
    fn update_records_larger_than_the_region_are_rejected() {
        let cfg = ArrayBenchConfig::workload_b().with_update_record_words(20);
        let mut dpu = Dpu::new(DpuConfig::small());
        let _ = ArrayBenchData::allocate(&mut dpu, cfg);
    }

    #[test]
    fn workload_b_is_linearizable_for_every_design() {
        let cfg = ArrayBenchConfig::workload_b().scaled(0.2);
        for kind in StmKind::ALL {
            run_arraybench(kind, cfg, 4);
        }
    }

    #[test]
    fn workload_a_is_linearizable_for_norec_and_tiny() {
        let cfg =
            ArrayBenchConfig { transactions_per_tasklet: 10, ..ArrayBenchConfig::workload_a() };
        for kind in [StmKind::Norec, StmKind::TinyEtlWb, StmKind::VrEtlWt] {
            run_arraybench(kind, cfg, 3);
        }
    }

    #[test]
    fn high_contention_workload_generates_aborts() {
        let cfg = ArrayBenchConfig::workload_b().scaled(0.5);
        let mut total_aborts = 0;
        for kind in [StmKind::TinyEtlWb, StmKind::VrEtlWb, StmKind::Norec] {
            let (aborts, _) = run_arraybench(kind, cfg, 8);
            total_aborts += aborts;
        }
        assert!(total_aborts > 0, "workload B with 8 tasklets must conflict sometimes");
    }

    #[test]
    fn the_same_body_runs_threaded_without_losing_updates() {
        let cfg = ArrayBenchConfig::workload_b().scaled(0.25);
        let stm_cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
            .with_read_set_capacity(cfg.read_set_capacity())
            .with_write_set_capacity(cfg.write_set_capacity());
        let mut dpu = ThreadedDpu::new(stm_cfg).unwrap();
        let (data, report) = run_threaded(&mut dpu, cfg, 4, 42).unwrap();
        let expected = cfg.transactions_per_tasklet as u64 * 4;
        assert_eq!(report.commits, expected);
        assert_eq!(data.update_region_sum(&dpu), expected * u64::from(cfg.updates_per_tx));
    }

    #[test]
    fn scaling_keeps_at_least_one_transaction() {
        let cfg = ArrayBenchConfig::workload_a().scaled(0.0001);
        assert_eq!(cfg.transactions_per_tasklet, 1);
    }

    #[test]
    fn single_entry_reads_remain_reachable() {
        // `.with_record_words(1)` restores the paper's original scattered
        // single-entry read phase.
        let cfg = ArrayBenchConfig {
            transactions_per_tasklet: 5,
            ..ArrayBenchConfig::workload_a().with_record_words(1)
        };
        assert_eq!(cfg.read_records_per_tx(), 100);
        run_arraybench(StmKind::TinyEtlWb, cfg, 2);
    }

    #[test]
    #[should_panic(expected = "record_words")]
    fn records_larger_than_the_read_region_are_rejected() {
        let cfg = ArrayBenchConfig {
            read_region: 10,
            record_words: 20,
            reads_per_tx: 20,
            ..ArrayBenchConfig::workload_a()
        };
        let mut dpu = Dpu::new(DpuConfig::small());
        let _ = ArrayBenchData::allocate(&mut dpu, cfg);
    }

    #[test]
    #[should_panic(expected = "read phase would silently vanish")]
    fn records_longer_than_the_read_budget_are_rejected() {
        // 150-word records with a 100-entry read budget would floor the
        // record count to zero and quietly drop the read phase.
        let cfg = ArrayBenchConfig::workload_a().with_record_words(150);
        let mut dpu = Dpu::new(DpuConfig::small());
        let _ = ArrayBenchData::allocate(&mut dpu, cfg);
    }
}
