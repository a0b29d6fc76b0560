//! A sorted, transactional linked list (the concurrent data-structure
//! benchmark of §4.1).
//!
//! The list stores unique keys in ascending order. Every operation —
//! `contains`, `add`, `remove` — runs as one transaction that traverses the
//! list from the head and then, for updates, splices a node in or out. The
//! benchmark keeps the list size roughly constant by issuing the same number
//! of `add` and `remove` operations.
//!
//! Two contention levels are used in the paper: **LC** with 90 % `contains`
//! (read-only transactions) and **HC** with 50 % `contains`.
//!
//! The transaction logic lives in [`ListTxBody`], written once against
//! [`TxOps`] — nodes are pointer-addressed, so the body wraps the raw node
//! words in typed [`TVar`] handles — and the tasklet loop around it in
//! [`ListTasklet`]; both executors run that one loop (see
//! [`crate::driver`]).

use pim_sim::{Addr, Dpu, SimRng, TaskletProgram, Tier};
use pim_stm::shared::MetadataAllocator;
use pim_stm::threaded::{ThreadedDpu, ThreadedRunReport};
use pim_stm::var::{TVar, WordAccess};
use pim_stm::{Abort, Platform, RunError, StmShared, TxOps};

use crate::driver::{run_loop, sim_tasklets, tasklet_rng, BodyStep, Next, TaskletLoop, TxBody};

/// Null pointer encoding in `next` fields and the head word.
const NULL: u64 = 0;
/// Words per list node: `[key, next]`.
const NODE_WORDS: u32 = 2;

/// Parameters of a linked-list run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkedListConfig {
    /// Number of keys inserted before the benchmark starts.
    pub initial_size: u32,
    /// Operations each tasklet performs.
    pub ops_per_tasklet: u32,
    /// Fraction of operations that are `contains` (read-only).
    pub contains_fraction: f64,
    /// Range keys are drawn from (`1 ..= key_range`).
    pub key_range: u64,
}

impl LinkedListConfig {
    /// Low-contention workload of the paper: 90 % `contains`, 100 ops per
    /// tasklet, 10 initial elements.
    pub fn low_contention() -> Self {
        // A key range about twice the initial size keeps add/remove hit rates
        // balanced, so the list size stays roughly constant as the paper
        // requires.
        LinkedListConfig {
            initial_size: 10,
            ops_per_tasklet: 100,
            contains_fraction: 0.9,
            key_range: 20,
        }
    }

    /// High-contention workload of the paper: 50 % `contains`.
    pub fn high_contention() -> Self {
        LinkedListConfig { contains_fraction: 0.5, ..Self::low_contention() }
    }

    /// Scales the per-tasklet operation count, keeping at least one.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.ops_per_tasklet = ((self.ops_per_tasklet as f64 * factor).round() as u32).max(1);
        self
    }

    /// A read-set capacity large enough for full traversals of the largest
    /// list this run can produce.
    pub fn read_set_capacity(&self) -> u32 {
        // Each visited node costs up to two read-set entries (key and next)
        // plus the head pointer; the list can transiently grow by one node
        // per tasklet.
        ((self.initial_size + 64) * 2 + 16).next_power_of_two()
    }

    /// A write-set capacity large enough for any single operation.
    pub fn write_set_capacity(&self) -> u32 {
        16
    }

    /// Node-pool capacity for a run with `tasklets` tasklets (worst case
    /// every update operation is an `add`).
    pub(crate) fn node_capacity(&self, tasklets: usize) -> u32 {
        self.initial_size + self.ops_per_tasklet * tasklets as u32 + 1
    }
}

/// The list operations issued by the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListOp {
    /// Membership test.
    Contains(u64),
    /// Insert (no-op if the key is present).
    Add(u64),
    /// Delete (no-op if the key is absent).
    Remove(u64),
}

impl ListOp {
    /// The key this operation targets.
    pub(crate) fn key(self) -> u64 {
        match self {
            ListOp::Contains(k) | ListOp::Add(k) | ListOp::Remove(k) => k,
        }
    }
}

/// Shared list state plus per-run bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct LinkedListData {
    /// Word holding the pointer to the first node (or null).
    pub head: TVar<u64>,
    nodes: Addr,
    node_capacity: u32,
    /// First pool index not used by the initial list; tasklets carve their
    /// private allocation ranges out of the remaining pool.
    first_free_node: u32,
}

impl LinkedListData {
    /// Allocates the head word and a node pool on either executor, and
    /// inserts `config.initial_size` evenly spaced keys (host-side, before
    /// tasklets start).
    ///
    /// # Panics
    ///
    /// Panics if MRAM cannot hold the node pool.
    pub fn allocate<M: MetadataAllocator + WordAccess>(
        mem: &mut M,
        config: &LinkedListConfig,
        tasklets: usize,
    ) -> Self {
        // One padding word keeps every node at a non-zero word index so that
        // null (0) can never collide with a real node pointer.
        let _pad = mem.alloc_words(Tier::Mram, 1).expect("padding word");
        let head = TVar::new(mem.alloc_words(Tier::Mram, 1).expect("list head"));
        let node_capacity = config.node_capacity(tasklets);
        let nodes = mem
            .alloc_words(Tier::Mram, node_capacity * NODE_WORDS)
            .expect("linked-list node pool must fit in MRAM");
        let mut data = LinkedListData { head, nodes, node_capacity, first_free_node: 0 };
        let mut next_node = 0;
        for i in 0..config.initial_size {
            // Spread the initial keys over the key range, keeping them sorted.
            let key = (u64::from(i) + 1) * config.key_range / (u64::from(config.initial_size) + 1);
            data.host_insert(mem, key.max(1), &mut next_node);
        }
        data.first_free_node = next_node;
        data
    }

    /// Pointer value (non-zero) for the node with pool index `index`.
    fn node_ptr(&self, index: u32) -> u64 {
        u64::from(self.nodes.offset(index * NODE_WORDS).word)
    }

    /// Half-open node-pool index range reserved for `tasklet` when every
    /// tasklet performs `ops_per_tasklet` operations.
    fn pool_range(&self, tasklet: usize, ops_per_tasklet: u32) -> (u32, u32) {
        let start = self.first_free_node + tasklet as u32 * ops_per_tasklet;
        (start, start + ops_per_tasklet)
    }

    fn key_var(ptr: u64) -> TVar<u64> {
        TVar::new(Addr::mram(ptr as u32))
    }

    fn next_var(ptr: u64) -> TVar<u64> {
        TVar::new(Addr::mram(ptr as u32).offset(1))
    }

    /// Host-side (untimed) sorted insert used to build the initial list.
    fn host_insert<M: WordAccess>(&mut self, mem: &mut M, key: u64, next_node: &mut u32) {
        let ptr = self.node_ptr(*next_node);
        *next_node += 1;
        let mut prev_link = self.head.addr();
        let mut cur = mem.peek_word(prev_link);
        while cur != NULL && mem.peek_word(Self::key_var(cur).addr()) < key {
            prev_link = Self::next_var(cur).addr();
            cur = mem.peek_word(prev_link);
        }
        mem.poke_word(Self::key_var(ptr).addr(), key);
        mem.poke_word(Self::next_var(ptr).addr(), cur);
        mem.poke_word(prev_link, ptr);
    }

    /// Reads the whole list host-side (untimed); used by tests and examples.
    pub fn snapshot<M: WordAccess + ?Sized>(&self, mem: &M) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut cur = mem.peek_word(self.head.addr());
        while cur != NULL {
            keys.push(mem.peek_word(Self::key_var(cur).addr()));
            cur = mem.peek_word(Self::next_var(cur).addr());
            assert!(keys.len() <= self.node_capacity as usize, "list is cyclic or corrupted");
        }
        keys
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListStep {
    LoadHead,
    Traverse { prev_link: Addr, cur: u64 },
    Apply { prev_link: Addr, cur: u64, found: bool },
}

/// One list transaction (`contains`/`add`/`remove`): head load, sorted
/// traversal one node per step, then the splice.
///
/// The body reserves `add` nodes from the tasklet's private pool range and
/// reuses the reservation across retries of the same operation, so aborted
/// attempts do not leak pool slots. Call [`ListTxBody::prepare`] before each
/// operation.
#[derive(Debug)]
pub struct ListTxBody {
    data: LinkedListData,
    op: ListOp,
    step: ListStep,
    /// Node reserved for the current `add` (kept across retries).
    reserved_node: Option<u64>,
    next_free_node: u32,
    node_pool_end: u32,
}

impl ListTxBody {
    /// Creates a body for one tasklet. `pool_range` is the half-open range
    /// of node-pool indices this tasklet may allocate from.
    pub(crate) fn new(data: LinkedListData, pool_range: (u32, u32)) -> Self {
        ListTxBody {
            data,
            op: ListOp::Contains(1),
            step: ListStep::LoadHead,
            reserved_node: None,
            next_free_node: pool_range.0,
            node_pool_end: pool_range.1,
        }
    }

    /// Installs the next operation (releasing any unused reservation back to
    /// the current pool cursor is unnecessary: a reservation is only made
    /// when the splice actually executes, and committed adds consume it).
    pub fn prepare(&mut self, op: ListOp) {
        self.op = op;
        self.reserved_node = None;
    }

    fn reserve_node(&mut self) -> u64 {
        if let Some(ptr) = self.reserved_node {
            return ptr;
        }
        assert!(
            self.next_free_node < self.node_pool_end,
            "linked-list node pool exhausted for tasklet"
        );
        let ptr = self.data.node_ptr(self.next_free_node);
        self.next_free_node += 1;
        self.reserved_node = Some(ptr);
        ptr
    }
}

impl TxBody for ListTxBody {
    fn reset(&mut self) {
        self.step = ListStep::LoadHead;
    }

    fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort> {
        match self.step {
            ListStep::LoadHead => {
                let cur = tx.get(self.data.head)?;
                self.step = ListStep::Traverse { prev_link: self.data.head.addr(), cur };
                Ok(BodyStep::Continue)
            }
            ListStep::Traverse { prev_link, cur } => {
                if cur == NULL {
                    self.step = ListStep::Apply { prev_link, cur, found: false };
                    return Ok(BodyStep::Continue);
                }
                let key = tx.get(LinkedListData::key_var(cur))?;
                let target = self.op.key();
                if key < target {
                    let next = tx.get(LinkedListData::next_var(cur))?;
                    self.step = ListStep::Traverse {
                        prev_link: LinkedListData::next_var(cur).addr(),
                        cur: next,
                    };
                } else {
                    self.step = ListStep::Apply { prev_link, cur, found: key == target };
                }
                Ok(BodyStep::Continue)
            }
            ListStep::Apply { prev_link, cur, found } => {
                let prev_link = TVar::new(prev_link);
                match self.op {
                    ListOp::Contains(_) => {}
                    ListOp::Add(key) => {
                        if !found {
                            let node = self.reserve_node();
                            tx.set(LinkedListData::key_var(node), key)?;
                            tx.set(LinkedListData::next_var(node), cur)?;
                            tx.set(prev_link, node)?;
                        }
                    }
                    ListOp::Remove(_) => {
                        if found {
                            let next = tx.get(LinkedListData::next_var(cur))?;
                            tx.set(prev_link, next)?;
                        }
                    }
                }
                Ok(BodyStep::Done)
            }
        }
    }
}

/// One list tasklet: `ops_per_tasklet` times, draw the next operation (a
/// scheduler step of its own), then run it. The mix alternates adds and
/// removes so the list size stays roughly constant.
#[derive(Debug)]
pub struct ListTasklet {
    body: ListTxBody,
    config: LinkedListConfig,
    rng: SimRng,
    next_update_is_add: bool,
    remaining: u32,
}

impl ListTasklet {
    /// The loop of tasklet `tasklet`, drawing its operations from `rng` and
    /// its new nodes from its own slice of the node pool.
    pub(crate) fn new(
        data: LinkedListData,
        config: LinkedListConfig,
        tasklet: usize,
        rng: SimRng,
    ) -> Self {
        ListTasklet {
            body: ListTxBody::new(data, data.pool_range(tasklet, config.ops_per_tasklet)),
            config,
            rng,
            next_update_is_add: true,
            remaining: config.ops_per_tasklet,
        }
    }
}

impl TaskletLoop for ListTasklet {
    type Body = ListTxBody;

    fn between(&mut self, _: &mut dyn Platform) -> Next {
        if self.remaining == 0 {
            return Next::Finish;
        }
        self.remaining -= 1;
        let key = self.rng.next_range(self.config.key_range) + 1;
        let op = if self.rng.next_bool(self.config.contains_fraction) {
            ListOp::Contains(key)
        } else if self.next_update_is_add {
            self.next_update_is_add = false;
            ListOp::Add(key)
        } else {
            self.next_update_is_add = true;
            ListOp::Remove(key)
        };
        self.body.prepare(op);
        Next::Run
    }

    fn body(&mut self) -> &mut ListTxBody {
        &mut self.body
    }
}

/// Builds the per-tasklet programs for one linked-list run.
pub fn build(
    dpu: &mut Dpu,
    shared: &StmShared,
    config: LinkedListConfig,
    tasklets: usize,
    seed: u64,
) -> (LinkedListData, Vec<Box<dyn TaskletProgram>>) {
    let data = LinkedListData::allocate(dpu, &config, tasklets);
    let programs = sim_tasklets(dpu, shared, tasklets, |_, t| {
        ListTasklet::new(data, config, t, tasklet_rng(seed, t))
    });
    (data, programs)
}

/// Runs the same workload — the same [`ListTasklet`] — on the threaded
/// executor.
///
/// # Errors
///
/// Returns [`RunError`] if the tasklet count exceeds the hardware limit or
/// the per-tasklet transaction logs do not fit.
pub fn run_threaded(
    dpu: &mut ThreadedDpu,
    config: LinkedListConfig,
    tasklets: usize,
    seed: u64,
) -> Result<(LinkedListData, ThreadedRunReport), RunError> {
    let data = LinkedListData::allocate(dpu, &config, tasklets);
    let report = dpu.run(tasklets, |mut tasklet| {
        let t = tasklet.tasklet_id();
        run_loop(&mut tasklet, ListTasklet::new(data, config, t, tasklet_rng(seed, t)));
    })?;
    Ok((data, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::{DpuConfig, Scheduler};
    use pim_stm::{MetadataPlacement, StmConfig, StmKind};

    fn run_list(kind: StmKind, config: LinkedListConfig, tasklets: usize) -> (Vec<u64>, u64) {
        let mut dpu = Dpu::new(DpuConfig::default());
        let stm_cfg = StmConfig::new(kind, MetadataPlacement::Mram)
            .with_read_set_capacity(config.read_set_capacity())
            .with_write_set_capacity(config.write_set_capacity());
        let shared = StmShared::allocate(&mut dpu, stm_cfg).unwrap();
        let (data, programs) = build(&mut dpu, &shared, config, tasklets, 7);
        let report = Scheduler::new().run(&mut dpu, programs);
        assert_eq!(
            report.total_commits(),
            config.ops_per_tasklet as u64 * tasklets as u64,
            "{kind}: every operation must eventually commit"
        );
        (data.snapshot(&dpu), report.total_aborts())
    }

    fn assert_sorted_unique(keys: &[u64]) {
        for pair in keys.windows(2) {
            assert!(pair[0] < pair[1], "list not sorted/unique: {keys:?}");
        }
    }

    #[test]
    fn initial_list_is_sorted_with_requested_size() {
        let mut dpu = Dpu::new(DpuConfig::default());
        let config = LinkedListConfig::low_contention();
        let data = LinkedListData::allocate(&mut dpu, &config, 1);
        let keys = data.snapshot(&dpu);
        assert_eq!(keys.len(), 10);
        assert_sorted_unique(&keys);
    }

    #[test]
    fn list_stays_sorted_and_unique_under_every_design() {
        let config = LinkedListConfig::high_contention().scaled(0.3);
        for kind in StmKind::ALL {
            let (keys, _) = run_list(kind, config, 4);
            assert_sorted_unique(&keys);
        }
    }

    #[test]
    fn high_contention_produces_more_aborts_than_low_contention() {
        let lc = LinkedListConfig::low_contention().scaled(0.5);
        let hc = LinkedListConfig::high_contention().scaled(0.5);
        let (_, aborts_lc) = run_list(StmKind::VrEtlWb, lc, 8);
        let (_, aborts_hc) = run_list(StmKind::VrEtlWb, hc, 8);
        assert!(
            aborts_hc >= aborts_lc,
            "HC ({aborts_hc} aborts) should conflict at least as much as LC ({aborts_lc})"
        );
        assert!(aborts_hc > 0, "50% updates over a 10-element list must conflict");
    }

    #[test]
    fn single_tasklet_never_aborts() {
        let config = LinkedListConfig::high_contention().scaled(0.5);
        let (keys, aborts) = run_list(StmKind::TinyEtlWt, config, 1);
        assert_eq!(aborts, 0);
        assert_sorted_unique(&keys);
    }

    #[test]
    fn the_same_body_keeps_the_list_sorted_on_the_threaded_executor() {
        let config = LinkedListConfig::high_contention().scaled(0.3);
        for kind in [StmKind::Norec, StmKind::TinyEtlWb, StmKind::VrEtlWt] {
            let stm_cfg = StmConfig::new(kind, MetadataPlacement::Wram)
                .with_read_set_capacity(config.read_set_capacity())
                .with_write_set_capacity(config.write_set_capacity());
            let mut dpu = ThreadedDpu::new(stm_cfg).unwrap();
            let (data, report) = run_threaded(&mut dpu, config, 4, 7).unwrap();
            assert_eq!(report.commits, config.ops_per_tasklet as u64 * 4, "{kind}");
            assert_sorted_unique(&data.snapshot(&dpu));
        }
    }
}
