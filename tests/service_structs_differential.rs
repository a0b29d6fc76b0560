//! Differential tests of the transactional service structures.
//!
//! [`TxHashMap`] and [`TxQueue`] are driven by random operation scripts and
//! checked, operation by operation, against the obvious `std` references
//! (`HashMap<u64, u64>` and a bounded `VecDeque<u64>`), for **every** STM
//! design on **both** executors. A second group runs the structures under
//! real multi-tasklet contention and checks the global invariants the
//! service layer relies on: transfers conserve the total balance, and the
//! queue neither loses an accepted push nor pops a value twice.

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use proptest::prelude::*;

use pim_stm_suite::sim::{Dpu, DpuConfig, SimRng, TaskletCtx, TaskletStats, Tier};
use pim_stm_suite::stm::threaded::ThreadedDpu;
use pim_stm_suite::stm::{StmConfig, StmKind, StmShared, TxEngine};
use pim_stm_suite::workloads::{TxHashMap, TxQueue};

/// Keyspace for scripted operations (well under the 64-slot table, so the
/// map can never legitimately report `MapFull`).
const KEYS: u64 = 24;
/// Map slots requested per run.
const MAP_CAPACITY: u32 = 64;
/// Queue capacity — small on purpose, so scripts exercise the full path.
const QUEUE_CAPACITY: u32 = 4;

/// One scripted structure operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get(u64),
    Put(u64, u64),
    Transfer(u64, u64, u64),
    Push(u64),
    Pop,
}

/// What one operation observably did; compared across implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// `get` result.
    Value(Option<u64>),
    /// `put` result: the previous value.
    Replaced(Option<u64>),
    /// `transfer` result: whether funds moved.
    Moved(bool),
    /// `push` result: whether the queue accepted the value.
    Accepted(bool),
    /// `pop` result.
    Popped(Option<u64>),
}

fn decode(code: u8, k1: u64, k2: u64, v: u64) -> Op {
    match code {
        0 | 1 => Op::Get(k1),
        2 | 3 => Op::Put(k1, v),
        4 | 5 => Op::Transfer(k1, k2, v),
        6 => Op::Push(v),
        _ => Op::Pop,
    }
}

fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..8, 0u64..KEYS, 0u64..KEYS, 1u64..100), 1..80)
        .prop_map(|raw| raw.into_iter().map(|(c, k1, k2, v)| decode(c, k1, k2, v)).collect())
}

/// The reference model: plain `std` collections, mirroring the transactional
/// semantics (transfer creates missing keys on demand, credit before debit).
#[derive(Default)]
struct Model {
    map: HashMap<u64, u64>,
    queue: VecDeque<u64>,
}

impl Model {
    fn apply(&mut self, op: Op) -> Outcome {
        match op {
            Op::Get(k) => Outcome::Value(self.map.get(&k).copied()),
            Op::Put(k, v) => Outcome::Replaced(self.map.insert(k, v)),
            Op::Transfer(from, to, amount) => {
                let balance = self.map.get(&from).copied().unwrap_or(0);
                if from == to || balance < amount {
                    return Outcome::Moved(from == to && balance >= amount);
                }
                let credit = self.map.get(&to).copied().unwrap_or(0);
                self.map.insert(to, credit + amount);
                self.map.insert(from, balance - amount);
                Outcome::Moved(true)
            }
            Op::Push(v) => {
                if self.queue.len() >= QUEUE_CAPACITY as usize {
                    Outcome::Accepted(false)
                } else {
                    self.queue.push_back(v);
                    Outcome::Accepted(true)
                }
            }
            Op::Pop => Outcome::Popped(self.queue.pop_front()),
        }
    }

    fn run(script: &[Op]) -> Vec<Outcome> {
        let mut model = Model::default();
        script.iter().map(|&op| model.apply(op)).collect()
    }
}

/// Applies one op through the transactional structures. Generic over the
/// executor: both hand the body a `TxOps` view.
fn apply_tx<O: pim_stm_suite::stm::TxOps>(
    tx: &mut O,
    map: &TxHashMap,
    queue: &TxQueue,
    op: Op,
) -> Result<Outcome, pim_stm_suite::stm::Abort> {
    Ok(match op {
        Op::Get(k) => Outcome::Value(map.get(tx, k)?),
        Op::Put(k, v) => Outcome::Replaced(map.put(tx, k, v)?.expect("table cannot fill")),
        Op::Transfer(from, to, amount) => {
            Outcome::Moved(map.transfer(tx, from, to, amount)?.expect("table cannot fill"))
        }
        Op::Push(v) => Outcome::Accepted(queue.push(tx, v)?),
        Op::Pop => Outcome::Popped(queue.pop(tx)?),
    })
}

/// Runs the script on the threaded executor, one transaction per op.
fn run_threaded(kind: StmKind, script: &[Op]) -> Vec<Outcome> {
    let mut dpu = ThreadedDpu::new(StmConfig::small_wram(kind)).expect("metadata fits");
    let map = TxHashMap::allocate(&mut dpu, Tier::Mram, MAP_CAPACITY).expect("map fits");
    let queue = TxQueue::allocate(&mut dpu, Tier::Mram, QUEUE_CAPACITY).expect("queue fits");
    let outcomes = Mutex::new(Vec::with_capacity(script.len()));
    dpu.run(1, |mut tasklet| {
        for &op in script {
            let outcome = tasklet.transaction(|tx| apply_tx(tx, &map, &queue, op));
            outcomes.lock().unwrap().push(outcome);
        }
    })
    .expect("one tasklet is always within the limit");
    outcomes.into_inner().unwrap()
}

/// Runs the script on the simulator, one single-tasklet transaction per op.
fn run_sim(kind: StmKind, script: &[Op]) -> Vec<Outcome> {
    let mut dpu = Dpu::new(DpuConfig::small());
    let shared = StmShared::allocate(&mut dpu, StmConfig::small_wram(kind)).expect("metadata fits");
    let slot = shared.register_tasklet(&mut dpu, 0).expect("slot fits");
    let map = TxHashMap::allocate(&mut dpu, Tier::Mram, MAP_CAPACITY).expect("map fits");
    let queue = TxQueue::allocate(&mut dpu, Tier::Mram, QUEUE_CAPACITY).expect("queue fits");
    let mut engine = TxEngine::for_shared(shared, slot);
    let mut stats = TaskletStats::new();
    script
        .iter()
        .map(|&op| {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            engine.transaction(&mut ctx, |tx| apply_tx(tx, &map, &queue, op))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every STM design, on both executors, serves an arbitrary script with
    /// exactly the outcomes of the `std` reference model.
    #[test]
    fn scripts_match_the_std_reference_on_both_executors(script in arb_script()) {
        let expected = Model::run(&script);
        for kind in StmKind::ALL {
            prop_assert_eq!(&run_threaded(kind, &script), &expected, "threaded {:?}", kind);
            prop_assert_eq!(&run_sim(kind, &script), &expected, "simulator {:?}", kind);
        }
    }
}

/// Sums the balances of `keys` through one transactional reader.
fn total_balance(dpu: &mut ThreadedDpu, map: TxHashMap, keys: u64) -> u64 {
    let total = Mutex::new(0u64);
    dpu.run(1, |mut tasklet| {
        let sum = tasklet.transaction(|tx| {
            let mut sum = 0;
            for key in 0..keys {
                sum += map.get(tx, key)?.unwrap_or(0);
            }
            Ok(sum)
        });
        *total.lock().unwrap() = sum;
    })
    .expect("one tasklet is always within the limit");
    total.into_inner().unwrap()
}

#[test]
fn contended_transfers_conserve_the_total_balance_for_every_design() {
    const ACCOUNTS: u64 = 8;
    const STAKE: u64 = 100;
    for kind in StmKind::ALL {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(kind)).expect("metadata fits");
        let map = TxHashMap::allocate(&mut dpu, Tier::Mram, MAP_CAPACITY).expect("map fits");
        dpu.run(1, |mut tasklet| {
            for key in 0..ACCOUNTS {
                tasklet.transaction(|tx| map.put(tx, key, STAKE).map(|r| r.expect("fits")));
            }
        })
        .expect("seeding runs on one tasklet");
        dpu.run(4, |mut tasklet| {
            let mut rng = SimRng::new(0xD1F + tasklet.tasklet_id() as u64);
            for _ in 0..50 {
                let from = rng.next_range(ACCOUNTS);
                let to = rng.next_range(ACCOUNTS);
                let amount = 1 + rng.next_range(30);
                tasklet.transaction(|tx| {
                    map.transfer(tx, from, to, amount).map(|r| r.expect("table cannot fill"))
                });
            }
        })
        .expect("four tasklets are within the limit");
        assert_eq!(
            total_balance(&mut dpu, map, ACCOUNTS),
            ACCOUNTS * STAKE,
            "{kind:?} lost or minted funds under contention"
        );
    }
}

#[test]
fn contended_queue_never_loses_an_accepted_push_nor_pops_twice() {
    for kind in StmKind::ALL {
        let mut dpu = ThreadedDpu::new(StmConfig::small_wram(kind)).expect("metadata fits");
        let queue = TxQueue::allocate(&mut dpu, Tier::Mram, 16).expect("queue fits");
        let accepted = Mutex::new(Vec::new());
        let popped = Mutex::new(Vec::new());
        dpu.run(4, |mut tasklet| {
            let id = tasklet.tasklet_id() as u64;
            for i in 0..40u64 {
                if i % 3 == 2 {
                    let got = tasklet.transaction(|tx| queue.pop(tx));
                    if let Some(value) = got {
                        popped.lock().unwrap().push(value);
                    }
                } else {
                    let value = (id << 32) | i;
                    if tasklet.transaction(|tx| queue.push(tx, value)) {
                        accepted.lock().unwrap().push(value);
                    }
                }
            }
        })
        .expect("four tasklets are within the limit");
        // Drain what is still enqueued, then compare multisets.
        let drained = Mutex::new(Vec::new());
        dpu.run(1, |mut tasklet| {
            let rest = tasklet.transaction(|tx| {
                let mut rest = Vec::new();
                while let Some(value) = queue.pop(tx)? {
                    rest.push(value);
                }
                Ok(rest)
            });
            drained.lock().unwrap().extend(rest);
        })
        .expect("draining runs on one tasklet");
        let mut seen = popped.into_inner().unwrap();
        seen.extend(drained.into_inner().unwrap());
        let mut expected = accepted.into_inner().unwrap();
        expected.sort_unstable();
        seen.sort_unstable();
        assert_eq!(seen, expected, "{kind:?} lost an accepted push or popped a value twice");
    }
}
