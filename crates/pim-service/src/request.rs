//! Service requests: operation mixes, seeded request streams, and the
//! cross-executor transaction body that serves one request.
//!
//! A request stream is a function of **one seed and nothing a run does** —
//! arrival timestamps from [`ArrivalGen`] (stream 0) and payloads
//! (operation, keys, value) from an independent fork (stream 1) — whether
//! it is collected up front or drawn as it is routed, so the same
//! `(seed, mix, dist, keys, count)` tuple produces bit-identical streams on
//! the simulator, the threaded executor and every fleet shard layout. Keys are drawn through [`KeySampler`], reusing the simulator's
//! zipfian machinery for skewed service traffic.

use pim_sim::{AllocError, KeyDist, KeySampler, SimRng, Tier};
use pim_stm::shared::MetadataAllocator;
use pim_stm::{Abort, TxOps};
use pim_workloads::{BodyStep, TxBody, TxHashMap, TxQueue};

use crate::arrival::{ArrivalGen, ArrivalProcess};

/// One service operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOp {
    /// Point lookup in the service hashmap.
    Get,
    /// Insert-or-update in the service hashmap.
    Put,
    /// Balance transfer between two keys, journalled in the service queue.
    Transfer,
}

/// A weighted get/put/transfer operation mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestMix {
    /// Weight of [`RequestOp::Get`].
    pub get: u32,
    /// Weight of [`RequestOp::Put`].
    pub put: u32,
    /// Weight of [`RequestOp::Transfer`].
    pub transfer: u32,
}

impl RequestMix {
    /// The default read-mostly service mix (80% get / 15% put / 5% transfer).
    pub fn read_mostly() -> Self {
        RequestMix { get: 80, put: 15, transfer: 5 }
    }

    /// Parses a `--mix get:put:transfer` weight triple, e.g. `50:30:20`.
    ///
    /// # Errors
    ///
    /// Returns a message when the shape is not three `:`-separated
    /// non-negative integers with a positive sum.
    pub fn parse(text: &str) -> Result<Self, String> {
        let parts: Vec<&str> = text.split(':').collect();
        let [get, put, transfer] = parts.as_slice() else {
            return Err(format!("mix must be get:put:transfer weights, got {text:?}"));
        };
        let weight = |s: &str| s.parse::<u32>().map_err(|_| format!("bad mix weight {s:?}"));
        let mix = RequestMix { get: weight(get)?, put: weight(put)?, transfer: weight(transfer)? };
        if mix.total() == 0 {
            return Err("mix weights must not all be zero".to_string());
        }
        Ok(mix)
    }

    fn total(&self) -> u32 {
        self.get + self.put + self.transfer
    }

    /// Draws one operation kind with these weights.
    pub fn sample(&self, rng: &mut SimRng) -> RequestOp {
        let draw = rng.next_range(u64::from(self.total()));
        if draw < u64::from(self.get) {
            RequestOp::Get
        } else if draw < u64::from(self.get + self.put) {
            RequestOp::Put
        } else {
            RequestOp::Transfer
        }
    }
}

impl std::fmt::Display for RequestMix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.get, self.put, self.transfer)
    }
}

/// One generated service request, 24 bytes: keys are `u32` like the
/// fleet's [`ShardMap`](pim_workloads::ShardMap) keys, and a payload is
/// at most 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival timestamp in the generator's tick domain (0 for closed-loop;
    /// the driver overwrites it with the dispatch instant).
    pub arrival: u64,
    /// What the request does.
    pub op: RequestOp,
    /// Primary key (get/put target, transfer source).
    pub key: u32,
    /// Secondary key (transfer destination; equals `key` otherwise).
    pub key2: u32,
    /// Payload: put value or transfer amount.
    pub value: u32,
}

/// The largest keyspace a request stream draws from: every key fits a
/// [`Request`]'s `u32`.
pub(crate) const MAX_KEYS: u64 = 1 << 32;

/// Generates the seeded request stream: `count` requests over `keys` keys,
/// timestamps at `ticks_per_second` resolution. See the
/// [module documentation](self) for the determinism discipline.
///
/// # Panics
///
/// Panics when `keys` exceeds `2^32`, since a key must fit a `u32`.
pub fn generate_requests(
    process: ArrivalProcess,
    mix: RequestMix,
    dist: KeyDist,
    keys: u64,
    count: u64,
    seed: u64,
    ticks_per_second: f64,
) -> Vec<Request> {
    request_stream(process, mix, dist, keys, count, seed, ticks_per_second).collect()
}

/// The stream of [`generate_requests`], drawn one request at a time: the
/// fleet routes it round by round and never holds it whole, so the memory
/// a fleet run needs does not grow with the length of its stream.
pub(crate) fn request_stream(
    process: ArrivalProcess,
    mix: RequestMix,
    dist: KeyDist,
    keys: u64,
    count: u64,
    seed: u64,
    ticks_per_second: f64,
) -> impl ExactSizeIterator<Item = Request> + Sync {
    let mut parent = SimRng::new(seed);
    let arrival_seed = parent.fork(0).next_u64();
    let mut payload = parent.fork(1);
    let mut arrivals = ArrivalGen::new(process, arrival_seed, ticks_per_second);
    assert!(keys <= MAX_KEYS, "a request keyspace holds at most 2^32 keys, got {keys}");
    let sampler = KeySampler::new(dist, keys.max(1));
    // Every draw is below `keys`, so it fits a `u32`.
    (0..count as usize).map(move |_| {
        let arrival = arrivals.next_arrival();
        let op = mix.sample(&mut payload);
        let key = sampler.sample(&mut payload) as u32;
        let key2 =
            if op == RequestOp::Transfer { sampler.sample(&mut payload) as u32 } else { key };
        let value = 1 + payload.next_range(100) as u32;
        Request { arrival, op, key, key2, value }
    })
}

/// The shared service state one executor serves requests against: the
/// transactional hashmap (key → balance) plus the bounded transfer journal.
#[derive(Debug, Clone, Copy)]
pub struct ServiceTables {
    /// Key → balance store.
    pub map: TxHashMap,
    /// Ring journal of applied transfers (oldest entries evicted when full).
    pub journal: TxQueue,
}

impl ServiceTables {
    /// Allocates the tables in `tier`: a map with ~4 slots per key (load
    /// factor stays below ¼, so worst-case linear-probe chains stay far
    /// below the per-tasklet read-set capacity even when every key is
    /// resident) and a `journal_capacity`-entry journal.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] when the tier cannot hold the tables.
    pub fn allocate<A: MetadataAllocator + ?Sized>(
        alloc: &mut A,
        tier: Tier,
        keys: u64,
        journal_capacity: u32,
    ) -> Result<Self, AllocError> {
        let capacity = u32::try_from((keys.max(1)).saturating_mul(4).min(1 << 24))
            .expect("bounded by the min above");
        Ok(ServiceTables {
            map: TxHashMap::allocate(alloc, tier, capacity)?,
            journal: TxQueue::allocate(alloc, tier, journal_capacity)?,
        })
    }
}

/// Encodes a transfer for the journal: source key in the high 32 bits,
/// destination in the low 32.
fn journal_record(from: u64, to: u64) -> u64 {
    (from << 32) | (to & 0xFFFF_FFFF)
}

/// The [`TxBody`] serving one [`Request`] — written once, driven
/// step-granular on the simulator and looped on the threaded executor.
/// It widens the request's fields to the `u64` words [`TxHashMap`] stores.
///
/// Step granularity is one *structure operation* per step (a bounded probe
/// loop), so the discrete-event scheduler interleaves tasklets between the
/// hashmap access and the journal access of a transfer.
#[derive(Debug)]
pub(crate) struct RequestBody {
    tables: ServiceTables,
    op: RequestOp,
    key: u64,
    key2: u64,
    value: u64,
    pc: u8,
    /// Whether the in-flight transfer moved funds (recomputed per attempt).
    transferred: bool,
    /// Whether the in-flight put or transfer found the map full, so it
    /// completes without effect (recomputed per attempt).
    map_full: bool,
}

impl RequestBody {
    /// A body serving `request` against `tables`.
    pub(crate) fn new(tables: ServiceTables, request: &Request) -> Self {
        RequestBody {
            tables,
            op: request.op,
            key: u64::from(request.key),
            key2: u64::from(request.key2),
            value: u64::from(request.value),
            pc: 0,
            transferred: false,
            map_full: false,
        }
    }

    /// Whether the last attempt's put or transfer found the map full: for
    /// a committed request, that it was served without effect.
    pub(crate) fn found_map_full(&self) -> bool {
        self.map_full
    }
}

impl TxBody for RequestBody {
    fn reset(&mut self) {
        self.pc = 0;
        self.transferred = false;
        self.map_full = false;
    }

    fn step<O: TxOps>(&mut self, tx: &mut O) -> Result<BodyStep, Abort> {
        match (self.op, self.pc) {
            (RequestOp::Get, _) => {
                self.tables.map.get(tx, self.key)?;
                Ok(BodyStep::Done)
            }
            (RequestOp::Put, _) => {
                // A full table drops the put: the request still completes.
                self.map_full = self.tables.map.put(tx, self.key, self.value)?.is_err();
                Ok(BodyStep::Done)
            }
            (RequestOp::Transfer, 0) => {
                let moved = self.tables.map.transfer(tx, self.key, self.key2, self.value)?;
                self.transferred = moved == Ok(true);
                self.map_full = moved.is_err();
                self.pc = 1;
                Ok(BodyStep::Continue)
            }
            (RequestOp::Transfer, _) => {
                if self.transferred {
                    let record = journal_record(self.key, self.key2);
                    if !self.tables.journal.push(tx, record)? {
                        // Ring discipline: evict the oldest entry, then the
                        // freed slot must take the new one.
                        self.tables.journal.pop(tx)?;
                        self.tables.journal.push(tx, record)?;
                    }
                }
                Ok(BodyStep::Done)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_stm::threaded::ThreadedDpu;
    use pim_stm::{MetadataPlacement, StmConfig, StmKind};
    use pim_workloads::run_tx_body;

    #[test]
    fn mix_parse_and_sampling_respect_weights() {
        let mix = RequestMix::parse("50:30:20").unwrap();
        assert_eq!(mix, RequestMix { get: 50, put: 30, transfer: 20 });
        assert!(RequestMix::parse("1:2").is_err());
        assert!(RequestMix::parse("0:0:0").is_err());
        assert!(RequestMix::parse("a:b:c").is_err());
        let mut rng = SimRng::new(11);
        let mut counts = [0u32; 3];
        for _ in 0..3000 {
            match mix.sample(&mut rng) {
                RequestOp::Get => counts[0] += 1,
                RequestOp::Put => counts[1] += 1,
                RequestOp::Transfer => counts[2] += 1,
            }
        }
        assert!((counts[0] as f64 / 3000.0 - 0.5).abs() < 0.05, "get fraction {counts:?}");
        assert!((counts[2] as f64 / 3000.0 - 0.2).abs() < 0.05, "transfer fraction {counts:?}");
        let pure = RequestMix { get: 0, put: 1, transfer: 0 };
        assert_eq!(pure.sample(&mut rng), RequestOp::Put);
    }

    #[test]
    fn generated_streams_are_deterministic_and_well_formed() {
        let process = ArrivalProcess::Poisson { rate: 1e6 };
        let mix = RequestMix::read_mostly();
        let gen = |seed| generate_requests(process, mix, KeyDist::Uniform, 64, 256, seed, 1e9);
        let a = gen(5);
        assert_eq!(a, gen(5));
        assert_ne!(a, gen(6));
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.key < 64 && r.key2 < 64 && r.value >= 1));
        assert!(a.iter().any(|r| r.op == RequestOp::Transfer));
        // Non-transfer requests keep key2 == key (single draw).
        assert!(a.iter().filter(|r| r.op != RequestOp::Transfer).all(|r| r.key2 == r.key));
    }

    #[test]
    fn a_request_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Request>(), 24);
    }

    #[test]
    fn a_zipf_request_stream_is_pinned_field_for_field() {
        // FNV-1a over every field of 100 000 requests drawn under
        // zipf:0.99, pinned from the binary-search key sampler.
        let process = ArrivalProcess::Poisson { rate: 1e6 };
        let dist = KeyDist::Zipf { theta: 0.99 };
        let stream =
            generate_requests(process, RequestMix::read_mostly(), dist, 100_003, 100_000, 7, 1e9);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for r in &stream {
            for word in
                [r.arrival, r.op as u64, u64::from(r.key), u64::from(r.key2), u64::from(r.value)]
            {
                for byte in word.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0xa7cc_7243_f381_17b6, "fnv of the zipf:0.99 request stream");
    }

    #[test]
    fn request_body_serves_all_ops_on_the_threaded_executor() {
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
            .with_lock_table_entries(256)
            .with_read_set_capacity(256)
            .with_write_set_capacity(128);
        let mut dpu = ThreadedDpu::new(cfg).unwrap();
        let tables = ServiceTables::allocate(&mut dpu, Tier::Mram, 32, 4).unwrap();
        let put = Request { arrival: 0, op: RequestOp::Put, key: 3, key2: 3, value: 40 };
        serve(&mut dpu, tables, put);
        assert_eq!(balances(&mut dpu, tables, &[3, 7]), [Some(40), None]);
        // A get, hit or miss, writes nothing.
        let get = Request { arrival: 0, op: RequestOp::Get, key: 3, key2: 3, value: 0 };
        serve(&mut dpu, tables, get);
        let miss = Request { arrival: 0, op: RequestOp::Get, key: 9, key2: 9, value: 0 };
        serve(&mut dpu, tables, miss);
        assert_eq!(balances(&mut dpu, tables, &[3, 9]), [Some(40), None]);
        let xfer = Request { arrival: 0, op: RequestOp::Transfer, key: 3, key2: 7, value: 15 };
        serve(&mut dpu, tables, xfer);
        assert_eq!(balances(&mut dpu, tables, &[3, 7]), [Some(25), Some(15)]);
        let broke = Request { arrival: 0, op: RequestOp::Transfer, key: 3, key2: 7, value: 100 };
        serve(&mut dpu, tables, broke);
        let denied = balances(&mut dpu, tables, &[3, 7]);
        assert_eq!(denied, [Some(25), Some(15)], "underfunded transfer is denied");
        // The funded transfer journalled exactly one record.
        assert_eq!(drain_journal(&mut dpu, tables), vec![(3 << 32) | 7]);
    }

    /// Serves `req` to completion on one tasklet; whether it found the map
    /// full.
    fn serve(dpu: &mut ThreadedDpu, tables: ServiceTables, req: Request) -> bool {
        let body = std::sync::Mutex::new(RequestBody::new(tables, &req));
        dpu.run(1, |mut t| run_tx_body(&mut t, &mut *body.lock().unwrap())).unwrap();
        body.into_inner().unwrap().found_map_full()
    }

    /// The committed balance of each of `keys`, read in one transaction.
    fn balances(dpu: &mut ThreadedDpu, tables: ServiceTables, keys: &[u64]) -> Vec<Option<u64>> {
        let read = std::sync::Mutex::new(Vec::new());
        dpu.run(1, |mut tasklet| {
            tasklet.transaction(|v| {
                let values =
                    keys.iter().map(|&k| tables.map.get(v, k)).collect::<Result<_, _>>()?;
                *read.lock().unwrap() = values;
                Ok(())
            });
        })
        .unwrap();
        read.into_inner().unwrap()
    }

    /// Drains the journal through a single transactional reader.
    fn drain_journal(dpu: &mut ThreadedDpu, tables: ServiceTables) -> Vec<u64> {
        let drained = std::sync::Mutex::new(Vec::new());
        dpu.run(1, |mut tasklet| {
            tasklet.transaction(|v| {
                let mut records = Vec::new();
                while let Some(rec) = tables.journal.pop(v)? {
                    records.push(rec);
                }
                *drained.lock().unwrap() = records;
                Ok(())
            });
        })
        .unwrap();
        drained.into_inner().unwrap()
    }

    #[test]
    fn a_put_or_transfer_that_needs_a_slot_of_a_full_map_is_flagged() {
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
            .with_lock_table_entries(256)
            .with_read_set_capacity(256)
            .with_write_set_capacity(128);
        let mut dpu = ThreadedDpu::new(cfg).unwrap();
        let tables = ServiceTables {
            map: TxHashMap::allocate(&mut dpu, Tier::Mram, 2).unwrap(),
            journal: TxQueue::allocate(&mut dpu, Tier::Mram, 4).unwrap(),
        };
        let request = |op, key, key2, value| Request { arrival: 0, op, key, key2, value };
        assert!(!serve(&mut dpu, tables, request(RequestOp::Put, 1, 1, 30)));
        assert!(!serve(&mut dpu, tables, request(RequestOp::Put, 2, 2, 5)));
        // Both slots taken: a new key finds the map full, an old one not.
        assert!(serve(&mut dpu, tables, request(RequestOp::Put, 3, 3, 7)));
        assert!(!serve(&mut dpu, tables, request(RequestOp::Put, 2, 2, 6)));
        assert!(serve(&mut dpu, tables, request(RequestOp::Transfer, 1, 4, 10)));
        assert!(!serve(&mut dpu, tables, request(RequestOp::Transfer, 1, 2, 10)));
        assert!(!serve(&mut dpu, tables, request(RequestOp::Get, 3, 3, 0)));
        assert_eq!(balances(&mut dpu, tables, &[1, 2, 3, 4]), [Some(20), Some(16), None, None]);
    }

    #[test]
    fn journal_ring_evicts_oldest_when_full() {
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
            .with_lock_table_entries(256)
            .with_read_set_capacity(256)
            .with_write_set_capacity(128);
        let mut dpu = ThreadedDpu::new(cfg).unwrap();
        let tables = ServiceTables::allocate(&mut dpu, Tier::Mram, 32, 2).unwrap();
        // Seed key 1 with enough balance for three transfers.
        let seed = Request { arrival: 0, op: RequestOp::Put, key: 1, key2: 1, value: 30 };
        serve(&mut dpu, tables, seed);
        for to in [2u32, 3, 4] {
            let xfer = Request { arrival: 0, op: RequestOp::Transfer, key: 1, key2: to, value: 10 };
            serve(&mut dpu, tables, xfer);
        }
        let funded = balances(&mut dpu, tables, &[1, 2, 3, 4]);
        assert_eq!(funded, [Some(0), Some(10), Some(10), Some(10)], "every transfer moved funds");
        // Capacity 2: the (1 → 2) record was evicted, newest two remain.
        assert_eq!(drain_journal(&mut dpu, tables), vec![(1 << 32) | 3, (1 << 32) | 4]);
    }
}
