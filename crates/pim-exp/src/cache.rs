//! Content-addressed cache of completed simulator runs.
//!
//! The experiment harness re-simulates identical cells all the time: the
//! grid's defaults panel re-reads cells the ranked pass already ran, and
//! overlapping burst-cap ladders share most of their grid. Every one of
//! those runs is a pure function of its [`RunSpec`] — the simulator is
//! deterministic under a seed — so a completed run can be memoized under a
//! **canonical key** and replayed bit for bit.
//!
//! ## The canonical key
//!
//! [`SimCache::key`] renders every field that can change a simulator
//! result: the workload spec (workload, composition/design, metadata
//! placement, tasklets, scale, record grouping), every knob (retry,
//! read strategy, write-back strategy, lock order, burst cap), the PRNG
//! seed, the executor, and [`CACHE_SCHEMA_VERSION`]. The key also carries
//! a constant `tune=static` segment, and a disk entry two zero
//! `tune_windows`/`tune_switches` counters: both are part of the v1
//! format, kept so entries written by earlier builds keep hitting, and go
//! at the next schema bump.
//! Changing *any* of those fields — including the schema version — yields
//! a different key and therefore a miss; there is no partial matching and
//! no time-based expiry. Bumping [`CACHE_SCHEMA_VERSION`] is the
//! invalidation policy: do it whenever the simulator, an STM algorithm or
//! the cached summary shape changes semantics, and every stale entry
//! (memory and disk) silently misses.
//!
//! ## Tiers
//!
//! The first tier is a process-wide in-memory map shared across every
//! search and sweep of one invocation. The optional `--cache-dir` second
//! tier persists entries so repeated CI and sweep invocations skip warm
//! cells. It is one append-only log per directory, `entries.jsonl`, holding
//! one JSON entry per line (written and re-read with the [`crate::json`]
//! writer/parser — no external serializer):
//!
//! * [`SimCache::with_dir`] reads the log once and indexes its lines by
//!   the `"key"` each claims; for a key on several lines the **last line
//!   wins**;
//! * a miss touches no file before it simulates, then appends its entry
//!   as one line with one `write_all` on a file opened once with
//!   `O_APPEND`, so caches in several threads or processes can share a
//!   directory on a local file system;
//! * a line that fails to parse, carries the wrong schema version, does
//!   not match its key, or was cut short by a crash mid-append is
//!   **discarded, never trusted**: the cell re-simulates and its valid
//!   line is appended after the bad one, so it wins at the next open;
//! * a directory of per-entry files from an older build is not read: each
//!   of its cells misses once and is rewritten into the log. Those files
//!   (named exactly 16 lowercase hex digits plus `.json`) are deleted when
//!   [`SimCache::with_dir`] opens the directory; no other file is touched.
//!
//! Only deterministic simulator runs are cacheable. Threaded-executor
//! runs measure wall-clock on live OS threads; replaying one would report
//! a stale measurement as a fresh one, so [`SimCache::get_or_run`] always
//! executes those and touches neither tier nor the hit/miss statistics.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use pim_sim::{Phase, ProfileCore, ABORT_CODE_SLOTS};
use pim_stm::{ExecProfile, StmKnobs, TimeDomain};
use pim_workloads::spec::Executor;
use pim_workloads::{RunSpec, WorkloadReport};

use crate::json::Json;

/// Version of the cached-entry semantics. Part of every canonical key:
/// bump it whenever the simulator's cycle model, an STM algorithm, or the
/// [`CachedRun`] shape changes meaning, and all previously cached entries
/// (in memory and on disk) stop matching.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// The disk tier's log, one per `--cache-dir`.
const LOG_FILE: &str = "entries.jsonl";

/// The memoized summary of one completed simulator run: exactly the
/// fields the grid/sweep consumers read from a [`WorkloadReport`], so a
/// cache hit reconstructs a bit-identical cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Deterministic fingerprint of the final memory state.
    pub fingerprint: u64,
    /// The execution profile merged over all tasklets.
    pub profile: ExecProfile,
    /// Committed transactions per simulated second (`None` only for the
    /// never-cached threaded executor).
    pub throughput_tx_per_sec: Option<f64>,
    /// Simulated makespan in seconds (`None` only for the threaded
    /// executor).
    pub makespan_seconds: Option<f64>,
}

impl CachedRun {
    /// Summarizes a finished report. The caller has already gated on
    /// [`WorkloadReport::assert_invariants`], so cached entries are
    /// invariant-clean by construction.
    pub fn from_report(report: &WorkloadReport) -> Self {
        CachedRun {
            commits: report.commits,
            aborts: report.aborts,
            fingerprint: report.fingerprint,
            profile: report.merged_profile(),
            throughput_tx_per_sec: report.throughput_tx_per_sec(),
            makespan_seconds: report.sim.as_ref().map(|s| s.makespan_seconds()),
        }
    }

    /// Aborted attempts / all attempts — the same statistic as
    /// [`WorkloadReport::abort_rate`].
    pub fn abort_rate(&self) -> f64 {
        if self.commits + self.aborts == 0 {
            0.0
        } else {
            self.aborts as f64 / (self.commits + self.aborts) as f64
        }
    }
}

/// Hit/miss/byte counters of one [`SimCache`], as a plain snapshot
/// (rendered in the grid report panel and the JSON schema).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from either tier without simulating.
    pub hits: u64,
    /// Lookups that had to simulate (includes discarded disk entries).
    pub misses: u64,
    /// The subset of `hits` answered by a line of the `--cache-dir` log.
    pub disk_hits: u64,
    /// Bytes of log lines read (successfully parsed entries only, without
    /// their newline).
    pub bytes_read: u64,
    /// Bytes of log lines appended (without their newline).
    pub bytes_written: u64,
}

impl CacheStats {
    /// The counter movement from `before` to `self` — the per-search
    /// delta a report panel shows when one cache serves many searches.
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            disk_hits: self.disk_hits.saturating_sub(before.disk_hits),
            bytes_read: self.bytes_read.saturating_sub(before.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(before.bytes_written),
        }
    }
}

/// A two-tier content-addressed cache of simulator runs. Internally
/// synchronised: pool workers share one instance by reference.
#[derive(Debug)]
pub struct SimCache {
    memory: Mutex<HashMap<String, CachedRun>>,
    disk: Option<DiskLog>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl Default for SimCache {
    fn default() -> Self {
        SimCache::in_memory()
    }
}

impl SimCache {
    /// A memory-only cache (no `--cache-dir` tier).
    pub fn in_memory() -> Self {
        SimCache {
            memory: Mutex::new(HashMap::new()),
            disk: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }

    /// A cache backed by the on-disk log in `dir` (both created if
    /// missing). The log is read and indexed here, once, and the per-entry
    /// files an older build left in `dir` are deleted.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be created or
    /// listed, a leftover entry file cannot be deleted, or the log cannot
    /// be opened, read or appended to.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let mut cache = SimCache::in_memory();
        cache.disk = Some(DiskLog::open(&dir.into())?);
        Ok(cache)
    }

    /// Whether this cache persists entries to disk.
    pub fn has_disk_tier(&self) -> bool {
        self.disk.is_some()
    }

    /// The canonical key of one run: every result-bearing field of the
    /// spec, the executor, and the schema version. Two specs collide on a
    /// key exactly when the simulator provably returns the same report
    /// for both.
    pub fn key(spec: &RunSpec, executor: Executor) -> String {
        // Destructured without `..`: a field added to `RunSpec` or
        // `StmKnobs` does not compile until the key renders it.
        let RunSpec { workload, kind, placement, tasklets, seed, scale, knobs, record_words } =
            spec;
        let StmKnobs { retry, read_strategy, write_back, lock_order, max_burst_words } = knobs;
        // `tune=static` is a constant of the v1 format; drop it at the next
        // `CACHE_SCHEMA_VERSION` bump.
        format!(
            "v{}|{}|{}|{}|tasklets={}|seed={}|scale={}|retry={}|read={}|wb={}|order={}|cap={}|tune=static|rw={}|{}",
            CACHE_SCHEMA_VERSION,
            workload.name(),
            kind.composition(),
            placement.name(),
            tasklets,
            seed,
            scale,
            retry.name(),
            read_strategy.name(),
            write_back.name(),
            lock_order.name(),
            max_burst_words,
            match record_words {
                Some(w) => w.to_string(),
                None => "default".to_string(),
            },
            executor.name(),
        )
    }

    /// Returns the memoized summary for `spec` × `executor`, simulating
    /// via `run` only on a miss. Hits return a bit-identical summary —
    /// the stored entry came from the same deterministic run the miss
    /// path would repeat.
    ///
    /// Threaded-executor specs always execute (wall-clock measurements
    /// must be measured, not replayed) and leave the statistics untouched.
    ///
    /// Two pool workers (or two caches on one directory) racing on the
    /// *same* key may both simulate and both append a line; both compute
    /// the identical summary, so the winner of the final insert is
    /// irrelevant (the stats then count an extra miss, never a wrong
    /// cell).
    pub fn get_or_run(
        &self,
        spec: &RunSpec,
        executor: Executor,
        run: impl FnOnce() -> WorkloadReport,
    ) -> CachedRun {
        if executor != Executor::Simulator {
            return CachedRun::from_report(&run());
        }
        let key = Self::key(spec, executor);
        if let Some(found) = self.memory.lock().expect("cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return found.clone();
        }
        if let Some(found) = self.load_disk(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.memory.lock().expect("cache poisoned").insert(key, found.clone());
            return found;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let cached = CachedRun::from_report(&run());
        self.store_disk(&key, &cached);
        self.memory.lock().expect("cache poisoned").insert(key, cached.clone());
        cached
    }

    /// A snapshot of the hit/miss/byte counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    fn load_disk(&self, key: &str) -> Option<CachedRun> {
        let disk = self.disk.as_ref()?;
        let line = disk.line(key)?;
        match parse_entry(line, key) {
            Some(cached) => {
                self.bytes_read.fetch_add(line.len() as u64, Ordering::Relaxed);
                Some(cached)
            }
            None => {
                // Corrupt, stale-schema, mismatched or torn line: discard
                // it — the re-simulated run appends a valid one below.
                eprintln!("[cache] discarding unreadable entry {key} in {}", disk.path.display());
                None
            }
        }
    }

    fn store_disk(&self, key: &str, cached: &CachedRun) {
        let Some(disk) = &self.disk else { return };
        let mut line = entry_to_json(key, cached).to_string();
        line.push('\n');
        match disk.file.lock().expect("cache log poisoned").write_all(line.as_bytes()) {
            Ok(()) => {
                self.bytes_written.fetch_add(line.len() as u64 - 1, Ordering::Relaxed);
            }
            Err(err) => eprintln!("[cache] cannot append to {}: {err}", disk.path.display()),
        }
    }
}

/// The `--cache-dir` tier: the log as it stood when the cache opened,
/// indexed by key, and the log opened for appending.
#[derive(Debug)]
struct DiskLog {
    path: PathBuf,
    text: String,
    /// Each claimed key's last line in `text`.
    index: HashMap<String, Range<usize>>,
    file: Mutex<File>,
}

impl DiskLog {
    fn open(dir: &Path) -> std::io::Result<DiskLog> {
        std::fs::create_dir_all(dir)?;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_name().to_str().is_some_and(is_legacy_entry)
                && entry.file_type()?.is_file()
            {
                // A cache opening the same directory may have deleted it first.
                match std::fs::remove_file(entry.path()) {
                    Err(err) if err.kind() != std::io::ErrorKind::NotFound => return Err(err),
                    _ => {}
                }
            }
        }
        let path = dir.join(LOG_FILE);
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        // A crash mid-append leaves a last line without its newline: end
        // it, so the next append starts a line of its own.
        if bytes.last().is_some_and(|&byte| byte != b'\n') {
            file.write_all(b"\n")?;
        }
        // Entries are ASCII; a non-UTF-8 byte can only sit in a bad line,
        // which its replacement character keeps failing to parse.
        let text = String::from_utf8(bytes)
            .unwrap_or_else(|err| String::from_utf8_lossy(err.as_bytes()).into_owned());
        let mut index = HashMap::new();
        let mut start = 0;
        for line in text.split('\n') {
            if let Some(key) = claimed_key(line) {
                index.insert(key.to_string(), start..start + line.len());
            }
            start += line.len() + 1;
        }
        Ok(DiskLog { path, text, index, file: Mutex::new(file) })
    }

    /// The last line that claims `key`, not yet validated.
    fn line(&self, key: &str) -> Option<&str> {
        self.index.get(key).map(|range| &self.text[range.clone()])
    }
}

/// Whether `name` is a per-entry file of the layout older builds wrote,
/// `{fnv1a(key):016x}.json`: exactly 16 lowercase hex digits plus `.json`.
fn is_legacy_entry(name: &str) -> bool {
    name.strip_suffix(".json").is_some_and(|stem| {
        stem.len() == 16 && stem.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    })
}

/// The `"key"` a log line claims, found as text: the index only routes a
/// lookup to a line, and [`parse_entry`] still validates all of it.
fn claimed_key(line: &str) -> Option<&str> {
    const FIELD: &str = "\"key\":\"";
    let start = line.find(FIELD)? + FIELD.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// Serializes one disk-tier entry with the [`crate::json`] writer.
fn entry_to_json(key: &str, cached: &CachedRun) -> Json {
    let core = &cached.profile.core;
    Json::Obj(vec![
        ("schema_version".into(), Json::UInt(CACHE_SCHEMA_VERSION as u64)),
        ("key".into(), Json::Str(key.to_string())),
        ("commits".into(), Json::UInt(cached.commits)),
        ("aborts".into(), Json::UInt(cached.aborts)),
        // Hex string, not a number: the strict parser reads numbers as
        // f64, which cannot carry a full 64-bit hash exactly.
        ("fingerprint".into(), Json::Str(format!("{:016x}", cached.fingerprint))),
        (
            "throughput_tx_per_sec".into(),
            cached.throughput_tx_per_sec.map_or(Json::Null, Json::Num),
        ),
        ("makespan_seconds".into(), cached.makespan_seconds.map_or(Json::Null, Json::Num)),
        (
            "profile".into(),
            Json::Obj(vec![
                (
                    "time_domain".into(),
                    Json::Str(
                        match cached.profile.time_domain {
                            TimeDomain::Cycles => "cycles",
                            TimeDomain::WallNanos => "wall-nanos",
                        }
                        .into(),
                    ),
                ),
                ("commits".into(), Json::UInt(core.commits)),
                ("aborts".into(), Json::UInt(core.aborts)),
                (
                    "abort_codes".into(),
                    Json::Arr(core.abort_codes.iter().map(|&c| Json::UInt(c)).collect()),
                ),
                (
                    "breakdown".into(),
                    Json::Arr(
                        Phase::ALL.iter().map(|&p| Json::UInt(core.breakdown.get(p))).collect(),
                    ),
                ),
                (
                    "attempt".into(),
                    Json::Arr(
                        Phase::ALL.iter().map(|&p| Json::UInt(core.attempt.get(p))).collect(),
                    ),
                ),
                ("mram_dma_setups".into(), Json::UInt(core.mram_dma_setups)),
                ("mram_dma_words".into(), Json::UInt(core.mram_dma_words)),
                ("backoff_time".into(), Json::UInt(core.backoff_time)),
                // Constants of the v1 format, which the parser ignores;
                // drop them at the next `CACHE_SCHEMA_VERSION` bump.
                ("tune_windows".into(), Json::UInt(0)),
                ("tune_switches".into(), Json::UInt(0)),
            ]),
        ),
    ])
}

/// Parses and validates one disk-tier entry. `None` on *any* deviation —
/// unparseable text, wrong schema version, key mismatch, missing or
/// ill-typed field — so corrupt entries are discarded, never trusted.
fn parse_entry(text: &str, expected_key: &str) -> Option<CachedRun> {
    let json = crate::json::parse(text).ok()?;
    if as_u64(json.get("schema_version")?)? != CACHE_SCHEMA_VERSION as u64 {
        return None;
    }
    if as_str(json.get("key")?)? != expected_key {
        return None;
    }
    let profile = json.get("profile")?;
    let time_domain = match as_str(profile.get("time_domain")?)? {
        "cycles" => TimeDomain::Cycles,
        "wall-nanos" => TimeDomain::WallNanos,
        _ => return None,
    };
    let mut core = ProfileCore::new();
    core.commits = as_u64(profile.get("commits")?)?;
    core.aborts = as_u64(profile.get("aborts")?)?;
    let codes = parse_u64_array(profile.get("abort_codes")?, ABORT_CODE_SLOTS)?;
    core.abort_codes.copy_from_slice(&codes);
    for (breakdown, field) in [(&mut core.breakdown, "breakdown"), (&mut core.attempt, "attempt")] {
        let cycles = parse_u64_array(profile.get(field)?, Phase::ALL.len())?;
        for (&phase, &value) in Phase::ALL.iter().zip(&cycles) {
            breakdown.charge(phase, value);
        }
    }
    core.mram_dma_setups = as_u64(profile.get("mram_dma_setups")?)?;
    core.mram_dma_words = as_u64(profile.get("mram_dma_words")?)?;
    core.backoff_time = as_u64(profile.get("backoff_time")?)?;
    Some(CachedRun {
        commits: as_u64(json.get("commits")?)?,
        aborts: as_u64(json.get("aborts")?)?,
        fingerprint: u64::from_str_radix(as_str(json.get("fingerprint")?)?, 16).ok()?,
        profile: ExecProfile { time_domain, core },
        throughput_tx_per_sec: parse_opt_f64(json.get("throughput_tx_per_sec")?)?,
        makespan_seconds: parse_opt_f64(json.get("makespan_seconds")?)?,
    })
}

/// Reads an unsigned integer back out of a parsed number. The strict
/// parser returns every number as `f64`; values beyond 2^53 cannot have
/// round-tripped exactly, so they reject the entry rather than smuggle a
/// rounded counter in.
fn as_u64(json: &Json) -> Option<u64> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match json {
        Json::UInt(n) => Some(*n),
        Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < EXACT => Some(*n as u64),
        _ => None,
    }
}

/// The string payload, or `None` for non-strings.
fn as_str(json: &Json) -> Option<&str> {
    match json {
        Json::Str(text) => Some(text),
        _ => None,
    }
}

/// An exactly-`len` array of unsigned integers, or `None`.
fn parse_u64_array(json: &Json, len: usize) -> Option<Vec<u64>> {
    let Json::Arr(items) = json else { return None };
    if items.len() != len {
        return None;
    }
    items.iter().map(as_u64).collect()
}

/// `null` → `Some(None)`, a number → `Some(Some(n))`, anything else →
/// `None` (reject the entry).
fn parse_opt_f64(json: &Json) -> Option<Option<f64>> {
    match json {
        Json::Null => Some(None),
        Json::Num(n) => Some(Some(*n)),
        Json::UInt(n) => Some(Some(*n as f64)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridOptions, GridSearch};
    use crate::pool::WorkerPool;
    use pim_stm::{
        LockOrder, MetadataPlacement, ReadStrategy, RetryPolicy, StmKind, WriteBackStrategy,
    };
    use pim_workloads::Workload;
    use std::sync::atomic::AtomicUsize;

    fn tiny_spec() -> RunSpec {
        RunSpec::new(Workload::ArrayA, StmKind::Norec, MetadataPlacement::Mram, 2)
            .with_scale(0.05)
            .with_seed(9)
    }

    /// A scratch directory unique to one test (std-only stand-in for a
    /// tempdir crate); removed best-effort on drop.
    struct ScratchDir(PathBuf);
    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("pim-exp-cache-test-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            ScratchDir(dir)
        }

        fn log(&self) -> PathBuf {
            self.0.join(LOG_FILE)
        }
    }
    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn run_counted(cache: &SimCache, spec: &RunSpec, runs: &AtomicUsize) -> CachedRun {
        cache.get_or_run(spec, Executor::Simulator, || {
            runs.fetch_add(1, Ordering::SeqCst);
            let report = spec.run_on(Executor::Simulator);
            report.assert_invariants();
            report
        })
    }

    #[test]
    fn repeated_identical_cells_hit_and_return_the_bit_identical_summary() {
        let cache = SimCache::in_memory();
        let spec = tiny_spec();
        let runs = AtomicUsize::new(0);
        let first = run_counted(&cache, &spec, &runs);
        let second = run_counted(&cache, &spec, &runs);
        assert_eq!(first, second, "a hit must replay the run bit for bit");
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the second lookup must not simulate");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.disk_hits), (1, 1, 0));
        assert_eq!(stats.bytes_written, 0, "no disk tier, no bytes");
    }

    /// A spec whose every key field differs from [`tiny_spec`]'s.
    fn all_non_default_spec() -> RunSpec {
        RunSpec {
            workload: Workload::ListHc,
            kind: StmKind::VrEtlWt,
            placement: MetadataPlacement::Wram,
            tasklets: 11,
            seed: 7,
            scale: 0.5,
            knobs: StmKnobs {
                retry: RetryPolicy::Adaptive,
                read_strategy: ReadStrategy::WordWise,
                write_back: WriteBackStrategy::WordWise,
                lock_order: LockOrder::RecordOrder,
                max_burst_words: 8,
            },
            record_words: Some(4),
        }
    }

    /// The literal keys: a warm `--cache-dir` written before the knobs were
    /// one struct must keep hitting.
    #[test]
    fn keys_are_pinned_byte_for_byte() {
        assert_eq!(
            SimCache::key(&tiny_spec(), Executor::Simulator),
            "v1|array-a|norec-ctl-wb|mram|tasklets=2|seed=9|scale=0.05|retry=exponential|\
             read=batched|wb=coalesced|order=address-sorted|cap=64|tune=static|rw=default|\
             simulator"
        );
        assert_eq!(
            SimCache::key(&all_non_default_spec(), Executor::Threaded),
            "v1|list-hc|vr-etl-wt|wram|tasklets=11|seed=7|scale=0.5|retry=adaptive|\
             read=word-wise|wb=word-wise|order=record-order|cap=8|tune=static|rw=4|threaded"
        );
    }

    /// The literal disk entry of [`tiny_spec`]: a `--cache-dir` written by
    /// an earlier v1 build must keep parsing, and this build must keep
    /// writing the same bytes.
    #[test]
    fn disk_entries_are_pinned_byte_for_byte() {
        const ENTRY: &str = "{\"schema_version\":1,\"key\":\"v1|array-a|norec-ctl-wb|mram|\
            tasklets=2|seed=9|scale=0.05|retry=exponential|read=batched|wb=coalesced|\
            order=address-sorted|cap=64|tune=static|rw=default|simulator\",\"commits\":10,\
            \"aborts\":0,\"fingerprint\":\"237b7ae8eac73ca5\",\
            \"throughput_tx_per_sec\":3756.4207964041393,\
            \"makespan_seconds\":0.0026621085714285714,\"profile\":{\"time_domain\":\"cycles\",\
            \"commits\":10,\"aborts\":0,\"abort_codes\":[0,0,0,0,0,0,0,0],\
            \"breakdown\":[1115080,227500,0,167086,164710,147480,0],\"attempt\":[0,0,0,0,0,0,0],\
            \"mram_dma_setups\":10005,\"mram_dma_words\":10955,\"backoff_time\":0,\
            \"tune_windows\":0,\"tune_switches\":0}}";
        let scratch = ScratchDir::new("pinned");
        let spec = tiny_spec();
        let key = SimCache::key(&spec, Executor::Simulator);
        let runs = AtomicUsize::new(0);
        let cached = run_counted(&SimCache::with_dir(&scratch.0).unwrap(), &spec, &runs);
        assert_eq!(std::fs::read_to_string(scratch.log()).unwrap(), format!("{ENTRY}\n"));
        assert_eq!(parse_entry(ENTRY, &key), Some(cached));
    }

    #[test]
    fn every_result_bearing_field_is_part_of_the_key() {
        let base = tiny_spec();
        // One variant per field, each taking its value from the
        // all-non-default spec.
        let other = all_non_default_spec();
        let knobs = |knobs| RunSpec { knobs, ..base };
        let variants = [
            RunSpec { workload: other.workload, ..base },
            RunSpec { kind: other.kind, ..base },
            RunSpec { placement: other.placement, ..base },
            RunSpec { tasklets: other.tasklets, ..base },
            RunSpec { seed: other.seed, ..base },
            RunSpec { scale: other.scale, ..base },
            knobs(StmKnobs { retry: other.knobs.retry, ..base.knobs }),
            knobs(StmKnobs { read_strategy: other.knobs.read_strategy, ..base.knobs }),
            knobs(StmKnobs { write_back: other.knobs.write_back, ..base.knobs }),
            knobs(StmKnobs { lock_order: other.knobs.lock_order, ..base.knobs }),
            knobs(StmKnobs { max_burst_words: other.knobs.max_burst_words, ..base.knobs }),
            RunSpec { record_words: other.record_words, ..base },
        ];
        let mut keys: Vec<String> =
            variants.iter().map(|v| SimCache::key(v, Executor::Simulator)).collect();
        keys.push(SimCache::key(&base, Executor::Threaded));
        keys.push(SimCache::key(&base, Executor::Simulator));
        let distinct: std::collections::HashSet<&String> = keys.iter().collect();
        assert_eq!(distinct.len(), keys.len(), "changing any one field must change the key");
        // A seed change misses even with the base cell already cached.
        let cache = SimCache::in_memory();
        let runs = AtomicUsize::new(0);
        run_counted(&cache, &base, &runs);
        run_counted(&cache, &base.with_seed(10), &runs);
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn threaded_runs_always_execute_and_touch_no_statistics() {
        let cache = SimCache::in_memory();
        let spec = tiny_spec();
        let runs = AtomicUsize::new(0);
        for _ in 0..2 {
            cache.get_or_run(&spec, Executor::Threaded, || {
                runs.fetch_add(1, Ordering::SeqCst);
                spec.run_on(Executor::Threaded)
            });
        }
        assert_eq!(runs.load(Ordering::SeqCst), 2, "wall-clock cells are measured, not replayed");
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn disk_entries_round_trip_bit_identically_into_a_fresh_process() {
        let scratch = ScratchDir::new("roundtrip");
        let spec = tiny_spec();
        let runs = AtomicUsize::new(0);
        let warm = SimCache::with_dir(&scratch.0).unwrap();
        assert!(warm.has_disk_tier());
        let first = run_counted(&warm, &spec, &runs);
        assert!(warm.stats().bytes_written > 0, "the miss must persist its entry");
        // A fresh cache over the same directory models a new process.
        let cold = SimCache::with_dir(&scratch.0).unwrap();
        let second = cold.get_or_run(&spec, Executor::Simulator, || {
            unreachable!("a valid disk entry must be read back, not re-simulated")
        });
        assert_eq!(first, second, "the disk tier must replay the run bit for bit");
        let stats = cold.stats();
        assert_eq!((stats.hits, stats.misses, stats.disk_hits), (1, 0, 1));
        assert!(stats.bytes_read > 0);
        // Promotion: the same lookup now hits memory, not disk.
        let third = cold.get_or_run(&spec, Executor::Simulator, || unreachable!());
        assert_eq!(first, third);
        assert_eq!(cold.stats().disk_hits, 1);
    }

    /// Replaces the log with `log`: a cache over it must treat the cell as
    /// a miss that re-simulates `first` and appends its valid line, and a
    /// fresh cache must then replay that line.
    fn assert_discarded_and_rewritten(
        scratch: &ScratchDir,
        log: &str,
        first: &CachedRun,
        runs: &AtomicUsize,
        tag: &str,
    ) {
        let spec = tiny_spec();
        let good = entry_to_json(&SimCache::key(&spec, Executor::Simulator), first).to_string();
        std::fs::write(scratch.log(), log).unwrap();
        let cache = SimCache::with_dir(&scratch.0).unwrap();
        assert_eq!(
            &run_counted(&cache, &spec, runs),
            first,
            "{tag}: the re-simulated cell must match"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "{tag}: a discarded entry is a miss, never a hit"
        );
        assert_eq!(stats.bytes_written, good.len() as u64, "{tag}: the entry must be rewritten");
        let rewritten = std::fs::read_to_string(scratch.log()).unwrap();
        assert!(rewritten.ends_with(&format!("\n{good}\n")), "{tag}: the valid line comes last");
        let fresh = SimCache::with_dir(&scratch.0).unwrap();
        let replayed = fresh.get_or_run(&spec, Executor::Simulator, || {
            unreachable!("{tag}: the appended line must win at the next open")
        });
        assert_eq!(&replayed, first);
        assert_eq!(fresh.stats().disk_hits, 1, "{tag}");
    }

    #[test]
    fn corrupt_or_stale_disk_entries_are_discarded_and_rewritten() {
        let scratch = ScratchDir::new("corrupt");
        let spec = tiny_spec();
        let runs = AtomicUsize::new(0);
        let first = run_counted(&SimCache::with_dir(&scratch.0).unwrap(), &spec, &runs);
        let good = std::fs::read_to_string(scratch.log()).unwrap();
        let good = good.strip_suffix('\n').unwrap();
        let stale_version = good.replace(
            &format!("\"schema_version\":{CACHE_SCHEMA_VERSION}"),
            "\"schema_version\":999",
        );
        let wrong_key = good.replace("array-a", "array-x");
        // A crash mid-append: the valid line, then a torn copy of it with
        // no newline, which claims the key and so wins the index.
        let torn = format!("{good}\n{}", &good[..good.len() / 2]);
        for (tag, bad) in [
            ("garbage", "{not json".to_string()),
            ("stale", stale_version),
            ("key", wrong_key),
            ("torn", torn),
        ] {
            assert_discarded_and_rewritten(&scratch, &bad, &first, &runs, tag);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 5);
    }

    /// A corrupt entry of 100 k `[` used to overflow the parser's stack and
    /// kill the process; it must be one more discarded entry.
    #[test]
    fn runaway_nesting_in_a_disk_entry_is_discarded_not_a_stack_overflow() {
        let scratch = ScratchDir::new("nesting");
        let spec = tiny_spec();
        let runs = AtomicUsize::new(0);
        let first = run_counted(&SimCache::with_dir(&scratch.0).unwrap(), &spec, &runs);
        let key = SimCache::key(&spec, Executor::Simulator);
        let good = std::fs::read_to_string(scratch.log()).unwrap();
        let bomb = "[".repeat(100_000);
        assert!(parse_entry(&bomb, &key).is_none());
        // Valid up to the payload, so the depth check is what rejects it.
        let nested = good.replacen("\"abort_codes\":[", &format!("\"abort_codes\":[{bomb}"), 1);
        assert!(parse_entry(nested.trim_end(), &key).is_none());
        for (tag, bad) in [("bomb", bomb), ("nested", nested)] {
            assert_discarded_and_rewritten(&scratch, &bad, &first, &runs, tag);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 3);
    }

    /// The cheapest grid of the tests: 108 cells.
    fn small_grid(pool: &WorkerPool, cache: &SimCache) -> GridSearch {
        let options =
            GridOptions { scale: 0.02, tasklets: 2, caps: vec![64], ..GridOptions::default() };
        GridSearch::run_with(Workload::ArrayB, MetadataPlacement::Mram, options, pool, cache)
    }

    /// Two caches on one directory, each driving a two-worker pool, append
    /// to the same log while racing every key; no line may tear another.
    #[test]
    fn caches_racing_on_one_directory_leave_a_log_that_replays_every_cell() {
        let scratch = ScratchDir::new("race");
        let cold: Vec<GridSearch> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let cache = SimCache::with_dir(&scratch.0).unwrap();
                        small_grid(&WorkerPool::new(2), &cache)
                    })
                })
                .collect();
            racers.into_iter().map(|racer| racer.join().unwrap()).collect()
        });
        assert_eq!(cold[0].cells, cold[1].cells);
        let cache = SimCache::with_dir(&scratch.0).unwrap();
        let warm = small_grid(&WorkerPool::new(2), &cache);
        let cells = warm.cells.len() as u64;
        assert_eq!((warm.cache.hits, warm.cache.disk_hits, warm.cache.misses), (cells, cells, 0));
        assert_eq!(warm.cache.bytes_written, 0);
        assert_eq!(warm.cells, cold[0].cells, "the replayed cells are bit-identical");
    }

    /// The disk tier's shape, pinned: however many cells miss, the
    /// directory holds one file.
    #[test]
    fn a_cold_grid_leaves_exactly_one_file_in_its_directory() {
        let scratch = ScratchDir::new("one-file");
        let cache = SimCache::with_dir(&scratch.0).unwrap();
        let cold = small_grid(&WorkerPool::new(2), &cache);
        assert_eq!(cold.cache.misses, cold.cells.len() as u64);
        let files: Vec<PathBuf> =
            std::fs::read_dir(&scratch.0).unwrap().map(|entry| entry.unwrap().path()).collect();
        assert_eq!(files, [scratch.log()]);
        let lines = std::fs::read_to_string(scratch.log()).unwrap().lines().count();
        assert_eq!(lines as u64, cold.cache.misses, "one line per miss");
    }

    /// Opening a directory deletes the per-entry files of the older
    /// layout, and only those.
    #[test]
    fn opening_a_directory_deletes_only_the_older_layouts_entry_files() {
        let scratch = ScratchDir::new("legacy");
        let spec = tiny_spec();
        let runs = AtomicUsize::new(0);
        let first = run_counted(&SimCache::with_dir(&scratch.0).unwrap(), &spec, &runs);
        let legacy = scratch.0.join("0123456789abcdef.json");
        let kept = ["notes.json", "0123.json", "0123456789ABCDEF.json", "0123456789abcdef.jsonl"];
        for name in kept {
            std::fs::write(scratch.0.join(name), "{}").unwrap();
        }
        std::fs::write(&legacy, "{}").unwrap();
        std::fs::create_dir(scratch.0.join("fedcba9876543210.json")).unwrap();
        let cache = SimCache::with_dir(&scratch.0).unwrap();
        assert!(!legacy.exists(), "the older layout's entry file is deleted");
        let mut left: Vec<String> = std::fs::read_dir(&scratch.0)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        let mut expected: Vec<&str> = kept.to_vec();
        expected.extend([LOG_FILE, "fedcba9876543210.json"]);
        expected.sort();
        assert_eq!(left, expected, "every other name, and a directory, stay");
        let replayed = cache.get_or_run(&spec, Executor::Simulator, || {
            unreachable!("the log must still replay as a disk hit")
        });
        assert_eq!(replayed, first);
        assert_eq!(cache.stats().disk_hits, 1);
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn entry_parser_rejects_every_structural_deviation() {
        let spec = tiny_spec();
        let cached = CachedRun::from_report(&spec.run_on(Executor::Simulator));
        let key = SimCache::key(&spec, Executor::Simulator);
        let good = entry_to_json(&key, &cached).to_string();
        assert_eq!(parse_entry(&good, &key).as_ref(), Some(&cached), "round trip must be exact");
        // Counters above 2^53 cannot round-trip through the f64 parser;
        // the hex-string fingerprint can.
        assert!(cached.fingerprint > 0);
        for bad in [
            good.replace("\"commits\"", "\"commitz\""),
            good.replace("\"time_domain\":\"cycles\"", "\"time_domain\":\"eons\""),
            good.replace("\"fingerprint\":\"", "\"fingerprint\":\"zz"),
            format!("{good} trailing"),
        ] {
            assert!(parse_entry(&bad, &key).is_none(), "must reject: {bad:.80}");
        }
        assert!(parse_entry(&good, "some-other-key").is_none());
        assert_eq!(as_u64(&Json::UInt(u64::MAX)), Some(u64::MAX));
        assert_eq!(
            as_u64(&Json::Num((1u64 << 53) as f64)),
            None,
            "counters at or beyond 2^53 cannot have round-tripped exactly"
        );
        assert_eq!(as_u64(&Json::Num(-1.0)), None);
        assert_eq!(as_u64(&Json::Num(1.5)), None);
    }
}
