//! Configuration of the STM library: which algorithm to use, where to place
//! its metadata, and how large the per-tasklet transaction logs are.
//!
//! The original C library selects the algorithm and metadata placement with
//! compile-time macros; the idiomatic Rust equivalent used here is a runtime
//! [`StmConfig`], which additionally lets a single experiment binary sweep
//! the whole design space.

use std::fmt;

use pim_sim::Tier;

/// Where STM metadata (lock table, sequence lock, global clock, per-tasklet
/// read/write sets) is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetadataPlacement {
    /// Fast 64 KB scratchpad — low latency but steals capacity from the
    /// application.
    Wram,
    /// 64 MB DRAM bank — plentiful but every metadata access pays DMA
    /// latency.
    Mram,
}

impl MetadataPlacement {
    /// Both placements, for sweeps.
    pub const ALL: [MetadataPlacement; 2] = [MetadataPlacement::Wram, MetadataPlacement::Mram];

    /// The memory tier this placement corresponds to.
    pub fn tier(self) -> Tier {
        match self {
            MetadataPlacement::Wram => Tier::Wram,
            MetadataPlacement::Mram => Tier::Mram,
        }
    }

    /// Short lowercase name used by the CLI.
    pub fn name(self) -> &'static str {
        match self {
            MetadataPlacement::Wram => "wram",
            MetadataPlacement::Mram => "mram",
        }
    }
}

impl fmt::Display for MetadataPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Conflict-detection metadata granularity (the top level of the paper's
/// taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetadataGranularity {
    /// Per-location ownership records (a hashed lock table).
    Orec,
    /// A single global sequence lock (the NOrec design).
    NoOrec,
}

/// Whether transactional reads are observable by other transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadVisibility {
    /// Reads leave no trace; correctness relies on (re)validation.
    Invisible,
    /// Reads acquire a read-write lock in read mode.
    Visible,
}

/// The read-protocol axis of the policy grid: how a transaction observes
/// memory and how that observation is kept consistent. Each variant names
/// one [`crate::policy::ReadPolicy`] implementation.
///
/// This axis folds the paper's *metadata granularity* and *read visibility*
/// dimensions into one: the choice of read protocol dictates both (per-word
/// ORecs with invisible reads, per-word rw-locks with visible reads, or a
/// single global sequence lock with value-based validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReadPolicyKind {
    /// Invisible reads against per-word ownership records with a global
    /// version clock and snapshot extension (the Tiny family's protocol).
    Orec,
    /// Visible reads: every read acquires the covering read-write lock in
    /// read mode (the VR family's protocol).
    VisibleLocks,
    /// No per-word metadata at all: a single global sequence lock brackets
    /// commits and reads re-validate *by value* (NOrec's protocol).
    ValueValidation,
}

impl ReadPolicyKind {
    /// All read policies, in grid order.
    pub const ALL: [ReadPolicyKind; 3] =
        [ReadPolicyKind::Orec, ReadPolicyKind::VisibleLocks, ReadPolicyKind::ValueValidation];

    /// Short grid name (`orec` / `vr` / `norec`).
    pub fn name(self) -> &'static str {
        match self {
            ReadPolicyKind::Orec => "orec",
            ReadPolicyKind::VisibleLocks => "vr",
            ReadPolicyKind::ValueValidation => "norec",
        }
    }

    /// The metadata granularity this read protocol implies.
    pub fn granularity(self) -> MetadataGranularity {
        match self {
            ReadPolicyKind::ValueValidation => MetadataGranularity::NoOrec,
            _ => MetadataGranularity::Orec,
        }
    }

    /// The read visibility this read protocol implies.
    pub fn visibility(self) -> ReadVisibility {
        match self {
            ReadPolicyKind::VisibleLocks => ReadVisibility::Visible,
            _ => ReadVisibility::Invisible,
        }
    }
}

impl fmt::Display for ReadPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// When write locks are acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockTiming {
    /// Encounter-time locking: at the first write to a location.
    Encounter,
    /// Commit-time locking: all locks are acquired during commit.
    Commit,
}

/// When written values become visible in shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Writes are buffered in a redo log and applied at commit.
    WriteBack,
    /// Writes go straight to memory; an undo log restores old values on
    /// abort.
    WriteThrough,
}

/// The retry axis of the policy grid: how a tasklet waits between an
/// aborted attempt and its retry. Unlike the read/lock/write axes this one
/// is *orthogonal to correctness* — every policy composes with every design
/// — so it is carried on [`StmConfig`] rather than baked into the engine.
///
/// The wait itself is charged through [`crate::Platform::spin_wait`], so it
/// shows up as back-off time in [`crate::ExecProfile`] on both executors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RetryPolicy {
    /// A constant-size wait window with per-tasklet jitter: cheap and
    /// predictable, but livelock-prone under sustained symmetric contention
    /// (the jitter is the only thing breaking duels).
    Fixed,
    /// Bounded randomised exponential back-off — the window doubles with
    /// every consecutive abort up to a saturation cap. This is the
    /// pre-policy-grid behaviour and the default.
    #[default]
    Exponential,
    /// Histogram-adaptive back-off: the saturation cap is tuned from the
    /// tasklet's own per-[`crate::AbortReason`] abort counts. Lock-shaped
    /// conflicts (a holder must drain) keep the full exponential window;
    /// validation failures (the conflicting commit has already finished)
    /// cap the window low so the tasklet retries promptly.
    Adaptive,
}

impl RetryPolicy {
    /// All retry policies, for sweeps.
    pub const ALL: [RetryPolicy; 3] =
        [RetryPolicy::Fixed, RetryPolicy::Exponential, RetryPolicy::Adaptive];

    /// Short lowercase name used by the CLI and in reports.
    pub fn name(self) -> &'static str {
        match self {
            RetryPolicy::Fixed => "fixed",
            RetryPolicy::Exponential => "exponential",
            RetryPolicy::Adaptive => "adaptive",
        }
    }

    /// Parses the CLI form (`fixed`, `exp`/`exponential`, `adaptive`).
    pub fn parse(name: &str) -> Option<RetryPolicy> {
        let canon: String =
            name.to_ascii_lowercase().chars().filter(|c| c.is_ascii_alphanumeric()).collect();
        match canon.as_str() {
            "fixed" => Some(RetryPolicy::Fixed),
            "exp" | "exponential" => Some(RetryPolicy::Exponential),
            "adaptive" => Some(RetryPolicy::Adaptive),
            _ => None,
        }
    }
}

impl fmt::Display for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// In which order a multi-word [`crate::TxEngine::write_record`] acquires
/// the ownership records covering the record (encounter-time-locking
/// compositions only; commit-time locking buffers unlocked and NOrec has no
/// per-word locks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum LockOrder {
    /// One full per-word write per record word, in record order — locks are
    /// acquired interleaved with undo/redo logging and (for write-through)
    /// data stores, exactly like issuing the writes one by one. Kept as the
    /// comparison baseline.
    RecordOrder,
    /// Acquire every covering ORec **first**, sorted by lock-table address
    /// and deduplicated, then log and store the data. The global acquisition
    /// order turns symmetric lock-order duels (each transaction holding what
    /// the other wants, both aborting) into single losers, and the
    /// back-to-back acquisitions shrink the window in which a transaction
    /// holds a partial lock set.
    #[default]
    AddressSorted,
}

impl LockOrder {
    /// Both orders, for A/B tests.
    pub const ALL: [LockOrder; 2] = [LockOrder::RecordOrder, LockOrder::AddressSorted];

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            LockOrder::RecordOrder => "record-order",
            LockOrder::AddressSorted => "address-sorted",
        }
    }
}

impl fmt::Display for LockOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How commit-time write-back publishes the redo log to memory.
///
/// Every write-back design ends its commit by copying the redo log into data
/// memory. Doing that word by word pays one MRAM DMA setup per word;
/// coalescing first sorts the log by address (cheap WRAM/pipeline work) and
/// then issues one [`crate::Platform::store_block`] burst per maximal run of
/// consecutive addresses, amortising the setup the way SimplePIM-style bulk
/// transfers do. Both strategies produce byte-identical memory contents —
/// the log holds at most one entry per address and every lock protecting the
/// written range is held for the duration of the publish.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WriteBackStrategy {
    /// One store per redo-log entry, in log order (the original PIM-STM
    /// behaviour; kept as the comparison baseline).
    WordWise,
    /// Sort the staged log by address and publish each contiguous run as one
    /// DMA burst.
    #[default]
    Coalesced,
}

impl WriteBackStrategy {
    /// Both strategies, for sweeps and A/B tests.
    pub const ALL: [WriteBackStrategy; 2] =
        [WriteBackStrategy::WordWise, WriteBackStrategy::Coalesced];

    /// Short lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            WriteBackStrategy::WordWise => "word-wise",
            WriteBackStrategy::Coalesced => "coalesced",
        }
    }
}

impl fmt::Display for WriteBackStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How transactional record reads ([`crate::TxEngine::read_record`])
/// move their data.
///
/// The metadata protocol is identical under both strategies — every word's
/// ownership record / lock / sequence-lock check still runs — the knob only
/// selects whether the *data* crosses the MRAM port word by word (one DMA
/// setup per word) or as one [`crate::Platform::load_block`] burst per
/// contiguous run (one setup per run, bounded by
/// [`StmKnobs::max_burst_words`]). See [`crate::access`] for the soundness
/// argument and the per-design fallback rules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ReadStrategy {
    /// One data access per record word, in record order (the original
    /// PIM-STM behaviour; kept as the comparison baseline).
    WordWise,
    /// Burst-load each contiguous run of record words, then run the
    /// per-word metadata checks against the staged words, falling back to
    /// the word-wise path for words whose metadata moved under the burst.
    #[default]
    Batched,
}

impl ReadStrategy {
    /// Both strategies, for sweeps and A/B tests.
    pub const ALL: [ReadStrategy; 2] = [ReadStrategy::WordWise, ReadStrategy::Batched];

    /// Short lowercase name used in reports and by the CLI.
    pub fn name(self) -> &'static str {
        match self {
            ReadStrategy::WordWise => "word-wise",
            ReadStrategy::Batched => "batched",
        }
    }

    /// Parses the CLI form (`word-wise`/`wordwise` or `batched`).
    pub fn parse(name: &str) -> Option<ReadStrategy> {
        let canon: String =
            name.to_ascii_lowercase().chars().filter(|c| c.is_ascii_alphanumeric()).collect();
        match canon.as_str() {
            "wordwise" => Some(ReadStrategy::WordWise),
            "batched" => Some(ReadStrategy::Batched),
            _ => None,
        }
    }
}

impl fmt::Display for ReadStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The seven viable STM designs of the paper's taxonomy (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StmKind {
    /// NOrec: global sequence lock, invisible reads, commit-time locking,
    /// write-back, value-based validation.
    Norec,
    /// Tiny (TinySTM-like) with commit-time locking and write-back.
    TinyCtlWb,
    /// Tiny with encounter-time locking and write-back.
    TinyEtlWb,
    /// Tiny with encounter-time locking and write-through.
    TinyEtlWt,
    /// Visible reads with commit-time locking and write-back.
    VrCtlWb,
    /// Visible reads with encounter-time locking and write-back.
    VrEtlWb,
    /// Visible reads with encounter-time locking and write-through.
    VrEtlWt,
}

impl StmKind {
    /// All seven designs in the order used by the paper's plots.
    pub const ALL: [StmKind; 7] = [
        StmKind::TinyCtlWb,
        StmKind::TinyEtlWb,
        StmKind::TinyEtlWt,
        StmKind::Norec,
        StmKind::VrEtlWt,
        StmKind::VrEtlWb,
        StmKind::VrCtlWb,
    ];

    /// The display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            StmKind::Norec => "NOrec",
            StmKind::TinyCtlWb => "Tiny CTLWB",
            StmKind::TinyEtlWb => "Tiny ETLWB",
            StmKind::TinyEtlWt => "Tiny ETLWT",
            StmKind::VrCtlWb => "VR CTLWB",
            StmKind::VrEtlWb => "VR ETLWB",
            StmKind::VrEtlWt => "VR ETLWT",
        }
    }

    /// Parses the CLI form of a kind name (case-insensitive, `-`/`_`/space
    /// separators accepted): either a legacy name (`norec`, `tiny-etlwb`,
    /// `vr_ctlwb`) or a grid name composing the policy axes
    /// (`orec-etl-wb`, `vr-ctl-wb`, `norec-ctl-wb` — see
    /// [`StmKind::grid_name`]).
    pub fn parse(name: &str) -> Option<StmKind> {
        let canon: String =
            name.to_ascii_lowercase().chars().filter(|c| c.is_ascii_alphanumeric()).collect();
        let legacy = match canon.as_str() {
            "norec" => Some(StmKind::Norec),
            "tinyctlwb" => Some(StmKind::TinyCtlWb),
            "tinyetlwb" => Some(StmKind::TinyEtlWb),
            "tinyetlwt" => Some(StmKind::TinyEtlWt),
            "vrctlwb" => Some(StmKind::VrCtlWb),
            "vretlwb" => Some(StmKind::VrEtlWb),
            "vretlwt" => Some(StmKind::VrEtlWt),
            _ => None,
        };
        legacy.or_else(|| TmComposition::parse(name).and_then(TmComposition::kind))
    }

    /// The grid-style name of this design's policy composition:
    /// `<read>-<timing>-<write>` over the axes of [`TmComposition`].
    pub fn grid_name(self) -> String {
        self.composition().grid_name()
    }

    /// The policy composition this legacy kind resolves to. Every kind maps
    /// onto exactly one coherent cell of the read × lock × write grid; the
    /// actual engine ([`crate::policy::ComposedTm`]) is instantiated from
    /// these axes, so this mapping *is* the design's definition.
    pub fn composition(self) -> TmComposition {
        TmComposition {
            read: self.read_policy(),
            timing: self.lock_timing(),
            write: self.write_policy(),
        }
    }

    /// Position of this design on the read-protocol axis.
    pub fn read_policy(self) -> ReadPolicyKind {
        match self {
            StmKind::Norec => ReadPolicyKind::ValueValidation,
            StmKind::TinyCtlWb | StmKind::TinyEtlWb | StmKind::TinyEtlWt => ReadPolicyKind::Orec,
            StmKind::VrCtlWb | StmKind::VrEtlWb | StmKind::VrEtlWt => ReadPolicyKind::VisibleLocks,
        }
    }

    /// Position of this design in the metadata-granularity dimension.
    pub fn granularity(self) -> MetadataGranularity {
        match self {
            StmKind::Norec => MetadataGranularity::NoOrec,
            _ => MetadataGranularity::Orec,
        }
    }

    /// Position of this design in the read-visibility dimension.
    pub fn read_visibility(self) -> ReadVisibility {
        match self {
            StmKind::VrCtlWb | StmKind::VrEtlWb | StmKind::VrEtlWt => ReadVisibility::Visible,
            _ => ReadVisibility::Invisible,
        }
    }

    /// Position of this design in the lock-timing dimension.
    pub fn lock_timing(self) -> LockTiming {
        match self {
            StmKind::Norec | StmKind::TinyCtlWb | StmKind::VrCtlWb => LockTiming::Commit,
            _ => LockTiming::Encounter,
        }
    }

    /// Position of this design in the write-policy dimension.
    pub fn write_policy(self) -> WritePolicy {
        match self {
            StmKind::TinyEtlWt | StmKind::VrEtlWt => WritePolicy::WriteThrough,
            _ => WritePolicy::WriteBack,
        }
    }

    /// Whether this design needs a hashed lock table (all ORec designs do).
    pub fn uses_lock_table(self) -> bool {
        self.granularity() == MetadataGranularity::Orec
    }
}

impl fmt::Display for StmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One cell of the policy grid: a read protocol, a lock-acquisition time and
/// a write policy. This is the *descriptor* form of an STM design — the
/// engine itself is [`crate::policy::ComposedTm`], instantiated from these
/// axes — and the grammar behind grid-style CLI names like `orec-etl-wb`.
///
/// Not every cell is coherent; [`TmComposition::rejection_reason`] names the
/// constraint a cell violates and [`TmComposition::kind`] maps the seven
/// coherent cells back onto the paper's [`StmKind`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TmComposition {
    /// The read-protocol axis.
    pub read: ReadPolicyKind,
    /// The lock-timing axis.
    pub timing: LockTiming,
    /// The write-policy axis.
    pub write: WritePolicy,
}

impl TmComposition {
    /// Every cell of the 3 × 2 × 2 grid, coherent or not, in axis order.
    pub fn all() -> impl Iterator<Item = TmComposition> {
        ReadPolicyKind::ALL.into_iter().flat_map(|read| {
            [LockTiming::Encounter, LockTiming::Commit].into_iter().flat_map(move |timing| {
                [WritePolicy::WriteBack, WritePolicy::WriteThrough]
                    .into_iter()
                    .map(move |write| TmComposition { read, timing, write })
            })
        })
    }

    /// Whether this cell is a sound STM design (the unstruck cells of the
    /// paper's Fig. 2). `const` so [`crate::policy::ComposedTm::new`] rejects
    /// an incoherent composition at compile time when it is built in a
    /// `const` context, as [`crate::TxEngine`]'s seven cells are.
    pub const fn is_coherent(self) -> bool {
        // Write-through exposes uncommitted stores, so the writer must
        // already hold the lock: commit-time locking cannot write through.
        if matches!(self.write, WritePolicy::WriteThrough)
            && matches!(self.timing, LockTiming::Commit)
        {
            return false;
        }
        // Value validation has no per-word locks: there is nothing to
        // acquire at encounter time, and nothing to hold while a
        // write-through store is exposed.
        if matches!(self.read, ReadPolicyKind::ValueValidation)
            && (matches!(self.timing, LockTiming::Encounter)
                || matches!(self.write, WritePolicy::WriteThrough))
        {
            return false;
        }
        true
    }

    /// Why this cell is incoherent, or `None` if it is a sound design.
    pub fn rejection_reason(self) -> Option<&'static str> {
        if self.is_coherent() {
            return None;
        }
        if self.read == ReadPolicyKind::ValueValidation {
            Some(
                "value validation (norec) has no per-word locks, so it composes only with \
                 commit-time locking and write-back (norec-ctl-wb)",
            )
        } else {
            Some(
                "write-through requires encounter-time locking: a commit-time-locking \
                 transaction may still abort after exposing its stores (Fig. 2)",
            )
        }
    }

    /// The legacy [`StmKind`] this cell corresponds to, or `None` for
    /// incoherent cells.
    pub fn kind(self) -> Option<StmKind> {
        StmKind::ALL.into_iter().find(|k| k.composition() == self)
    }

    /// The grid-style name of this cell, e.g. `orec-etl-wb` (rendered for
    /// incoherent cells too, so rejection messages can name them). The
    /// [`fmt::Display`] form writes the same name without allocating.
    pub fn grid_name(self) -> String {
        self.to_string()
    }

    /// Parses a grid-style cell name (`<read>-<timing>-<write>`,
    /// case-insensitive, separators optional). Incoherent cells parse too —
    /// callers reject them with [`TmComposition::rejection_reason`] so the
    /// user learns *why* the cell is struck out rather than just "unknown".
    pub fn parse(name: &str) -> Option<TmComposition> {
        let canon: String =
            name.to_ascii_lowercase().chars().filter(|c| c.is_ascii_alphanumeric()).collect();
        TmComposition::all().find(|c| {
            c.grid_name().chars().filter(|ch| ch.is_ascii_alphanumeric()).collect::<String>()
                == canon
        })
    }
}

impl fmt::Display for TmComposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let timing = match self.timing {
            LockTiming::Encounter => "etl",
            LockTiming::Commit => "ctl",
        };
        let write = match self.write {
            WritePolicy::WriteBack => "wb",
            WritePolicy::WriteThrough => "wt",
        };
        write!(f, "{}-{timing}-{write}", self.read.name())
    }
}

/// The engine knobs: the five axes that `pim-exp --grid` enumerates on top
/// of a design. One vector holds for a whole run; the grid searches them
/// offline. This struct is their only declaration;
/// [`StmConfig`], `RunSpec`, the sweep options and the simulation-cache key
/// all carry or destructure it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmKnobs {
    /// How aborted attempts back off before retrying (see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// How record reads move their data (see [`ReadStrategy`]).
    pub read_strategy: ReadStrategy,
    /// How write-back commits publish their redo log.
    pub write_back: WriteBackStrategy,
    /// In which order multi-word record writes acquire their ownership
    /// records under encounter-time locking (see [`LockOrder`]).
    pub lock_order: LockOrder,
    /// Longest run a coalesced write-back — or a batched record read —
    /// moves as a single DMA burst, in words: the size of the staging
    /// buffer a tasklet reserves in WRAM (the hardware also caps one DMA
    /// transfer at 2 KB = 256 words). Longer runs are split, never dropped.
    pub max_burst_words: u32,
}

impl Default for StmKnobs {
    /// Exponential retry, batched reads, coalesced write-back,
    /// address-sorted lock order and a [`DEFAULT_BURST_WORDS`] cap.
    fn default() -> Self {
        StmKnobs {
            retry: RetryPolicy::default(),
            read_strategy: ReadStrategy::default(),
            write_back: WriteBackStrategy::default(),
            lock_order: LockOrder::default(),
            max_burst_words: DEFAULT_BURST_WORDS,
        }
    }
}

impl StmKnobs {
    /// Checks the burst cap: a burst must carry at least one word, and one
    /// DMA transfer cannot move more than [`HARDWARE_MAX_BURST_WORDS`]
    /// (a larger cap would undercount DMA setups).
    ///
    /// # Errors
    ///
    /// Returns why the burst cap is out of range.
    pub fn check(&self) -> Result<(), String> {
        match self.max_burst_words {
            0 => Err("a burst cap must be at least one word".to_string()),
            words if words > HARDWARE_MAX_BURST_WORDS => Err(format!(
                "burst cap {words} exceeds the hardware DMA transfer limit of \
                 {HARDWARE_MAX_BURST_WORDS} words"
            )),
            _ => Ok(()),
        }
    }
}

impl fmt::Display for StmKnobs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retry={} read={} wb={} order={} cap={}",
            self.retry, self.read_strategy, self.write_back, self.lock_order, self.max_burst_words
        )
    }
}

/// Complete configuration of an STM instance on one DPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StmConfig {
    /// Which STM design to use.
    pub kind: StmKind,
    /// Tier in which STM metadata is allocated.
    pub placement: MetadataPlacement,
    /// Override for the lock table only (the paper's ArrayBench-A/WRAM runs
    /// keep the lock table in MRAM because it does not fit in WRAM).
    pub lock_table_placement: Option<MetadataPlacement>,
    /// Number of entries in the hashed ORec/rw-lock table.
    pub lock_table_entries: u32,
    /// Per-tasklet read-set capacity, in entries.
    pub read_set_capacity: u32,
    /// Per-tasklet write/undo-log capacity, in entries.
    pub write_set_capacity: u32,
    /// The engine knobs (retry, read strategy, write-back, lock order,
    /// burst cap), fixed for the whole run.
    pub knobs: StmKnobs,
}

/// Default coalesced-write-back burst cap, in words (a 512-byte WRAM staging
/// buffer, comfortably under the hardware's 2 KB DMA transfer limit).
pub const DEFAULT_BURST_WORDS: u32 = 64;

/// Largest burst one MRAM DMA transfer can carry: the UPMEM hardware caps a
/// transfer at 2 KB = 256 words. Configuring a larger staging buffer would
/// make the model count single setups for physically impossible transfers.
pub const HARDWARE_MAX_BURST_WORDS: u32 = 256;

impl StmConfig {
    /// Creates a configuration with the library defaults (1024-entry lock
    /// table, 256-entry read set, 64-entry write set, 64-word burst cap).
    pub fn new(kind: StmKind, placement: MetadataPlacement) -> Self {
        StmConfig {
            kind,
            placement,
            lock_table_placement: None,
            lock_table_entries: 1024,
            read_set_capacity: 256,
            write_set_capacity: 64,
            knobs: StmKnobs::default(),
        }
    }

    /// A small WRAM-resident configuration shared by the unit-test suites:
    /// capacities large enough for every micro-scenario, small enough that a
    /// fixture DPU allocates instantly.
    pub fn small_wram(kind: StmKind) -> Self {
        StmConfig::new(kind, MetadataPlacement::Wram)
            .with_lock_table_entries(128)
            .with_read_set_capacity(64)
            .with_write_set_capacity(32)
    }

    /// Sets the engine knobs (the default is [`StmKnobs::default`]).
    ///
    /// # Panics
    ///
    /// Panics if [`StmKnobs::check`] rejects the burst cap.
    pub fn with_knobs(mut self, knobs: StmKnobs) -> Self {
        knobs.check().unwrap_or_else(|why| panic!("{why}"));
        self.knobs = knobs;
        self
    }

    /// Sets the per-tasklet read-set capacity.
    pub fn with_read_set_capacity(mut self, entries: u32) -> Self {
        self.read_set_capacity = entries;
        self
    }

    /// Sets the per-tasklet write/undo-log capacity.
    pub fn with_write_set_capacity(mut self, entries: u32) -> Self {
        self.write_set_capacity = entries;
        self
    }

    /// Sets the lock-table size (ignored by NOrec).
    pub fn with_lock_table_entries(mut self, entries: u32) -> Self {
        self.lock_table_entries = entries;
        self
    }

    /// Places the lock table in a different tier than the rest of the
    /// metadata.
    pub fn with_lock_table_placement(mut self, placement: MetadataPlacement) -> Self {
        self.lock_table_placement = Some(placement);
        self
    }

    /// Tier in which the lock table will be allocated.
    pub fn lock_table_tier(&self) -> Tier {
        self.lock_table_placement.unwrap_or(self.placement).tier()
    }

    /// Tier in which everything except the lock table will be allocated.
    pub fn metadata_tier(&self) -> Tier {
        self.placement.tier()
    }

    /// Words of metadata needed per tasklet (read set + write set), useful
    /// for checking WRAM capacity before allocating.
    pub fn per_tasklet_metadata_words(&self) -> u32 {
        self.read_set_capacity * crate::txslot::READ_ENTRY_WORDS
            + self.write_set_capacity * crate::txslot::WRITE_ENTRY_WORDS
    }

    /// Words of shared metadata (lock table and global words).
    pub fn shared_metadata_words(&self) -> u32 {
        let table = if self.kind.uses_lock_table() { self.lock_table_entries } else { 0 };
        table + 2 // sequence lock / global clock words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_covers_exactly_the_papers_seven_designs() {
        assert_eq!(StmKind::ALL.len(), 7);
        // NOrec is the only NoOrec design and must be CTL + WB + invisible,
        // since the other combinations are struck out in Fig. 2.
        for kind in StmKind::ALL {
            if kind.granularity() == MetadataGranularity::NoOrec {
                assert_eq!(kind, StmKind::Norec);
                assert_eq!(kind.lock_timing(), LockTiming::Commit);
                assert_eq!(kind.write_policy(), WritePolicy::WriteBack);
                assert_eq!(kind.read_visibility(), ReadVisibility::Invisible);
            }
            // Write-through is only viable with encounter-time locking.
            if kind.write_policy() == WritePolicy::WriteThrough {
                assert_eq!(kind.lock_timing(), LockTiming::Encounter);
            }
        }
    }

    #[test]
    fn names_roundtrip_through_parse() {
        for kind in StmKind::ALL {
            assert_eq!(StmKind::parse(kind.name()), Some(kind), "parse({})", kind.name());
        }
        assert_eq!(StmKind::parse("tiny_etlwb"), Some(StmKind::TinyEtlWb));
        assert_eq!(StmKind::parse("VR-CTLWB"), Some(StmKind::VrCtlWb));
        assert_eq!(StmKind::parse("bogus"), None);
    }

    #[test]
    fn placement_maps_to_tiers() {
        assert_eq!(MetadataPlacement::Wram.tier(), Tier::Wram);
        assert_eq!(MetadataPlacement::Mram.tier(), Tier::Mram);
        assert_eq!(MetadataPlacement::Wram.to_string(), "wram");
    }

    #[test]
    fn burst_cap_defaults_and_overrides() {
        let cfg = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram);
        assert_eq!(cfg.knobs.max_burst_words, DEFAULT_BURST_WORDS);
        let knobs = StmKnobs { max_burst_words: 8, ..cfg.knobs };
        assert_eq!(cfg.with_knobs(knobs).knobs.max_burst_words, 8);
        let rendered = "retry=exponential read=batched wb=coalesced order=address-sorted cap=8";
        assert_eq!(knobs.to_string(), rendered);
    }

    #[test]
    fn read_strategy_defaults_to_batched_and_roundtrips_through_parse() {
        let cfg = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram);
        assert_eq!(cfg.knobs.read_strategy, ReadStrategy::Batched);
        let knobs = StmKnobs { read_strategy: ReadStrategy::WordWise, ..cfg.knobs };
        assert_eq!(cfg.with_knobs(knobs).knobs.read_strategy, ReadStrategy::WordWise);
        for strategy in ReadStrategy::ALL {
            assert_eq!(ReadStrategy::parse(strategy.name()), Some(strategy));
        }
        assert_eq!(ReadStrategy::parse("WORD_WISE"), Some(ReadStrategy::WordWise));
        assert_eq!(ReadStrategy::parse("bogus"), None);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_burst_cap_is_rejected() {
        let knobs = StmKnobs { max_burst_words: 0, ..StmKnobs::default() };
        let _ = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram).with_knobs(knobs);
    }

    #[test]
    #[should_panic(expected = "hardware DMA transfer")]
    fn burst_caps_beyond_the_hardware_transfer_limit_are_rejected() {
        let knobs = StmKnobs { max_burst_words: HARDWARE_MAX_BURST_WORDS, ..StmKnobs::default() };
        assert_eq!(knobs.check(), Ok(()), "the hardware limit itself is a legal cap");
        let knobs = StmKnobs { max_burst_words: HARDWARE_MAX_BURST_WORDS + 1, ..knobs };
        let _ = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram).with_knobs(knobs);
    }

    #[test]
    fn small_wram_is_wram_resident_with_reduced_capacities() {
        let cfg = StmConfig::small_wram(StmKind::TinyEtlWb);
        assert_eq!(cfg.metadata_tier(), Tier::Wram);
        assert!(cfg.read_set_capacity < StmConfig::new(cfg.kind, cfg.placement).read_set_capacity);
        assert!(cfg.per_tasklet_metadata_words() * 24 < 64 * 1024 / 8, "24 tasklets fit in WRAM");
    }

    #[test]
    fn lock_table_placement_override() {
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
            .with_lock_table_placement(MetadataPlacement::Mram);
        assert_eq!(cfg.metadata_tier(), Tier::Wram);
        assert_eq!(cfg.lock_table_tier(), Tier::Mram);
        let plain = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram);
        assert_eq!(plain.lock_table_tier(), Tier::Wram);
    }

    #[test]
    fn metadata_word_counts_reflect_capacities() {
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram)
            .with_read_set_capacity(10)
            .with_write_set_capacity(5)
            .with_lock_table_entries(128);
        assert_eq!(
            cfg.per_tasklet_metadata_words(),
            10 * crate::txslot::READ_ENTRY_WORDS + 5 * crate::txslot::WRITE_ENTRY_WORDS
        );
        assert_eq!(cfg.shared_metadata_words(), 130);
        let norec = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram);
        assert_eq!(norec.shared_metadata_words(), 2);
    }

    #[test]
    fn the_coherent_grid_cells_are_exactly_the_papers_seven_designs() {
        let coherent: Vec<TmComposition> =
            TmComposition::all().filter(|c| c.is_coherent()).collect();
        assert_eq!(coherent.len(), 7, "the 3×2×2 grid has exactly 7 unstruck cells");
        for cell in TmComposition::all() {
            match cell.kind() {
                Some(kind) => {
                    assert!(cell.is_coherent(), "{cell} maps to {kind} but is incoherent");
                    assert_eq!(kind.composition(), cell);
                    assert_eq!(cell.rejection_reason(), None);
                }
                None => {
                    assert!(!cell.is_coherent(), "{cell} is coherent but maps to no kind");
                    assert!(cell.rejection_reason().is_some(), "{cell} needs a rejection message");
                }
            }
        }
    }

    #[test]
    fn grid_names_roundtrip_through_both_parsers() {
        for kind in StmKind::ALL {
            assert_eq!(StmKind::parse(&kind.grid_name()), Some(kind), "{}", kind.grid_name());
            assert_eq!(
                TmComposition::parse(&kind.grid_name()),
                Some(kind.composition()),
                "{}",
                kind.grid_name()
            );
        }
        // Grid separators are flexible, like the legacy names.
        assert_eq!(StmKind::parse("OREC_ETL_WB"), Some(StmKind::TinyEtlWb));
        assert_eq!(StmKind::parse("vr ctl wb"), Some(StmKind::VrCtlWb));
        // Incoherent cells parse as compositions (for error messages) but
        // never as kinds.
        let struck = TmComposition::parse("norec-etl-wb").unwrap();
        assert_eq!(struck.kind(), None);
        assert_eq!(StmKind::parse("norec-etl-wb"), None);
        assert_eq!(StmKind::parse("orec-ctl-wt"), None);
    }

    #[test]
    fn retry_policies_default_parse_and_display() {
        let cfg = StmConfig::new(StmKind::Norec, MetadataPlacement::Wram);
        assert_eq!(
            cfg.knobs.retry,
            RetryPolicy::Exponential,
            "default must match legacy behaviour"
        );
        let knobs = StmKnobs { retry: RetryPolicy::Adaptive, ..cfg.knobs };
        assert_eq!(cfg.with_knobs(knobs).knobs.retry, RetryPolicy::Adaptive);
        for policy in RetryPolicy::ALL {
            assert_eq!(RetryPolicy::parse(policy.name()), Some(policy));
        }
        assert_eq!(RetryPolicy::parse("exp"), Some(RetryPolicy::Exponential));
        assert_eq!(RetryPolicy::parse("bogus"), None);
    }

    #[test]
    fn lock_order_defaults_to_address_sorted() {
        let cfg = StmConfig::new(StmKind::TinyEtlWb, MetadataPlacement::Wram);
        assert_eq!(cfg.knobs.lock_order, LockOrder::AddressSorted);
        let knobs = StmKnobs { lock_order: LockOrder::RecordOrder, ..cfg.knobs };
        assert_eq!(cfg.with_knobs(knobs).knobs.lock_order, LockOrder::RecordOrder);
        assert_ne!(LockOrder::RecordOrder.name(), LockOrder::AddressSorted.name());
    }

    #[test]
    fn read_policy_axis_implies_granularity_and_visibility() {
        for kind in StmKind::ALL {
            assert_eq!(kind.read_policy().granularity(), kind.granularity(), "{kind}");
            assert_eq!(kind.read_policy().visibility(), kind.read_visibility(), "{kind}");
        }
    }

    #[test]
    fn only_vr_designs_use_visible_reads() {
        let visible: Vec<_> = StmKind::ALL
            .into_iter()
            .filter(|k| k.read_visibility() == ReadVisibility::Visible)
            .collect();
        assert_eq!(visible, vec![StmKind::VrEtlWt, StmKind::VrEtlWb, StmKind::VrCtlWb]);
    }
}
