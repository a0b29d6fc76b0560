//! Command-line entry point of the experiment harness.
//!
//! ```text
//! pim-exp --figure fig4            # ArrayBench + Linked-List, MRAM metadata
//! pim-exp --figure fig5            # KMeans + Labyrinth, MRAM metadata
//! pim-exp --figure fig6            # normalised peak-throughput distribution
//! pim-exp --figure fig9            # ArrayBench + Linked-List, WRAM metadata
//! pim-exp --figure fig10           # KMeans, WRAM metadata
//! pim-exp --figure fig7            # multi-DPU speed-up curves
//! pim-exp --figure fig8            # speed-up + energy gain at 2500 DPUs
//! pim-exp --figure latency         # local vs CPU-mediated read latency
//! pim-exp --workload array-a --tier wram --tasklets 1,3,5,7,9,11
//! pim-exp --workload array-b --stm norec --executor both   # profile tables
//!                                          # on the simulator AND on threads
//! ```
//!
//! `--scale` (default 0.25) shrinks every workload proportionally so a full
//! figure regenerates in minutes; use `--scale 1.0` for the paper-sized
//! runs.

use pim_exp::cache::SimCache;
use pim_exp::design_space::{BurstSweep, DesignSpaceSweep, SweepOptions};
use pim_exp::fleet::{FleetSweep, FleetSweepOptions, DEFAULT_FLEET_DPUS, DEFAULT_SKEW_THETAS};
use pim_exp::grid::{GridOptions, GridSearch};
use pim_exp::json::{fleet_to_json, grid_to_json, service_to_json, sweeps_to_json};
use pim_exp::latency::LatencyComparison;
use pim_exp::multi_dpu::{figure8_table, MultiDpuBenchmark, MultiDpuStudy};
use pim_exp::peak::PeakDistribution;
use pim_exp::pool::WorkerPool;
use pim_exp::service::{
    ServiceFleetKnobs, ServiceSweep, ServiceSweepOptions, DEFAULT_SERVICE_RATES,
};
use pim_fleet::RebalancePolicy;
use pim_service::RequestMix;
use pim_sim::KeyDist;
use pim_stm::{MetadataPlacement, ReadStrategy, RetryPolicy, StmKind, TmComposition, TunePolicy};
use pim_workloads::spec::Executor;
use pim_workloads::{RoutingPolicy, Workload};
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Options {
    /// `--help`: print the usage and do nothing else.
    help: bool,
    figure: Option<String>,
    fleet: bool,
    grid: bool,
    service: bool,
    /// `--arrival`: the service arrival-process shape.
    arrival: Option<String>,
    /// `--rate`: the service offered-rate ladder (requests/second).
    rates: Option<Vec<f64>>,
    /// `--mix`: the service get:put:transfer weights.
    mix: Option<RequestMix>,
    /// `--skew`: the service key distribution.
    skew: Option<KeyDist>,
    workload: Option<Workload>,
    stm: Option<StmKind>,
    placement: MetadataPlacement,
    /// Whether `--tier` was given explicitly (the service mode defaults to
    /// WRAM metadata, unlike the sweeps' MRAM default; figures reject it).
    tier_set: bool,
    executors: Vec<Executor>,
    tasklets: Vec<usize>,
    /// `--dpus`, when given; fig7's analytic curve and the fleet sweep have
    /// different defaults.
    dpus: Option<Vec<usize>>,
    routing: Option<RoutingPolicy>,
    skew_thetas: Option<Vec<f64>>,
    rebalance: Option<RebalancePolicy>,
    overlap: bool,
    skew_phases: Option<u32>,
    scale: f64,
    seed: u64,
    repeat: usize,
    read_strategy: ReadStrategy,
    retry: RetryPolicy,
    tune: TunePolicy,
    record_words: Option<u32>,
    burst_words: Option<Vec<u32>>,
    json_out: Option<String>,
    /// `--workers`: the one worker budget shared by the outer experiment
    /// fan-out and the fleet's inner per-shard host workers (0 = all
    /// available cores).
    workers: usize,
    cache_dir: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            help: false,
            figure: None,
            fleet: false,
            grid: false,
            service: false,
            arrival: None,
            rates: None,
            mix: None,
            skew: None,
            workload: None,
            stm: None,
            placement: MetadataPlacement::Mram,
            tier_set: false,
            executors: vec![Executor::Simulator],
            tasklets: vec![1, 3, 5, 7, 9, 11],
            dpus: None,
            routing: None,
            skew_thetas: None,
            rebalance: None,
            overlap: false,
            skew_phases: None,
            scale: 0.25,
            seed: 42,
            repeat: 1,
            read_strategy: ReadStrategy::default(),
            retry: RetryPolicy::default(),
            tune: TunePolicy::Static,
            record_words: None,
            burst_words: None,
            json_out: None,
            workers: 0,
            cache_dir: None,
        }
    }
}

impl Options {
    /// DPU counts of fig7's analytic speed-up curve (fig8 fixes 2 500).
    fn analytic_dpus(&self) -> Vec<usize> {
        self.dpus.clone().unwrap_or_else(|| vec![1, 250, 500, 1000, 1500, 2000, 2500])
    }

    /// DPU counts of the measured `--fleet` scaling curve.
    fn fleet_dpus(&self) -> Vec<usize> {
        self.dpus.clone().unwrap_or_else(|| DEFAULT_FLEET_DPUS.to_vec())
    }

    /// The sweep knobs shared by every design-space run of this invocation.
    fn sweep_options(&self, executor: Executor) -> SweepOptions {
        SweepOptions {
            scale: self.scale,
            seed: self.seed,
            executor,
            repeat: self.repeat,
            read_strategy: self.read_strategy,
            retry: self.retry,
            tune: self.tune,
            record_words: self.record_words,
            ..SweepOptions::default()
        }
    }

    /// The worker pool fanning out this invocation's independent jobs.
    fn worker_pool(&self) -> WorkerPool {
        WorkerPool::new(self.workers)
    }

    /// The simulation cache of this invocation: in-memory always, plus the
    /// `--cache-dir` on-disk tier when requested.
    fn sim_cache(&self) -> Result<SimCache, String> {
        match &self.cache_dir {
            Some(dir) => {
                SimCache::with_dir(dir).map_err(|e| format!("cannot open --cache-dir {dir}: {e}"))
            }
            None => Ok(SimCache::in_memory()),
        }
    }
}

fn parse_executors(value: &str) -> Result<Vec<Executor>, String> {
    match value {
        "sim" | "simulator" => Ok(vec![Executor::Simulator]),
        "threaded" => Ok(vec![Executor::Threaded]),
        "both" => Ok(vec![Executor::Simulator, Executor::Threaded]),
        other => Err(format!("unknown executor {other} (expected simulator|threaded|both)")),
    }
}

fn parse_list<T: std::str::FromStr>(value: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    value
        .split(',')
        .map(|part| part.trim().parse::<T>().map_err(|e| format!("bad list entry {part:?}: {e}")))
        .collect()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().cloned().ok_or_else(|| format!("missing value after {arg}"));
        match arg.as_str() {
            "--figure" => options.figure = Some(value()?),
            "--workload" => {
                let name = value()?;
                options.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--stm" => {
                let name = value()?;
                options.stm = Some(parse_stm(&name)?);
            }
            "--tier" => {
                let name = value()?;
                options.placement = match name.as_str() {
                    "wram" => MetadataPlacement::Wram,
                    "mram" => MetadataPlacement::Mram,
                    other => return Err(format!("unknown tier {other} (expected wram|mram)")),
                };
                options.tier_set = true;
            }
            "--executor" => options.executors = parse_executors(&value()?)?,
            "--tasklets" => options.tasklets = parse_list(&value()?)?,
            "--dpus" => options.dpus = Some(parse_list(&value()?)?),
            "--fleet" => options.fleet = true,
            "--grid" => options.grid = true,
            "--service" => options.service = true,
            "--arrival" => options.arrival = Some(value()?),
            "--rate" => {
                let rates: Vec<f64> = parse_list(&value()?)?;
                if rates.is_empty() {
                    return Err("--rate needs at least one offered rate".to_string());
                }
                if rates.iter().any(|r| !r.is_finite() || *r <= 0.0) {
                    return Err("--rate values must be finite and positive".to_string());
                }
                options.rates = Some(rates);
            }
            "--mix" => options.mix = Some(RequestMix::parse(&value()?)?),
            "--skew" => options.skew = Some(KeyDist::parse(&value()?)?),
            // Turns tuning on; a window `--tune-window` already set stays.
            "--tune" if options.tune.is_enabled() => {}
            "--tune" => options.tune = TunePolicy::windowed(),
            "--tune-window" => {
                let window: u32 =
                    value()?.parse().map_err(|e| format!("bad --tune-window value: {e}"))?;
                if window == 0 {
                    return Err("--tune-window needs at least one transaction".to_string());
                }
                options.tune = TunePolicy::Windowed { window };
            }
            "--routing" => options.routing = Some(RoutingPolicy::parse(&value()?)?),
            "--skew-thetas" => {
                let thetas: Vec<f64> = parse_list(&value()?)?;
                if thetas.iter().any(|t| *t < 0.0 || !t.is_finite()) {
                    return Err("--skew-thetas values must be finite and >= 0".to_string());
                }
                options.skew_thetas = Some(thetas);
            }
            "--rebalance" => options.rebalance = Some(RebalancePolicy::parse(&value()?)?),
            "--overlap" => options.overlap = true,
            "--skew-phases" => {
                let phases: u32 =
                    value()?.parse().map_err(|e| format!("bad --skew-phases value: {e}"))?;
                if phases == 0 {
                    return Err("--skew-phases needs at least one phase".to_string());
                }
                options.skew_phases = Some(phases);
            }
            "--scale" => {
                options.scale = value()?.parse().map_err(|e| format!("bad --scale value: {e}"))?
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("bad --seed value: {e}"))?
            }
            "--repeat" => {
                options.repeat =
                    value()?.parse().map_err(|e| format!("bad --repeat value: {e}"))?;
                if options.repeat == 0 {
                    return Err("--repeat needs at least one run per cell".to_string());
                }
            }
            "--read-strategy" => {
                let name = value()?;
                options.read_strategy = ReadStrategy::parse(&name).ok_or_else(|| {
                    format!("unknown read strategy {name} (expected word-wise|batched)")
                })?;
            }
            "--retry" => {
                let name = value()?;
                options.retry = RetryPolicy::parse(&name).ok_or_else(|| {
                    format!("unknown retry policy {name} (expected fixed|exponential|adaptive)")
                })?;
            }
            "--record-words" => {
                let words =
                    value()?.parse().map_err(|e| format!("bad --record-words value: {e}"))?;
                if words == 0 {
                    return Err("--record-words needs at least one word per record".to_string());
                }
                // The flag only affects ArrayBench, whose read budget is a
                // compile-time constant — validate here so an out-of-range
                // value fails as a usage error, not a mid-sweep panic.
                let limit = pim_workloads::array_bench::ArrayBenchConfig::workload_a().reads_per_tx;
                if words > limit {
                    return Err(format!(
                        "--record-words {words} exceeds ArrayBench's read budget of {limit} \
                         entries per transaction (records must tile the read phase)"
                    ));
                }
                options.record_words = Some(words);
            }
            "--burst-words" => {
                let caps: Vec<u32> = parse_list(&value()?)?;
                if caps.is_empty() {
                    return Err("--burst-words needs at least one cap".to_string());
                }
                if caps.contains(&0) {
                    return Err("--burst-words caps must be at least one word".to_string());
                }
                let limit = pim_stm::config::HARDWARE_MAX_BURST_WORDS;
                if let Some(&bad) = caps.iter().find(|&&cap| cap > limit) {
                    return Err(format!(
                        "--burst-words cap {bad} exceeds the hardware DMA transfer limit \
                         of {limit} words"
                    ));
                }
                options.burst_words = Some(caps);
            }
            "--json-out" => options.json_out = Some(value()?),
            "--workers" => {
                options.workers =
                    value()?.parse().map_err(|e| format!("bad --workers value: {e}"))?;
            }
            "--cache-dir" => options.cache_dir = Some(value()?),
            "--help" | "-h" => options.help = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(options)
}

fn usage() -> String {
    "usage: pim-exp [--figure fig4|fig5|fig6|fig7|fig8|fig9|fig10|latency]\n\
     \x20              [--fleet] [--routing route-to-owner|abort-retry]\n\
     \x20              [--skew-thetas 0.0,0.9,...] [--skew-phases <n>]\n\
     \x20              [--rebalance off|threshold[:f]|periodic[:k]] [--overlap]\n\
     \x20              [--grid] [--tune] [--tune-window <n>]\n\
     \x20              [--service] [--arrival poisson|bursty[:b[:d]]|closed-loop]\n\
     \x20              [--rate 25000,50000,...] [--mix g:p:t] [--skew uniform|zipf:t]\n\
     \x20              [--workload <name>] [--stm <kind>] [--tier wram|mram]\n\
     \x20              [--executor simulator|threaded|both] [--repeat <n>]\n\
     \x20              [--read-strategy word-wise|batched] [--record-words <n>]\n\
     \x20              [--retry fixed|exponential|adaptive]\n\
     \x20              [--burst-words 8,16,64,...] [--json-out <path>]\n\
     \x20              [--tasklets 1,3,5,...] [--dpus 1,500,...]\n\
     \x20              [--scale <f>] [--seed <n>]\n\
     \x20              [--workers <n>] [--cache-dir <path>]\n\
     \x20 --fleet runs the measured multi-DPU sharded runtime instead of a\n\
     \x20 figure: a weak-scaling curve over --dpus (default 4,16,64,256)\n\
     \x20 plus a key-skew sweep at the largest fleet (--skew-thetas,\n\
     \x20 default 0,0.6,0.9,1.2), honouring --stm, --tier, --routing,\n\
     \x20 --scale, --seed, --repeat and --json-out. --rebalance recuts the\n\
     \x20 range partition toward the observed key load (each skew point\n\
     \x20 then also runs the static baseline and reports the recovered\n\
     \x20 throughput), --overlap double-buffers rounds so scatter/routing\n\
     \x20 hides behind the previous round's compute, and --skew-phases\n\
     \x20 rotates the hot region mid-stream so rebalancing has a moving\n\
     \x20 target to chase.\n\
     \x20 --service measures latency under offered load instead of\n\
     \x20 capacity: an open-loop --arrival process (poisson, bursty with\n\
     \x20 optional burst size and duty cycle, or the closed-loop baseline)\n\
     \x20 offers each --rate of the ladder (default 25k,50k,100k,200k\n\
     \x20 req/s) against the STM-backed hashmap + journal-queue service\n\
     \x20 structures, under a --mix of get:put:transfer weights (default\n\
     \x20 80:15:5) and a --skew key distribution (uniform or zipf:theta).\n\
     \x20 Every committed request is stamped arrival -> dispatch -> first\n\
     \x20 attempt -> commit, so the report separates queueing delay from\n\
     \x20 STM service time (p50/p95/p99/max, in the executor's native\n\
     \x20 unit). Honours --stm, --tier (default wram), --tasklets (the\n\
     \x20 largest count), --executor, --scale, --seed, --repeat (lower-\n\
     \x20 median collapse + CI95 spread) and --json-out. With --fleet the\n\
     \x20 same stream is sharded across --dpus DPUs (largest count,\n\
     \x20 default 4) with arrivals routed by key ownership; --rebalance\n\
     \x20 and --overlap exercise shard rebalancing and round pipelining\n\
     \x20 under load.\n\
     \x20 A --workload/--stm pair reruns a single cell of the design-space\n\
     \x20 grid (e.g. --workload array-b --stm norec --tasklets 4). --stm\n\
     \x20 accepts legacy names (norec, tiny-etlwb, vr-ctlwb, ...) and\n\
     \x20 grid names composing the policy axes <read>-<timing>-<write>,\n\
     \x20 e.g. orec-etl-wb, vr-ctl-wb, norec-ctl-wb. --retry selects the\n\
     \x20 retry axis: fixed window, exponential (default), or adaptive\n\
     \x20 back-off tuned from the per-reason abort histogram.\n\
     \x20 --executor threaded|both pipes the same profile tables (phase\n\
     \x20 breakdown, abort reasons) through the threaded executor, and\n\
     \x20 --repeat N keeps the median-of-N run per cell and reports the\n\
     \x20 min/median/max spread over the runs (for noisy wall-clock\n\
     \x20 cells). --burst-words sweeps the DMA burst cap and reports MRAM\n\
     \x20 DMA setups per commit under each cap; --json-out dumps every\n\
     \x20 swept cell's execution profile as JSON.\n\
     \x20 --record-words overrides ArrayBench's read-phase record grouping\n\
     \x20 (1 = the paper's original scattered single-entry reads; other\n\
     \x20 workloads ignore it).\n\
     \x20 --grid runs the full-grid offline search: every coherent STM\n\
     \x20 composition x retry x read-strategy x write-back x lock-order x\n\
     \x20 burst-cap combination of one --workload (default array-b) and\n\
     \x20 --tier, ranked by throughput, with the static defaults' gap to\n\
     \x20 the per-workload best called out. It honours --scale, --seed,\n\
     \x20 --tasklets (largest count), --burst-words (the cap ladder),\n\
     \x20 --record-words and --json-out.\n\
     \x20 --tune turns on the online self-tuner (windowed, one decision\n\
     \x20 per abort-histogram window; --tune-window overrides the window\n\
     \x20 size) on sweeps and on the fleet, where every shard DPU tunes\n\
     \x20 its own knobs independently. Tuner decisions appear as\n\
     \x20 cycle-stamped simulator events and in the JSON dump.\n\
     \x20 --workers N caps the one worker budget shared by the experiment\n\
     \x20 fan-out (grid cells, sweep cells, --repeat iterations, fleet\n\
     \x20 points) and the fleet's inner per-shard host workers (0 = all\n\
     \x20 cores, the default); any N yields bit-identical output. Sweeps\n\
     \x20 on the threaded executor stay serial regardless (wall-clock\n\
     \x20 cells must not contend for cores). --cache-dir adds an on-disk\n\
     \x20 tier to the content-addressed simulation cache so repeated\n\
     \x20 identical cells are read back instead of re-simulated; it\n\
     \x20 applies to --grid and to the design-space sweeps, never to the\n\
     \x20 measured --fleet runtime. A [grid i/n] or [design-space] line\n\
     \x20 on stderr means that cell is simulating: cells replayed from\n\
     \x20 the cache print nothing, and the grid's simulation-cache panel\n\
     \x20 (the JSON dump's cache object) carries the hit count."
        .to_string()
}

/// Parses `--stm`: legacy kind names and grid-style composition names both
/// resolve; a *parseable but incoherent* grid cell (a struck-out cell of
/// Fig. 2) is rejected with the reason it is struck out.
fn parse_stm(name: &str) -> Result<StmKind, String> {
    if let Some(kind) = StmKind::parse(name) {
        return Ok(kind);
    }
    if let Some(composition) = TmComposition::parse(name) {
        let reason = composition.rejection_reason().unwrap_or("not a coherent design");
        return Err(format!("--stm {name} names a struck-out cell of the policy grid: {reason}"));
    }
    Err(format!(
        "unknown STM design {name} (legacy: norec, tiny-etlwb, vr-ctlwb, ...; \
         grid: orec-etl-wb, vr-ctl-wb, norec-ctl-wb, ...)"
    ))
}

fn print_sweep(
    workload: Workload,
    placement: MetadataPlacement,
    options: &Options,
    pool: &WorkerPool,
    cache: &SimCache,
    collected: &mut Vec<DesignSpaceSweep>,
) {
    let kinds = match options.stm {
        Some(kind) => vec![kind],
        None => pim_stm::StmKind::ALL.to_vec(),
    };
    for &executor in &options.executors {
        println!("== {workload} ({} metadata, {}, {executor}) ==", placement, workload.figure());
        let sweep = DesignSpaceSweep::run_with(
            workload,
            placement,
            &kinds,
            &options.tasklets,
            options.sweep_options(executor),
            pool,
            cache,
        );
        if executor == Executor::Simulator {
            println!("{}", sweep.throughput_table());
        }
        println!("{}", sweep.abort_table());
        println!("{}", sweep.breakdown_table());
        println!("{}", sweep.abort_reason_table());
        println!("{}", sweep.profile_table());
        if sweep.has_spread() {
            println!("{}", sweep.repeat_spread_table());
        }
        if let Some(caps) = &options.burst_words {
            let tasklets = sweep.points.iter().map(|p| p.tasklets).max().unwrap_or(1);
            // A cap equal to the base sweep's hits the shared simulation
            // cache cell-for-cell instead of re-running.
            let burst = BurstSweep::run(
                workload,
                placement,
                &kinds,
                tasklets,
                caps,
                options.sweep_options(executor),
                pool,
                cache,
            );
            println!("{}", burst.table());
            // The per-cap cells are full sweeps; --json-out dumps them too —
            // except a cap equal to the base sweep's, whose cells would be
            // indistinguishable duplicates of rows the base sweep already
            // contributes.
            collected.extend(
                burst.sweeps.into_iter().filter(|s| s.max_burst_words != sweep.max_burst_words),
            );
        }
        collected.push(sweep);
    }
}

/// Writes every swept cell's profile as JSON to `path`.
fn write_json(path: &str, sweeps: &[DesignSpaceSweep]) -> Result<(), String> {
    let json = sweeps_to_json(sweeps).to_string();
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "[json-out] wrote {} cell profile(s) to {path}",
        sweeps.iter().map(|s| s.points.len()).sum::<usize>()
    );
    Ok(())
}

/// Runs the `--fleet` sweep and prints its three panels; returns the sweep
/// for `--json-out`.
fn run_fleet(options: &Options) -> Result<FleetSweep, String> {
    for (flag, set) in [
        ("--figure", options.figure.is_some()),
        ("--workload", options.workload.is_some()),
        ("--executor", options.executors != [Executor::Simulator]),
        ("--burst-words", options.burst_words.is_some()),
        ("--record-words", options.record_words.is_some()),
        ("--read-strategy", options.read_strategy != ReadStrategy::default()),
        ("--retry", options.retry != RetryPolicy::default()),
        // The fleet is a measured runtime, not a memoisable pure function
        // of its spec — its cells never enter the simulation cache.
        ("--cache-dir", options.cache_dir.is_some()),
    ] {
        if set {
            return Err(format!("{flag} does not apply to the --fleet sweep"));
        }
    }
    let fleet_options = FleetSweepOptions {
        kind: options.stm.unwrap_or(StmKind::Norec),
        placement: options.placement,
        routing: options.routing.unwrap_or(RoutingPolicy::RouteToOwner),
        scale: options.scale,
        seed: options.seed,
        thetas: options.skew_thetas.clone().unwrap_or_else(|| DEFAULT_SKEW_THETAS.to_vec()),
        rebalance: options.rebalance.unwrap_or(RebalancePolicy::Off),
        overlap: options.overlap,
        repeat: options.repeat,
        phases: options.skew_phases.unwrap_or(1),
        tune: options.tune,
    };
    let dpus = options.fleet_dpus();
    if dpus.is_empty() || dpus.contains(&0) {
        return Err("--fleet needs a non-empty --dpus list of positive counts".to_string());
    }
    println!("== fleet: measured multi-DPU sharded runtime ==");
    let sweep = FleetSweep::run_with(&dpus, fleet_options, &options.worker_pool());
    println!("{}", sweep.scaling_table());
    println!("{}", sweep.profile_table());
    if sweep.options.tune != TunePolicy::Static {
        println!("{}", sweep.tuning_table());
    }
    if sweep.options.overlap {
        println!("{}", sweep.pipeline_table());
    }
    if !sweep.skew.is_empty() {
        println!("{}", sweep.skew_table());
    }
    if let Some(rounds) = sweep.rebalance_rounds_table() {
        println!("{rounds}");
    }
    Ok(sweep)
}

/// Runs the `--grid` full-grid search and prints its two panels; returns
/// the search for `--json-out`.
fn run_grid(options: &Options) -> Result<GridSearch, String> {
    for (flag, set) in [
        ("--figure", options.figure.is_some()),
        ("--fleet", options.fleet),
        ("--executor", options.executors != [Executor::Simulator]),
        ("--repeat", options.repeat > 1),
        ("--routing", options.routing.is_some()),
        ("--skew-thetas", options.skew_thetas.is_some()),
        ("--skew-phases", options.skew_phases.is_some()),
        ("--rebalance", options.rebalance.is_some()),
        ("--overlap", options.overlap),
        // The grid enumerates these axes itself; a filter would silently
        // shrink the space the mode exists to cover.
        ("--stm", options.stm.is_some()),
        ("--read-strategy", options.read_strategy != ReadStrategy::default()),
        ("--retry", options.retry != RetryPolicy::default()),
        ("--tune", options.tune != TunePolicy::Static),
    ] {
        if set {
            return Err(format!("{flag} does not apply to the --grid search"));
        }
    }
    let workload = options.workload.unwrap_or(Workload::ArrayB);
    let defaults = GridOptions::default();
    let grid_options = GridOptions {
        scale: options.scale,
        seed: options.seed,
        // One tasklet count per grid; the largest requested is the
        // contended end where the knobs matter most.
        tasklets: options.tasklets.iter().copied().max().unwrap_or(defaults.tasklets),
        caps: options.burst_words.clone().unwrap_or(defaults.caps),
        record_words: options.record_words,
    };
    println!("== grid: full design-space search ==");
    let cache = options.sim_cache()?;
    let search = GridSearch::run_with(
        workload,
        options.placement,
        grid_options,
        &options.worker_pool(),
        &cache,
    );
    println!("{}", search.ranked_table(12));
    println!("{}", search.defaults_table());
    println!("{}", search.cache_table());
    Ok(search)
}

/// Runs the `--service` latency-under-load sweep and prints its tables;
/// returns the sweep for `--json-out`.
fn run_service_mode(options: &Options) -> Result<ServiceSweep, String> {
    for (flag, set) in [
        ("--figure", options.figure.is_some()),
        ("--workload", options.workload.is_some()),
        ("--grid", options.grid),
        ("--burst-words", options.burst_words.is_some()),
        ("--record-words", options.record_words.is_some()),
        ("--read-strategy", options.read_strategy != ReadStrategy::default()),
        ("--retry", options.retry != RetryPolicy::default()),
        ("--tune", options.tune != TunePolicy::Static),
        ("--routing", options.routing.is_some()),
        ("--skew-thetas", options.skew_thetas.is_some()),
        ("--skew-phases", options.skew_phases.is_some()),
        ("--workers", options.workers != 0),
        // A latency cell is measured end to end — queueing delay depends on
        // the whole stream's interleaving — so it is never memoised.
        ("--cache-dir", options.cache_dir.is_some()),
    ] {
        if set {
            return Err(format!("{flag} does not apply to the --service mode"));
        }
    }
    let fleet = if options.fleet {
        if options.executors != [Executor::Simulator] {
            return Err(
                "--executor does not apply to --service --fleet (shards run on the simulator)"
                    .to_string(),
            );
        }
        let shards = match &options.dpus {
            None => 4,
            Some(dpus) => match dpus.iter().copied().max() {
                Some(n) if n >= 1 && n <= u32::MAX as usize => n as u32,
                _ => return Err("--dpus needs a positive shard count".to_string()),
            },
        };
        Some(ServiceFleetKnobs {
            shards,
            rebalance: options.rebalance.unwrap_or(RebalancePolicy::Off),
            overlap: options.overlap,
        })
    } else {
        for (flag, set) in [
            ("--dpus", options.dpus.is_some()),
            ("--rebalance", options.rebalance.is_some()),
            ("--overlap", options.overlap),
        ] {
            if set {
                return Err(format!(
                    "{flag} applies to --service --fleet, not to single-DPU --service"
                ));
            }
        }
        None
    };
    let defaults = ServiceSweepOptions::default();
    let sweep_options = ServiceSweepOptions {
        arrival: options.arrival.clone().unwrap_or(defaults.arrival),
        rates: options.rates.clone().unwrap_or_else(|| DEFAULT_SERVICE_RATES.to_vec()),
        mix: options.mix.unwrap_or(defaults.mix),
        dist: options.skew.unwrap_or(defaults.dist),
        kind: options.stm.unwrap_or(defaults.kind),
        // The service layer defaults to WRAM metadata (the low-latency
        // placement); --tier overrides.
        placement: if options.tier_set { options.placement } else { defaults.placement },
        tasklets: options.tasklets.iter().copied().max().unwrap_or(defaults.tasklets),
        scale: options.scale,
        seed: options.seed,
        repeat: options.repeat,
        executors: options.executors.clone(),
    };
    println!("== service: latency under offered load ==");
    let sweep = ServiceSweep::run(sweep_options, fleet)?;
    if sweep.fleet.is_some() {
        println!("{}", sweep.fleet_table());
    } else {
        println!("{}", sweep.latency_table());
    }
    if sweep.has_spread() {
        println!("{}", sweep.spread_table());
    }
    Ok(sweep)
}

fn run_figure(
    figure: &str,
    options: &Options,
    collected: &mut Vec<DesignSpaceSweep>,
) -> Result<(), String> {
    let is_sweep_figure = matches!(figure, "fig4" | "fig5" | "fig9" | "fig10");
    // The fleet-only flags belong to --fleet, not to any figure.
    for (flag, set) in [
        ("--routing", options.routing.is_some()),
        ("--skew-thetas", options.skew_thetas.is_some()),
        ("--skew-phases", options.skew_phases.is_some()),
        ("--rebalance", options.rebalance.is_some()),
        ("--overlap", options.overlap),
    ] {
        if set {
            return Err(format!("{flag} applies to the --fleet sweep, not to {figure}"));
        }
    }
    // Every figure fixes its own placements, and only fig7's speed-up curve
    // reads a DPU-count list.
    if options.tier_set {
        return Err(format!(
            "--tier applies to --workload, --grid, --fleet and --service, not to {figure}"
        ));
    }
    if options.dpus.is_some() && figure != "fig7" {
        return Err(format!(
            "--dpus applies to fig7, --fleet and --service --fleet, not to {figure}"
        ));
    }
    // Only the per-design sweep figures can honour the sweep-level flags;
    // error out instead of silently ignoring them.
    if options.stm.is_some() && !is_sweep_figure {
        return Err(format!(
            "--stm applies to the design-space sweeps (fig4/fig5/fig9/fig10 or --workload), \
             not to {figure}"
        ));
    }
    if options.executors != [Executor::Simulator] && !is_sweep_figure {
        return Err(format!(
            "--executor applies to the design-space sweeps (fig4/fig5/fig9/fig10 or \
             --workload), not to {figure}"
        ));
    }
    for (flag, set) in [
        ("--burst-words", options.burst_words.is_some()),
        ("--json-out", options.json_out.is_some()),
        ("--repeat", options.repeat > 1),
        ("--read-strategy", options.read_strategy != ReadStrategy::default()),
        ("--retry", options.retry != RetryPolicy::default()),
        ("--tune", options.tune != TunePolicy::Static),
        ("--record-words", options.record_words.is_some()),
        ("--cache-dir", options.cache_dir.is_some()),
    ] {
        if set && !is_sweep_figure {
            return Err(format!(
                "{flag} applies to the design-space sweeps (fig4/fig5/fig9/fig10 or \
                 --workload), not to {figure}"
            ));
        }
    }
    // One pool and one cache span the whole figure, so its workloads run
    // under a single worker budget and repeated cells (e.g. a burst cap
    // equal to the base sweep's) hit instead of re-simulating.
    let pool = options.worker_pool();
    let cache = options.sim_cache()?;
    match figure {
        "fig4" => {
            for workload in [Workload::ArrayA, Workload::ArrayB, Workload::ListLc, Workload::ListHc]
            {
                print_sweep(workload, MetadataPlacement::Mram, options, &pool, &cache, collected);
            }
        }
        "fig5" => {
            for workload in
                [Workload::KmeansLc, Workload::KmeansHc, Workload::LabyrinthS, Workload::LabyrinthL]
            {
                print_sweep(workload, MetadataPlacement::Mram, options, &pool, &cache, collected);
            }
        }
        "fig9" => {
            for workload in [Workload::ArrayA, Workload::ArrayB, Workload::ListLc, Workload::ListHc]
            {
                print_sweep(workload, MetadataPlacement::Wram, options, &pool, &cache, collected);
            }
        }
        "fig10" => {
            for workload in [Workload::KmeansLc, Workload::KmeansHc] {
                print_sweep(workload, MetadataPlacement::Wram, options, &pool, &cache, collected);
            }
        }
        "fig6" => {
            for placement in [MetadataPlacement::Mram, MetadataPlacement::Wram] {
                println!("== Fig. 6: normalised peak throughput ({placement} metadata) ==");
                let dist = PeakDistribution::run(
                    placement,
                    &Workload::FIGURE_4_5,
                    &options.tasklets,
                    options.scale,
                    options.seed,
                );
                println!("{}", dist.table());
            }
        }
        "fig7" => {
            for benchmark in [
                MultiDpuBenchmark::KmeansLc,
                MultiDpuBenchmark::KmeansHc,
                MultiDpuBenchmark::LabyrinthS,
                MultiDpuBenchmark::LabyrinthM,
                MultiDpuBenchmark::LabyrinthL,
            ] {
                println!("== Fig. 7: speed-up vs CPU ({benchmark}) ==");
                let study = MultiDpuStudy::run_with_cache(
                    benchmark,
                    &options.analytic_dpus(),
                    options.scale,
                    options.seed,
                    &cache,
                );
                println!("{}", study.speedup_table());
            }
        }
        "fig8" => {
            println!("== Fig. 8: speed-up and energy gain at {} DPUs ==", 2500);
            let studies: Vec<MultiDpuStudy> = MultiDpuBenchmark::ALL
                .into_iter()
                .map(|b| {
                    MultiDpuStudy::run_with_cache(b, &[2500], options.scale, options.seed, &cache)
                })
                .collect();
            println!("{}", figure8_table(&studies));
        }
        "latency" => {
            println!("== §3.1: local vs CPU-mediated word read ==");
            println!("{}", LatencyComparison::measure().table());
        }
        other => return Err(format!("unknown figure {other}\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if options.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if !options.service {
        for (flag, set) in [
            ("--arrival", options.arrival.is_some()),
            ("--rate", options.rates.is_some()),
            ("--mix", options.mix.is_some()),
            ("--skew", options.skew.is_some()),
        ] {
            if set {
                eprintln!("{flag} applies to the --service mode");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut collected = Vec::new();
    let result = if options.service {
        run_service_mode(&options).and_then(|sweep| match &options.json_out {
            Some(path) => {
                let json = service_to_json(&sweep).to_string();
                std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!(
                    "[json-out] wrote {} service point(s) to {path}",
                    sweep.points.len() + sweep.fleet_points.len()
                );
                Ok(())
            }
            None => Ok(()),
        })
    } else if options.grid {
        run_grid(&options).and_then(|search| match &options.json_out {
            Some(path) => {
                let json = grid_to_json(&search).to_string();
                std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("[json-out] wrote {} grid cell(s) to {path}", search.cells.len());
                Ok(())
            }
            None => Ok(()),
        })
    } else if options.fleet {
        run_fleet(&options).and_then(|sweep| match &options.json_out {
            Some(path) => {
                let json = fleet_to_json(&sweep).to_string();
                std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!(
                    "[json-out] wrote {} fleet point(s) to {path}",
                    sweep.scaling.len() + sweep.skew.len()
                );
                Ok(())
            }
            None => Ok(()),
        })
    } else {
        let result = if let Some(figure) = &options.figure {
            run_figure(figure, &options, &mut collected)
        } else if let Some(workload) = options.workload {
            for (flag, set) in [
                ("--dpus", options.dpus.is_some()),
                ("--routing", options.routing.is_some()),
                ("--skew-thetas", options.skew_thetas.is_some()),
                ("--skew-phases", options.skew_phases.is_some()),
                ("--rebalance", options.rebalance.is_some()),
                ("--overlap", options.overlap),
            ] {
                if set {
                    eprintln!("{flag} applies to the --fleet sweep, not to a workload sweep");
                    return ExitCode::FAILURE;
                }
            }
            match options.sim_cache() {
                Ok(cache) => {
                    let pool = options.worker_pool();
                    print_sweep(
                        workload,
                        options.placement,
                        &options,
                        &pool,
                        &cache,
                        &mut collected,
                    );
                }
                Err(message) => {
                    eprintln!("{message}");
                    return ExitCode::FAILURE;
                }
            }
            Ok(())
        } else {
            Err(usage())
        };
        result.and_then(|()| match &options.json_out {
            Some(path) if !collected.is_empty() => write_json(path, &collected),
            _ => Ok(()),
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argument_parsing_covers_the_main_flags() {
        let args: Vec<String> = [
            "--figure",
            "fig4",
            "--tier",
            "wram",
            "--tasklets",
            "1,2,3",
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--dpus",
            "1,10",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let options = parse_args(&args).unwrap();
        assert_eq!(options.figure.as_deref(), Some("fig4"));
        assert_eq!(options.stm, None);
        assert_eq!(options.placement, MetadataPlacement::Wram);
        assert_eq!(options.tasklets, vec![1, 2, 3]);
        assert_eq!(options.dpus, Some(vec![1, 10]));
        assert!((options.scale - 0.5).abs() < 1e-12);
        assert_eq!(options.seed, 7);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse_args(&["--tier".into(), "sram".into()]).is_err());
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--stm".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert!(parse_args(&["--scale".into()]).is_err());
    }

    #[test]
    fn stm_filter_parses_cli_kind_names() {
        let args: Vec<String> = ["--workload", "array-b", "--stm", "tiny-etlwb"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_args(&args).unwrap();
        assert_eq!(options.workload, Some(Workload::ArrayB));
        assert_eq!(options.stm, Some(StmKind::TinyEtlWb));
    }

    #[test]
    fn stm_filter_accepts_grid_names_and_explains_struck_cells() {
        let args: Vec<String> = ["--workload", "array-b", "--stm", "orec-etl-wb"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_args(&args).unwrap().stm, Some(StmKind::TinyEtlWb));
        // A parseable but incoherent cell gets a "why" message, not a bare
        // "unknown".
        let err = parse_args(&["--stm".into(), "norec-etl-wb".into()]).unwrap_err();
        assert!(err.contains("struck-out"), "{err}");
        assert!(err.contains("commit-time"), "{err}");
        let err = parse_args(&["--stm".into(), "orec-ctl-wt".into()]).unwrap_err();
        assert!(err.contains("encounter-time"), "{err}");
        // Garbage still reads as unknown, naming both grammars.
        let err = parse_args(&["--stm".into(), "bogus".into()]).unwrap_err();
        assert!(err.contains("grid:"), "{err}");
    }

    #[test]
    fn retry_flag_parses_and_is_rejected_for_non_sweep_figures() {
        let args: Vec<String> = ["--workload", "array-b", "--retry", "adaptive"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_args(&args).unwrap().retry, RetryPolicy::Adaptive);
        assert_eq!(
            parse_args(&["--retry".into(), "exp".into()]).unwrap().retry,
            RetryPolicy::Exponential
        );
        assert!(parse_args(&["--retry".into(), "bogus".into()]).is_err());
        let options = Options { retry: RetryPolicy::Fixed, ..Options::default() };
        let err = run_figure("fig6", &options, &mut Vec::new()).unwrap_err();
        assert!(err.contains("--retry"), "{err}");
    }

    #[test]
    fn unknown_figures_are_rejected() {
        let options = Options::default();
        assert!(run_figure("fig99", &options, &mut Vec::new()).is_err());
    }

    #[test]
    fn sweep_only_flags_parse_and_are_rejected_elsewhere() {
        let args: Vec<String> = [
            "--workload",
            "array-a",
            "--burst-words",
            "8,16,64",
            "--json-out",
            "/tmp/cells.json",
            "--repeat",
            "3",
            "--read-strategy",
            "word-wise",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let options = parse_args(&args).unwrap();
        assert_eq!(options.burst_words, Some(vec![8, 16, 64]));
        assert_eq!(options.json_out.as_deref(), Some("/tmp/cells.json"));
        assert_eq!(options.repeat, 3);
        assert_eq!(options.read_strategy, ReadStrategy::WordWise);
        // Zero repeats, zero-word caps/records and bad lists are rejected
        // at parse time (a zero cap would otherwise panic deep inside
        // StmConfig).
        assert!(parse_args(&["--repeat".into(), "0".into()]).is_err());
        assert!(parse_args(&["--burst-words".into(), "8,x".into()]).is_err());
        assert!(parse_args(&["--burst-words".into(), "8,0".into()]).is_err());
        assert!(parse_args(&["--burst-words".into(), "8,500".into()]).is_err());
        assert!(parse_args(&["--record-words".into(), "0".into()]).is_err());
        assert!(parse_args(&["--record-words".into(), "150".into()]).is_err());
        assert!(parse_args(&["--read-strategy".into(), "bogus".into()]).is_err());
        assert_eq!(
            parse_args(&["--record-words".into(), "1".into()]).unwrap().record_words,
            Some(1)
        );
        // The flags only make sense for design-space sweeps.
        for (figure, options) in [
            ("fig6", Options { burst_words: Some(vec![8]), ..Options::default() }),
            ("fig7", Options { json_out: Some("x.json".into()), ..Options::default() }),
            ("latency", Options { repeat: 5, ..Options::default() }),
            ("fig8", Options { read_strategy: ReadStrategy::WordWise, ..Options::default() }),
            ("fig6", Options { record_words: Some(1), ..Options::default() }),
        ] {
            let err = run_figure(figure, &options, &mut Vec::new()).unwrap_err();
            assert!(err.contains("design-space sweeps"), "{figure}: {err}");
        }
    }

    #[test]
    fn fleet_flags_parse_and_default_sensibly() {
        let options = parse_args(&["--fleet".into()]).unwrap();
        assert!(options.fleet);
        assert_eq!(options.fleet_dpus(), DEFAULT_FLEET_DPUS.to_vec());
        assert_eq!(
            options.analytic_dpus(),
            vec![1, 250, 500, 1000, 1500, 2000, 2500],
            "fig7/fig8 keep their own default curve"
        );
        let args: Vec<String> =
            ["--fleet", "--dpus", "2,8", "--routing", "abort-retry", "--skew-thetas", "0.0,0.9"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let options = parse_args(&args).unwrap();
        assert_eq!(options.fleet_dpus(), vec![2, 8]);
        assert_eq!(options.routing, Some(RoutingPolicy::AbortAndRetry));
        assert_eq!(options.skew_thetas, Some(vec![0.0, 0.9]));
        assert!(parse_args(&["--routing".into(), "bogus".into()]).is_err());
        assert!(parse_args(&["--skew-thetas".into(), "-1.0".into()]).is_err());
        assert!(parse_args(&["--skew-thetas".into(), "x".into()]).is_err());
        let args: Vec<String> =
            ["--fleet", "--rebalance", "threshold:2.0", "--overlap", "--skew-phases", "2"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let options = parse_args(&args).unwrap();
        assert_eq!(options.rebalance, Some(RebalancePolicy::Threshold { max_over_mean: 2.0 }));
        assert!(options.overlap);
        assert_eq!(options.skew_phases, Some(2));
        assert!(parse_args(&["--rebalance".into(), "bogus".into()]).is_err());
        assert!(parse_args(&["--rebalance".into(), "threshold:0.5".into()]).is_err());
        assert!(parse_args(&["--skew-phases".into(), "0".into()]).is_err());
    }

    #[test]
    fn fleet_mode_rejects_sweep_only_flags() {
        for options in [
            Options { figure: Some("fig4".into()), ..Options::default() },
            Options { workload: Some(Workload::ArrayB), ..Options::default() },
            Options { burst_words: Some(vec![8]), ..Options::default() },
            Options { executors: vec![Executor::Threaded], ..Options::default() },
            Options { retry: RetryPolicy::Fixed, ..Options::default() },
        ] {
            let options = Options { fleet: true, ..options };
            assert!(run_fleet(&options).is_err());
        }
        // And figures reject the fleet-only flags.
        let options = Options { routing: Some(RoutingPolicy::RouteToOwner), ..Options::default() };
        let err = run_figure("fig6", &options, &mut Vec::new()).unwrap_err();
        assert!(err.contains("--fleet"), "{err}");
        let options = Options { skew_thetas: Some(vec![0.9]), ..Options::default() };
        let err = run_figure("fig7", &options, &mut Vec::new()).unwrap_err();
        assert!(err.contains("--skew-thetas"), "{err}");
        let options = Options {
            rebalance: Some(RebalancePolicy::parse("threshold").unwrap()),
            ..Options::default()
        };
        let err = run_figure("fig6", &options, &mut Vec::new()).unwrap_err();
        assert!(err.contains("--rebalance"), "{err}");
        let options = Options { overlap: true, ..Options::default() };
        let err = run_figure("latency", &options, &mut Vec::new()).unwrap_err();
        assert!(err.contains("--overlap"), "{err}");
        let options = Options { skew_phases: Some(2), ..Options::default() };
        let err = run_figure("fig7", &options, &mut Vec::new()).unwrap_err();
        assert!(err.contains("--skew-phases"), "{err}");
    }

    #[test]
    fn grid_and_tune_flags_parse_and_are_scoped() {
        assert!(parse_args(&["--grid".into()]).unwrap().grid);
        assert_eq!(parse_args(&["--tune".into()]).unwrap().tune, TunePolicy::windowed());
        assert_eq!(
            parse_args(&["--tune-window".into(), "16".into()]).unwrap().tune,
            TunePolicy::Windowed { window: 16 }
        );
        assert!(parse_args(&["--tune-window".into(), "0".into()]).is_err());
        assert!(parse_args(&["--tune-window".into(), "x".into()]).is_err());
        // --tune turns tuning on and leaves a chosen window alone, in
        // either order.
        for args in [["--tune-window", "8", "--tune"], ["--tune", "--tune-window", "8"]] {
            let tune = parse_args(&args.map(String::from)).unwrap().tune;
            assert_eq!(tune, TunePolicy::Windowed { window: 8 }, "{args:?}");
        }
        // --grid owns the knob axes it enumerates, and runs cells exactly
        // once on the simulator.
        for options in [
            Options { stm: Some(StmKind::Norec), ..Options::default() },
            Options { retry: RetryPolicy::Fixed, ..Options::default() },
            Options { read_strategy: ReadStrategy::WordWise, ..Options::default() },
            Options { tune: TunePolicy::windowed(), ..Options::default() },
            Options { fleet: true, ..Options::default() },
            Options { repeat: 2, ..Options::default() },
            Options { executors: vec![Executor::Threaded], ..Options::default() },
            Options { overlap: true, ..Options::default() },
        ] {
            let options = Options { grid: true, ..options };
            assert!(run_grid(&options).is_err());
        }
        // --tune is rejected by figures that cannot honour it.
        let options = Options { tune: TunePolicy::windowed(), ..Options::default() };
        let err = run_figure("fig6", &options, &mut Vec::new()).unwrap_err();
        assert!(err.contains("--tune"), "{err}");
    }

    #[test]
    fn asking_for_help_is_not_an_error() {
        for flag in ["--help", "-h"] {
            let options = parse_args(&[flag.into()]).expect("help is a request, not a mistake");
            assert!(options.help, "{flag}");
        }
        assert!(!parse_args(&[]).unwrap().help);
        // A mistake next to it is still reported.
        assert!(parse_args(&["--help".into(), "--no-such-flag".into()]).is_err());
    }

    #[test]
    fn workers_and_cache_dir_flags_parse_and_are_scoped() {
        assert_eq!(parse_args(&[]).unwrap().workers, 0, "default = every available core");
        let args: Vec<String> = ["--workers", "4", "--cache-dir", "/tmp/pim-cache"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let options = parse_args(&args).unwrap();
        assert_eq!(options.workers, 4);
        assert_eq!(options.cache_dir.as_deref(), Some("/tmp/pim-cache"));
        assert_eq!(options.worker_pool().workers(), 4);
        // 0 stays the explicit spelling of "all cores".
        assert_eq!(parse_args(&["--workers".into(), "0".into()]).unwrap().workers, 0);
        assert!(parse_args(&["--workers".into(), "x".into()]).is_err());
        assert!(parse_args(&["--workers".into()]).is_err());
        // The measured fleet never enters the simulation cache, and the
        // non-sweep figures have no simulator cells to memoise.
        let options =
            Options { fleet: true, cache_dir: Some("/tmp/c".into()), ..Options::default() };
        let err = run_fleet(&options).unwrap_err();
        assert!(err.contains("--cache-dir"), "{err}");
        let options = Options { cache_dir: Some("/tmp/c".into()), ..Options::default() };
        let err = run_figure("fig6", &options, &mut Vec::new()).unwrap_err();
        assert!(err.contains("--cache-dir"), "{err}");
    }

    #[test]
    fn executor_flag_parses_all_forms() {
        assert_eq!(parse_executors("simulator").unwrap(), vec![Executor::Simulator]);
        assert_eq!(parse_executors("sim").unwrap(), vec![Executor::Simulator]);
        assert_eq!(parse_executors("threaded").unwrap(), vec![Executor::Threaded]);
        assert_eq!(parse_executors("both").unwrap(), vec![Executor::Simulator, Executor::Threaded]);
        assert!(parse_executors("gpu").is_err());
        let args: Vec<String> =
            ["--workload", "array-b", "--executor", "both"].iter().map(|s| s.to_string()).collect();
        assert_eq!(parse_args(&args).unwrap().executors.len(), 2);
    }

    #[test]
    fn executor_filter_is_rejected_for_figures_that_cannot_honour_it() {
        let options = Options { executors: vec![Executor::Threaded], ..Options::default() };
        for figure in ["fig6", "fig7", "fig8", "latency"] {
            let err = run_figure(figure, &options, &mut Vec::new()).unwrap_err();
            assert!(err.contains("--executor"), "{figure}: {err}");
        }
    }

    #[test]
    fn tier_is_rejected_for_every_figure() {
        let options =
            Options { placement: MetadataPlacement::Wram, tier_set: true, ..Options::default() };
        for figure in ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "latency"] {
            let err = run_figure(figure, &options, &mut Vec::new()).unwrap_err();
            assert!(err.contains("--tier applies to"), "{figure}: {err}");
        }
    }

    #[test]
    fn dpus_is_rejected_for_every_figure_but_fig7() {
        let options = Options { dpus: Some(vec![100]), ..Options::default() };
        for figure in ["fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "latency"] {
            let err = run_figure(figure, &options, &mut Vec::new()).unwrap_err();
            assert!(err.contains("--dpus applies to fig7"), "{figure}: {err}");
        }
    }

    #[test]
    fn stm_filter_is_rejected_for_figures_that_cannot_honour_it() {
        let options = Options { stm: Some(StmKind::Norec), ..Options::default() };
        for figure in ["fig6", "fig7", "fig8", "latency"] {
            let err = run_figure(figure, &options, &mut Vec::new()).unwrap_err();
            assert!(err.contains("--stm"), "{figure}: {err}");
        }
    }

    #[test]
    fn service_flags_parse_with_defaults_and_validation() {
        let args: Vec<String> = [
            "--service",
            "--arrival",
            "bursty:32:0.5",
            "--rate",
            "1000,2000",
            "--mix",
            "60:30:10",
            "--skew",
            "zipf:0.9",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let options = parse_args(&args).unwrap();
        assert!(options.service);
        assert_eq!(options.arrival.as_deref(), Some("bursty:32:0.5"));
        assert_eq!(options.rates, Some(vec![1000.0, 2000.0]));
        assert_eq!(options.mix, Some(RequestMix { get: 60, put: 30, transfer: 10 }));
        assert_eq!(options.skew, Some(KeyDist::Zipf { theta: 0.9 }));
        // Bad values are usage errors, not mid-run panics.
        assert!(parse_args(&["--rate".into(), "0".into()]).is_err());
        assert!(parse_args(&["--rate".into(), "-5".into()]).is_err());
        assert!(parse_args(&["--rate".into(), "x".into()]).is_err());
        assert!(parse_args(&["--mix".into(), "0:0:0".into()]).is_err());
        assert!(parse_args(&["--skew".into(), "zipf:-1".into()]).is_err());
        assert!(parse_args(&["--skew".into(), "pareto".into()]).is_err());
    }

    #[test]
    fn service_mode_rejects_foreign_flags() {
        for options in [
            Options { figure: Some("fig4".into()), ..Options::default() },
            Options { workload: Some(Workload::ArrayB), ..Options::default() },
            Options { grid: true, ..Options::default() },
            Options { burst_words: Some(vec![8]), ..Options::default() },
            Options { record_words: Some(1), ..Options::default() },
            Options { read_strategy: ReadStrategy::WordWise, ..Options::default() },
            Options { retry: RetryPolicy::Fixed, ..Options::default() },
            Options { tune: TunePolicy::windowed(), ..Options::default() },
            Options { routing: Some(RoutingPolicy::RouteToOwner), ..Options::default() },
            Options { skew_thetas: Some(vec![0.9]), ..Options::default() },
            Options { skew_phases: Some(2), ..Options::default() },
            Options { workers: 4, ..Options::default() },
            Options { cache_dir: Some("/tmp/c".into()), ..Options::default() },
        ] {
            let options = Options { service: true, ..options };
            assert!(run_service_mode(&options).is_err());
        }
        // The fleet-only knobs need --fleet even under --service.
        for options in [
            Options { dpus: Some(vec![4]), ..Options::default() },
            Options { rebalance: Some(RebalancePolicy::Off), ..Options::default() },
            Options { overlap: true, ..Options::default() },
        ] {
            let options = Options { service: true, ..options };
            let err = run_service_mode(&options).unwrap_err();
            assert!(err.contains("--service --fleet"), "{err}");
        }
        // And the fleet variant runs on the simulator only.
        let options = Options {
            service: true,
            fleet: true,
            executors: vec![Executor::Threaded],
            ..Options::default()
        };
        let err = run_service_mode(&options).unwrap_err();
        assert!(err.contains("--executor"), "{err}");
    }

    #[test]
    fn service_mode_runs_and_honours_the_tier_default() {
        // Small stream, one rate: the smoke path of both variants.
        let base = Options {
            service: true,
            rates: Some(vec![50_000.0]),
            tasklets: vec![4],
            scale: 0.05,
            ..Options::default()
        };
        let sweep = run_service_mode(&base).unwrap();
        assert_eq!(sweep.points.len(), 1);
        assert_eq!(
            sweep.options.placement,
            MetadataPlacement::Wram,
            "the service mode defaults to WRAM metadata"
        );
        let mram = Options { placement: MetadataPlacement::Mram, tier_set: true, ..base.clone() };
        assert_eq!(run_service_mode(&mram).unwrap().options.placement, MetadataPlacement::Mram);
        let fleet = Options { fleet: true, dpus: Some(vec![2]), ..base };
        let sweep = run_service_mode(&fleet).unwrap();
        assert_eq!(sweep.fleet_points.len(), 1);
        assert_eq!(sweep.fleet_points[0].report.shards, 2);
    }
}
