//! Command-line entry point of the experiment harness.
//!
//! One invocation runs one of ten modes, named here as in `MODES`:
//!
//! ```text
//! fig4/fig5/fig9/fig10  pim-exp --figure fig4      # design-space sweeps, MRAM (4/5), WRAM (9/10)
//! fig6                  pim-exp --figure fig6      # peak-throughput distribution, folded from 4/5/9/10
//! fig7                  pim-exp --figure fig7      # multi-DPU speed-up curves
//! fig8                  pim-exp --figure fig8      # speed-up + energy gain at 2500 DPUs
//! latency               pim-exp --figure latency   # local vs CPU-mediated read latency
//! --workload            pim-exp --workload array-b --stm norec --executor both
//! --grid                pim-exp --grid --workload array-b
//! --fleet               pim-exp --fleet --dpus 4,16,64
//! --service             pim-exp --service --rate 50000,200000
//! --service --fleet     pim-exp --service --fleet --dpus 4
//! ```
//!
//! The sweep figures, fig6, `--workload` and `--grid` run cells first (see
//! the `pim_exp` crate docs): `cells` lists a mode's cells, `check` vets
//! them before any runs, and `run_cells` runs them.
//!
//! `FLAGS` is the flag × mode table: each row names the modes whose code
//! reads the flag. Parsing, mode selection, the rejection of a flag the
//! selected mode does not read, and `--help` all derive from it.
//!
//! `--scale` (default 0.25) shrinks every workload proportionally so a full
//! figure regenerates in minutes; use `--scale 1.0` for the paper-sized
//! runs.

use pim_exp::cache::SimCache;
use pim_exp::design_space::{run_cells, BurstSweep, DesignSpaceSweep, SweepOptions};
use pim_exp::fleet::{FleetSweep, FleetSweepOptions, DEFAULT_FLEET_DPUS, DEFAULT_SKEW_THETAS};
use pim_exp::grid::{GridOptions, GridSearch};
use pim_exp::json::{fleet_to_json, grid_to_json, service_to_json, sweeps_to_json};
use pim_exp::latency::LatencyComparison;
use pim_exp::multi_dpu::{figure8_table, MultiDpuStudy, MULTI_DPU_WORKLOADS};
use pim_exp::peak::PeakDistribution;
use pim_exp::pool::WorkerPool;
use pim_exp::service::{
    ServiceFleetKnobs, ServiceSweep, ServiceSweepOptions, DEFAULT_SERVICE_RATES,
};
use pim_fleet::RebalancePolicy;
use pim_service::RequestMix;
use pim_sim::KeyDist;
use pim_stm::{MetadataPlacement, ReadStrategy, RetryPolicy, StmKind, StmKnobs, TmComposition};
use pim_workloads::spec::Executor;
use pim_workloads::{RoutingPolicy, RunSpec, Workload};
use std::process::ExitCode;

/// What one invocation does; `Options::mode` picks it from the selecting
/// flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    SweepFigure,
    Fig6,
    Fig7,
    Fig8,
    Latency,
    WorkloadSweep,
    Grid,
    Fleet,
    Service,
    ServiceFleet,
}

/// Each mode's name, as messages and `--help` print it, and description.
const MODES: [(Mode, &str, &str); 10] = [
    (Mode::SweepFigure, "fig4/fig5/fig9/fig10", "--figure: the figure's design-space sweeps"),
    (Mode::Fig6, "fig6", "--figure: normalised peak-throughput distribution"),
    (Mode::Fig7, "fig7", "--figure: multi-DPU speed-up vs CPU, extrapolated over --dpus"),
    (Mode::Fig8, "fig8", "--figure: speed-up and energy gain at 2500 DPUs"),
    (Mode::Latency, "latency", "--figure: local vs CPU-mediated word read (§3.1)"),
    (Mode::WorkloadSweep, "--workload", "one workload's design-space sweep (one cell with --stm)"),
    (Mode::Grid, "--grid", "every coherent knob combination of one workload, ranked"),
    (Mode::Fleet, "--fleet", "measured sharded multi-DPU runtime: scaling and key-skew sweeps"),
    (Mode::Service, "--service", "latency under offered load: queueing vs STM service time"),
    (Mode::ServiceFleet, "--service --fleet", "the --service stream sharded across --dpus DPUs"),
];

/// `--figure` values and the mode each selects.
const FIGURES: [(&str, Mode); 8] = [
    ("fig4", Mode::SweepFigure),
    ("fig5", Mode::SweepFigure),
    ("fig6", Mode::Fig6),
    ("fig7", Mode::Fig7),
    ("fig8", Mode::Fig8),
    ("fig9", Mode::SweepFigure),
    ("fig10", Mode::SweepFigure),
    ("latency", Mode::Latency),
];

impl Mode {
    fn name(self) -> &'static str {
        MODES.iter().find(|(mode, ..)| *mode == self).expect("every mode has a MODES row").1
    }
}

/// Names `modes` the way rejections and `--help` list them.
fn mode_names(modes: &[Mode]) -> String {
    modes.iter().map(|mode| mode.name()).collect::<Vec<_>>().join(", ")
}

/// One row of the flag × mode table.
#[derive(Debug)]
struct Flag {
    name: &'static str,
    /// Placeholder of the flag's value; `None` for a switch.
    value: Option<&'static str>,
    /// The modes whose code reads the flag; every other mode rejects it.
    reads: &'static [Mode],
    help: &'static str,
}

const fn flag(
    name: &'static str,
    value: Option<&'static str>,
    reads: &'static [Mode],
    help: &'static str,
) -> Flag {
    Flag { name, value, reads, help }
}

/// Every flag, the modes that read it and its help line.
#[rustfmt::skip]
static FLAGS: [Flag; 30] = {
    use Mode::*;
    const ALL: [Mode; 10] =
        [SweepFigure, Fig6, Fig7, Fig8, Latency, WorkloadSweep, Grid, Fleet, Service, ServiceFleet];
    const SIMULATED: [Mode; 9] =
        [SweepFigure, Fig6, Fig7, Fig8, WorkloadSweep, Grid, Fleet, Service, ServiceFleet];
    [
        flag("--figure", Some("<name>"), &[SweepFigure, Fig6, Fig7, Fig8, Latency],
             "fig4|fig5|fig6|fig7|fig8|fig9|fig10|latency"),
        flag("--workload", Some("<name>"), &[WorkloadSweep, Grid],
             "array-a|-b, list-lc|-hc, kmeans-lc|-hc, labyrinth-s|-m|-l (--grid: array-b)"),
        flag("--stm", Some("<kind>"), &[SweepFigure, WorkloadSweep, Fleet, Service, ServiceFleet],
             "one design: legacy (norec, tiny-etlwb, ...) or grid name (orec-etl-wb, ...)"),
        flag("--tier", Some("wram|mram"), &[WorkloadSweep, Grid, Fleet, Service, ServiceFleet],
             "STM metadata placement (default mram; --service defaults to wram)"),
        flag("--executor", Some("simulator|threaded|both"), &[SweepFigure, WorkloadSweep, Service],
             "run the profile tables on the simulator, on real threads, or on both"),
        flag("--tasklets", Some("<n,...>"),
             &[SweepFigure, Fig6, WorkloadSweep, Grid, Service, ServiceFleet],
             "tasklet counts in 1..=24 (default 1,3,5,7,9,11; --grid and --service: the largest)"),
        flag("--dpus", Some("<n,...>"), &[Fig7, Fleet, ServiceFleet],
             "DPU counts (--fleet default 4,16,64,256; --service --fleet: largest, default 4)"),
        flag("--fleet", None, &[Fleet, ServiceFleet],
             "run on the measured sharded multi-DPU runtime"),
        flag("--grid", None, &[Grid],
             "run the full-grid offline search"),
        flag("--service", None, &[Service, ServiceFleet],
             "measure latency under offered load"),
        flag("--arrival", Some("poisson|bursty[:b[:d]]|closed-loop"), &[Service, ServiceFleet],
             "arrival process; bursty takes a burst size b and duty cycle d"),
        flag("--rate", Some("<r,...>"), &[Service, ServiceFleet],
             "offered-rate ladder in requests/s (default 25000,50000,100000,200000)"),
        flag("--mix", Some("g:p:t"), &[Service, ServiceFleet],
             "get:put:transfer request weights (default 80:15:5)"),
        flag("--skew", Some("uniform|zipf:t"), &[Service, ServiceFleet],
             "key distribution of the requests"),
        flag("--routing", Some("route-to-owner|abort-retry"), &[Fleet],
             "how a shard runs a transaction that touches keys it does not own"),
        flag("--skew-thetas", Some("<t,...>"), &[Fleet],
             "Zipf thetas of the skew sweep at the largest fleet (default 0,0.6,0.9,1.2)"),
        flag("--rebalance", Some("off|threshold[:f]|periodic[:k]"), &[Fleet, ServiceFleet],
             "recut the range partition toward the observed key load"),
        flag("--overlap", None, &[Fleet, ServiceFleet],
             "double-buffer rounds: scatter and routing hide behind the last round's compute"),
        flag("--skew-phases", Some("<n>"), &[Fleet],
             "rotate the hot key region n times mid-stream"),
        flag("--scale", Some("<f>"), &SIMULATED,
             "shrink every workload proportionally (default 0.25; 1.0 = paper size)"),
        flag("--seed", Some("<n>"), &SIMULATED,
             "base PRNG seed (default 42)"),
        flag("--repeat", Some("<n>"), &[SweepFigure, WorkloadSweep, Fleet, Service, ServiceFleet],
             "runs per cell: keep the lower median, report the spread"),
        flag("--read-strategy", Some("word-wise|batched"), &[SweepFigure, WorkloadSweep],
             "how multi-word record reads are issued"),
        flag("--retry", Some("fixed|exponential|adaptive"), &[SweepFigure, WorkloadSweep],
             "retry back-off (default exponential; adaptive reads the abort-reason histogram)"),
        flag("--record-words", Some("<n>"), &[SweepFigure, WorkloadSweep, Grid],
             "ArrayBench read-record size (1 = the paper's single-entry reads)"),
        flag("--burst-words", Some("<n,...>"), &[SweepFigure, WorkloadSweep, Grid],
             "DMA burst caps: MRAM DMA setups per commit under each (--grid: the cap ladder)"),
        flag("--json-out", Some("<path>"),
             &[SweepFigure, Fig6, WorkloadSweep, Grid, Fleet, Service, ServiceFleet],
             "dump every cell or point of the run as JSON"),
        flag("--workers", Some("<n>"), &[SweepFigure, Fig6, WorkloadSweep, Grid, Fleet],
             "worker budget of the run and the fleet's shards (0 = all cores); any n, same output"),
        flag("--cache-dir", Some("<path>"), &[SweepFigure, Fig6, WorkloadSweep, Grid],
             "on-disk simulation cache: a warm re-run replays cells instead of simulating"),
        flag("--help", None, &ALL,
             "print this text (also -h)"),
    ]
};

/// The `--help` text, rendered from `MODES` and `FLAGS`.
fn usage() -> String {
    let mut text = String::from(
        "usage: pim-exp <mode> [<flag> [<value>]]...\n\n\
         modes (selected by --service, else --grid, --fleet, --figure, --workload):\n",
    );
    for (_, name, about) in MODES {
        text += &format!("  {name:<22}{about}\n");
    }
    text += "\nflags (a mode not listed under a flag rejects it):\n";
    for flag in &FLAGS {
        let value = flag.value.map_or(String::new(), |value| format!(" {value}"));
        let (name, help, reads) = (flag.name, flag.help, mode_names(flag.reads));
        text += &format!("  {name}{value}\n      {help}\n      read by: {reads}\n");
    }
    text
}

/// The parsed command line: one field per flag that takes a value, whose
/// meaning is that flag's help line in `FLAGS`.
#[derive(Debug)]
struct Options {
    /// The table rows of the flags given, in command-line order; a switch
    /// (`--fleet`, `--overlap`, ...) is on when its row is here.
    given: Vec<&'static Flag>,
    figure: Option<(&'static str, Mode)>,
    arrival: Option<String>,
    rates: Option<Vec<f64>>,
    mix: Option<RequestMix>,
    skew: Option<KeyDist>,
    workload: Option<Workload>,
    stm: Option<StmKind>,
    /// `--tier`, when given: the service mode defaults to WRAM metadata,
    /// every other mode to MRAM.
    placement: Option<MetadataPlacement>,
    executors: Vec<Executor>,
    tasklets: Vec<usize>,
    /// `--dpus`, when given; fig7's analytic curve and the fleet sweep have
    /// different defaults.
    dpus: Option<Vec<usize>>,
    routing: Option<RoutingPolicy>,
    skew_thetas: Option<Vec<f64>>,
    rebalance: Option<RebalancePolicy>,
    skew_phases: Option<u32>,
    scale: f64,
    seed: u64,
    repeat: usize,
    /// `--read-strategy` and `--retry` (`--burst-words` is a list of caps).
    knobs: StmKnobs,
    record_words: Option<u32>,
    burst_words: Option<Vec<u32>>,
    json_out: Option<String>,
    workers: usize,
    cache_dir: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            given: Vec::new(),
            figure: None,
            arrival: None,
            rates: None,
            mix: None,
            skew: None,
            workload: None,
            stm: None,
            placement: None,
            executors: vec![Executor::Simulator],
            tasklets: vec![1, 3, 5, 7, 9, 11],
            dpus: None,
            routing: None,
            skew_thetas: None,
            rebalance: None,
            skew_phases: None,
            scale: 0.25,
            seed: 42,
            repeat: 1,
            knobs: StmKnobs::default(),
            record_words: None,
            burst_words: None,
            json_out: None,
            workers: 0,
            cache_dir: None,
        }
    }
}

impl Options {
    /// Whether the flag named `name` was given.
    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|flag| flag.name == name)
    }

    /// The mode the selecting flags pick, by precedence: `--service`,
    /// `--grid`, `--fleet`, `--figure`, `--workload`.
    fn mode(&self) -> Option<Mode> {
        if self.has("--service") {
            Some(if self.has("--fleet") { Mode::ServiceFleet } else { Mode::Service })
        } else if self.has("--grid") {
            Some(Mode::Grid)
        } else if self.has("--fleet") {
            Some(Mode::Fleet)
        } else if let Some((_, mode)) = self.figure {
            Some(mode)
        } else {
            self.workload.map(|_| Mode::WorkloadSweep)
        }
    }

    /// The MRAM-default metadata placement of every mode but `--service`.
    fn placement(&self) -> MetadataPlacement {
        self.placement.unwrap_or(MetadataPlacement::Mram)
    }

    /// DPU counts of fig7's analytic speed-up curve (fig8 fixes 2 500).
    fn analytic_dpus(&self) -> Vec<usize> {
        self.dpus.clone().unwrap_or_else(|| vec![1, 250, 500, 1000, 1500, 2000, 2500])
    }

    /// DPU counts of the measured `--fleet` scaling curve.
    fn fleet_dpus(&self) -> Vec<usize> {
        self.dpus.clone().unwrap_or_else(|| DEFAULT_FLEET_DPUS.to_vec())
    }

    /// The designs a sweep runs: `--stm`, else all seven.
    fn kinds(&self) -> Vec<StmKind> {
        self.stm.map_or(StmKind::ALL.to_vec(), |kind| vec![kind])
    }

    /// The sweeps one workload of a sweep figure, `--workload` or fig6 runs
    /// on `executor`: the base sweep over every `--tasklets` count, then one
    /// sweep per `--burst-words` cap at the largest count.
    fn sweep_ladder(&self, executor: Executor) -> Vec<(SweepOptions, Vec<usize>)> {
        let (scale, seed, repeat, knobs) = (self.scale, self.seed, self.repeat, self.knobs);
        let base =
            SweepOptions { scale, seed, executor, repeat, knobs, record_words: self.record_words };
        let largest = self.tasklets.iter().copied().max().expect("--tasklets is never empty");
        let caps = self.burst_words.iter().flatten().map(|&cap| {
            let knobs = StmKnobs { max_burst_words: cap, ..base.knobs };
            (SweepOptions { knobs, ..base }, vec![largest])
        });
        std::iter::once((base, self.tasklets.clone())).chain(caps).collect()
    }

    /// The workload and the options of the `--grid` search.
    fn grid(&self) -> (Workload, GridOptions) {
        let defaults = GridOptions::default();
        let options = GridOptions {
            scale: self.scale,
            seed: self.seed,
            // One tasklet count per grid; the largest requested is the
            // contended end where the knobs matter most.
            tasklets: self.tasklets.iter().copied().max().unwrap_or(defaults.tasklets),
            caps: self.burst_words.clone().unwrap_or(defaults.caps),
            record_words: self.record_words,
        };
        (self.workload.unwrap_or(Workload::ArrayB), options)
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

/// Rejects the first given flag that `mode` does not read, then — before
/// any cell runs — a service fleet with more shards than its keyspace has
/// keys, and the first of `mode`'s `cells` that would not fit a DPU
/// ([`RunSpec::check_feasible`]). Returns the cells it vetted.
fn check(options: &Options, mode: Mode) -> Result<Vec<RunSpec>, String> {
    if let Some(flag) = options.given.iter().find(|flag| !flag.reads.contains(&mode)) {
        let (name, readers) = (flag.name, mode_names(flag.reads));
        return Err(format!("{name} applies to {readers}, not to {}", mode.name()));
    }
    if mode == Mode::ServiceFleet {
        let (sweep, fleet) = service_sweep(options);
        let (shards, keys) = (fleet.expect("--fleet sets the fleet knobs").shards, sweep.keys());
        if u64::from(shards) > keys {
            return Err(format!(
                "--dpus {shards} exceeds the service keyspace of {keys} keys: every shard owns \
                 at least one key"
            ));
        }
    }
    let cells = cells(mode, options);
    cells.iter().try_for_each(RunSpec::check_feasible)?;
    Ok(cells)
}

/// The metadata placement and the workloads of each sweep figure.
const SWEEP_FIGURES: [(&str, MetadataPlacement, &[Workload]); 4] = {
    use MetadataPlacement::{Mram, Wram};
    use Workload::{ArrayA, ArrayB, KmeansHc, KmeansLc, LabyrinthL, LabyrinthS, ListHc, ListLc};
    [
        ("fig4", Mram, &[ArrayA, ArrayB, ListLc, ListHc]),
        ("fig5", Mram, &[KmeansLc, KmeansHc, LabyrinthS, LabyrinthL]),
        ("fig9", Wram, &[ArrayA, ArrayB, ListLc, ListHc]),
        ("fig10", Wram, &[KmeansLc, KmeansHc]),
    ]
};

/// Every cell `mode` runs, in run order. A sweep figure or `--workload`
/// lists each workload's `sweep_ladder`; fig6 lists the cells of fig4,
/// fig5, fig9 and fig10; `--grid` its coherent grid. A cell listed twice (a
/// `--burst-words` cap equal to the base sweep's) runs once. fig7, fig8,
/// latency, `--fleet` and `--service` list none.
fn cells(mode: Mode, options: &Options) -> Vec<RunSpec> {
    let workloads: Vec<(Workload, MetadataPlacement)> = match mode {
        Mode::Grid => {
            let (workload, grid) = options.grid();
            return GridSearch::specs(workload, options.placement(), &grid);
        }
        Mode::WorkloadSweep => {
            vec![(options.workload.expect("--workload picked the mode"), options.placement())]
        }
        Mode::SweepFigure | Mode::Fig6 => SWEEP_FIGURES
            .iter()
            .filter(|(name, ..)| mode == Mode::Fig6 || options.figure.is_some_and(|f| f.0 == *name))
            .flat_map(|&(_, placement, workloads)| workloads.iter().map(move |&w| (w, placement)))
            .collect(),
        _ => return Vec::new(),
    };
    let (kinds, mut cells) = (options.kinds(), Vec::new());
    for (workload, placement) in workloads {
        for (sweep, tasklets) in options.sweep_ladder(Executor::Simulator) {
            for cell in DesignSpaceSweep::cells(workload, placement, &kinds, &tasklets, &sweep) {
                if !cells.contains(&cell) {
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

fn parse_executors(value: &str) -> Result<Vec<Executor>, String> {
    match value {
        "sim" | "simulator" => Ok(vec![Executor::Simulator]),
        "threaded" => Ok(vec![Executor::Threaded]),
        "both" => Ok(vec![Executor::Simulator, Executor::Threaded]),
        other => Err(format!("unknown executor {other} (expected simulator|threaded|both)")),
    }
}

/// Parses the comma-separated value of the list flag `flag`. An entry
/// listed twice is an error: it would run, print and dump its cells twice.
fn parse_list<T: std::str::FromStr + PartialEq>(flag: &str, value: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let mut list: Vec<T> = Vec::new();
    for part in value.split(',').map(str::trim) {
        let entry = part.parse::<T>().map_err(|e| format!("bad list entry {part:?}: {e}"))?;
        if list.contains(&entry) {
            return Err(format!("{flag} lists {part} twice"));
        }
        list.push(entry);
    }
    Ok(list)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let name = if arg == "-h" { "--help" } else { arg.as_str() };
        let row = FLAGS.iter().find(|flag| flag.name == name);
        options.given.push(row.ok_or_else(|| format!("unknown argument {arg}\n{}", usage()))?);
        let mut value = || iter.next().cloned().ok_or_else(|| format!("missing value after {arg}"));
        match name {
            "--figure" => {
                let name = value()?;
                let figure = FIGURES.into_iter().find(|(figure, _)| *figure == name);
                options.figure =
                    Some(figure.ok_or_else(|| format!("unknown figure {name}\n{}", usage()))?);
            }
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
                options.placement = Some(match name.as_str() {
                    "wram" => MetadataPlacement::Wram,
                    "mram" => MetadataPlacement::Mram,
                    other => return Err(format!("unknown tier {other} (expected wram|mram)")),
                });
            }
            "--executor" => options.executors = parse_executors(&value()?)?,
            "--tasklets" => {
                options.tasklets = parse_list(name, &value()?)?;
                let limit = pim_stm::threaded::MAX_TASKLETS;
                if options.tasklets.iter().any(|&n| n == 0 || n > limit) {
                    return Err(format!("--tasklets counts must be in 1..={limit}"));
                }
            }
            "--dpus" => {
                let dpus: Vec<usize> = parse_list(name, &value()?)?;
                // The service fleet takes its shard count as a u32.
                if dpus.iter().any(|&n| n == 0 || u32::try_from(n).is_err()) {
                    return Err(format!("--dpus counts must be in 1..={}", u32::MAX));
                }
                options.dpus = Some(dpus);
            }
            // A switch is on once `given` holds its row.
            "--fleet" | "--grid" | "--service" | "--overlap" | "--help" => {}
            "--arrival" => options.arrival = Some(value()?),
            "--rate" => {
                let rates: Vec<f64> = parse_list(name, &value()?)?;
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
            "--routing" => options.routing = Some(RoutingPolicy::parse(&value()?)?),
            "--skew-thetas" => {
                let thetas: Vec<f64> = parse_list(name, &value()?)?;
                if thetas.iter().any(|t| *t < 0.0 || !t.is_finite()) {
                    return Err("--skew-thetas values must be finite and >= 0".to_string());
                }
                options.skew_thetas = Some(thetas);
            }
            "--rebalance" => options.rebalance = Some(RebalancePolicy::parse(&value()?)?),
            "--skew-phases" => {
                let phases: u32 =
                    value()?.parse().map_err(|e| format!("bad --skew-phases value: {e}"))?;
                if phases == 0 {
                    return Err("--skew-phases needs at least one phase".to_string());
                }
                options.skew_phases = Some(phases);
            }
            "--scale" => {
                options.scale = value()?.parse().map_err(|e| format!("bad --scale value: {e}"))?;
                if !options.scale.is_finite() || options.scale <= 0.0 {
                    return Err("--scale must be finite and positive".to_string());
                }
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
                options.knobs.read_strategy = ReadStrategy::parse(&name).ok_or_else(|| {
                    format!("unknown read strategy {name} (expected word-wise|batched)")
                })?;
            }
            "--retry" => {
                let name = value()?;
                options.knobs.retry = RetryPolicy::parse(&name).ok_or_else(|| {
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
                let caps: Vec<u32> = parse_list(name, &value()?)?;
                if caps.is_empty() {
                    return Err("--burst-words needs at least one cap".to_string());
                }
                for &max_burst_words in &caps {
                    let knobs = StmKnobs { max_burst_words, ..options.knobs };
                    knobs.check().map_err(|why| format!("--burst-words: {why}"))?;
                }
                options.burst_words = Some(caps);
            }
            "--json-out" => options.json_out = Some(value()?),
            "--workers" => {
                options.workers =
                    value()?.parse().map_err(|e| format!("bad --workers value: {e}"))?;
            }
            "--cache-dir" => options.cache_dir = Some(value()?),
            other => unreachable!("{other} has a FLAGS row but no parser"),
        }
    }
    Ok(options)
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

/// Runs the `cells` of a sweep figure, `--workload` or fig6 once per
/// executor, then gathers them, per workload and executor, into the base
/// sweep and its `--burst-words` ladder.
fn run_sweeps(
    options: &Options,
    cells: &[RunSpec],
) -> Result<Vec<(DesignSpaceSweep, Option<BurstSweep>)>, String> {
    // One pool and one cache span the whole run: its workloads share one
    // worker budget, and a warm --cache-dir replays every cell.
    let (pool, cache) = (options.worker_pool(), options.sim_cache()?);
    let runs: Vec<_> = options
        .executors
        .iter()
        .map(|&executor| run_cells(cells, executor, options.repeat, &pool, &cache, "design-space"))
        .collect();
    let mut workloads: Vec<_> = cells.iter().map(|cell| (cell.workload, cell.placement)).collect();
    workloads.dedup();
    let largest = options.tasklets.iter().copied().max().expect("--tasklets is never empty");
    let (kinds, mut sweeps) = (options.kinds(), Vec::new());
    for (workload, placement) in workloads {
        for (&executor, points) in options.executors.iter().zip(&runs) {
            let ran = |cell: &RunSpec| {
                points[cells.iter().position(|c| c == cell).expect("every listed cell ran")].clone()
            };
            let mut ladder = options.sweep_ladder(executor).into_iter().map(|(sweep, tasklets)| {
                let listed =
                    DesignSpaceSweep::cells(workload, placement, &kinds, &tasklets, &sweep);
                let points = listed.iter().map(ran).collect();
                DesignSpaceSweep { workload, placement, options: sweep, points }
            });
            let base = ladder.next().expect("the ladder starts with the base sweep");
            let burst = options.burst_words.clone().map(|caps| {
                let sweeps = ladder.collect();
                BurstSweep { workload, placement, executor, tasklets: largest, caps, sweeps }
            });
            sweeps.push((base, burst));
        }
    }
    Ok(sweeps)
}

/// Prints the panels of a sweep figure or `--workload`; returns its sweeps
/// in dump order: per workload and executor, each `--burst-words` cap's
/// sweep, then the base sweep.
fn print_sweeps(sweeps: Vec<(DesignSpaceSweep, Option<BurstSweep>)>) -> Vec<DesignSpaceSweep> {
    let mut dumped = Vec::new();
    for (sweep, burst) in sweeps {
        let (workload, placement, executor) =
            (sweep.workload, sweep.placement, sweep.options.executor);
        println!("== {workload} ({placement} metadata, {}, {executor}) ==", workload.figure());
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
        if let Some(burst) = burst {
            println!("{}", burst.table());
            // A cap equal to the base sweep's dumps nothing: its cells are
            // rows the base sweep already contributes.
            dumped.extend(
                burst.sweeps.into_iter().filter(|s| s.options.knobs != sweep.options.knobs),
            );
        }
        dumped.push(sweep);
    }
    dumped
}

/// Runs the `--fleet` sweep and prints its panels.
fn run_fleet(options: &Options) -> FleetSweep {
    let fleet_options = FleetSweepOptions {
        kind: options.stm.unwrap_or(StmKind::Norec),
        placement: options.placement(),
        routing: options.routing.unwrap_or(RoutingPolicy::RouteToOwner),
        scale: options.scale,
        seed: options.seed,
        thetas: options.skew_thetas.clone().unwrap_or_else(|| DEFAULT_SKEW_THETAS.to_vec()),
        rebalance: options.rebalance.unwrap_or(RebalancePolicy::Off),
        overlap: options.has("--overlap"),
        repeat: options.repeat,
        phases: options.skew_phases.unwrap_or(1),
    };
    println!("== fleet: measured multi-DPU sharded runtime ==");
    let sweep = FleetSweep::run_with(&options.fleet_dpus(), fleet_options, &options.worker_pool());
    println!("{}", sweep.scaling_table());
    println!("{}", sweep.profile_table());
    if sweep.options.overlap {
        println!("{}", sweep.pipeline_table());
    }
    if !sweep.skew.is_empty() {
        println!("{}", sweep.skew_table());
    }
    if let Some(rounds) = sweep.rebalance_rounds_table() {
        println!("{rounds}");
    }
    sweep
}

/// Runs the `--grid` full-grid search and prints its panels.
fn run_grid(options: &Options) -> Result<GridSearch, String> {
    let (workload, grid_options) = options.grid();
    println!("== grid: full design-space search ==");
    let cache = options.sim_cache()?;
    let search = GridSearch::run_with(
        workload,
        options.placement(),
        grid_options,
        &options.worker_pool(),
        &cache,
    );
    println!("{}", search.ranked_table(12));
    println!("{}", search.defaults_table());
    println!("{}", search.cache_table());
    Ok(search)
}

/// The `--service` sweep's options and, with `--fleet`, its fleet knobs.
fn service_sweep(options: &Options) -> (ServiceSweepOptions, Option<ServiceFleetKnobs>) {
    let fleet = options.has("--fleet").then(|| ServiceFleetKnobs {
        shards: options.dpus.as_ref().map_or(4, |dpus| {
            let largest = dpus.iter().copied().max().expect("--dpus parses to a non-empty list");
            u32::try_from(largest).expect("--dpus counts are bounded to u32 at parse time")
        }),
        rebalance: options.rebalance.unwrap_or(RebalancePolicy::Off),
        overlap: options.has("--overlap"),
    });
    let defaults = ServiceSweepOptions::default();
    let sweep_options = ServiceSweepOptions {
        arrival: options.arrival.clone().unwrap_or(defaults.arrival),
        rates: options.rates.clone().unwrap_or_else(|| DEFAULT_SERVICE_RATES.to_vec()),
        mix: options.mix.unwrap_or(defaults.mix),
        dist: options.skew.unwrap_or(defaults.dist),
        kind: options.stm.unwrap_or(defaults.kind),
        // The service layer defaults to WRAM metadata (the low-latency
        // placement); --tier overrides.
        placement: options.placement.unwrap_or(defaults.placement),
        tasklets: options.tasklets.iter().copied().max().unwrap_or(defaults.tasklets),
        scale: options.scale,
        seed: options.seed,
        repeat: options.repeat,
        executors: options.executors.clone(),
    };
    (sweep_options, fleet)
}

/// Runs the `--service` latency-under-load sweep, on one DPU or on the
/// fleet, and prints its tables.
fn run_service_mode(options: &Options) -> Result<ServiceSweep, String> {
    let (sweep_options, fleet) = service_sweep(options);
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

/// Runs the mode the flags pick, once the table has rejected every given
/// flag that mode does not read, and writes its `--json-out` dump.
fn run(options: &Options) -> Result<(), String> {
    if options.has("--help") {
        println!("{}", usage());
        return Ok(());
    }
    let mode = options.mode().ok_or_else(usage)?;
    let cells = check(options, mode)?;
    let wants_json = options.json_out.is_some();
    let dump_sweeps = |sweeps: &[DesignSpaceSweep]| {
        let cells = sweeps.iter().map(|s| s.points.len()).sum::<usize>();
        wants_json.then(|| (sweeps_to_json(sweeps), cells, "cell profile(s)"))
    };
    let dump = match mode {
        Mode::Service | Mode::ServiceFleet => {
            let sweep = run_service_mode(options)?;
            let points = sweep.points.len() + sweep.fleet_points.len();
            wants_json.then(|| (service_to_json(&sweep), points, "service point(s)"))
        }
        Mode::Grid => {
            let search = run_grid(options)?;
            wants_json.then(|| (grid_to_json(&search), search.cells.len(), "grid cell(s)"))
        }
        Mode::Fleet => {
            let sweep = run_fleet(options);
            let points = sweep.scaling.len() + sweep.skew.len();
            wants_json.then(|| (fleet_to_json(&sweep), points, "fleet point(s)"))
        }
        Mode::SweepFigure | Mode::WorkloadSweep => {
            dump_sweeps(&print_sweeps(run_sweeps(options, &cells)?))
        }
        Mode::Fig6 => {
            let sweeps: Vec<DesignSpaceSweep> =
                run_sweeps(options, &cells)?.into_iter().map(|(sweep, _)| sweep).collect();
            for placement in [MetadataPlacement::Mram, MetadataPlacement::Wram] {
                println!("== Fig. 6: normalised peak throughput ({placement} metadata) ==");
                println!("{}", PeakDistribution::from_sweeps(placement, &sweeps).table());
            }
            dump_sweeps(&sweeps)
        }
        Mode::Fig7 => {
            use Workload::{KmeansHc, KmeansLc, LabyrinthL, LabyrinthM, LabyrinthS};
            for benchmark in [KmeansLc, KmeansHc, LabyrinthS, LabyrinthM, LabyrinthL] {
                let dpus = options.analytic_dpus();
                let study = MultiDpuStudy::run(benchmark, &dpus, options.scale, options.seed);
                println!("== Fig. 7: speed-up vs CPU ({}) ==", study.label());
                println!("{}", study.speedup_table());
            }
            None
        }
        Mode::Fig8 => {
            println!("== Fig. 8: speed-up and energy gain at {} DPUs ==", 2500);
            let studies: Vec<MultiDpuStudy> = MULTI_DPU_WORKLOADS
                .into_iter()
                .map(|b| MultiDpuStudy::run(b, &[2500], options.scale, options.seed))
                .collect();
            println!("{}", figure8_table(&studies));
            None
        }
        Mode::Latency => {
            println!("== §3.1: local vs CPU-mediated word read ==");
            println!("{}", LatencyComparison::measure().table());
            None
        }
    };
    if let (Some(path), Some((json, count, what))) = (&options.json_out, dump) {
        std::fs::write(path, json.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[json-out] wrote {count} {what} to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|options| run(&options)) {
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

    /// Parses a whitespace-separated command line.
    fn parse(line: &str) -> Result<Options, String> {
        parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    /// Parses `line`, picks its mode and applies the table, as `run` does.
    fn accepted(line: &str) -> Result<Options, String> {
        let options = parse(line)?;
        let mode = options.mode().ok_or("no mode selected")?;
        check(&options, mode).map(|_| options)
    }

    #[test]
    fn argument_parsing_covers_the_main_flags() {
        let options =
            parse("--figure fig4 --tier wram --tasklets 1,2,3 --scale 0.5 --seed 7 --dpus 1,10")
                .unwrap();
        assert_eq!(options.figure, Some(("fig4", Mode::SweepFigure)));
        assert_eq!(options.stm, None);
        assert_eq!(options.placement, Some(MetadataPlacement::Wram));
        assert_eq!(options.tasklets, vec![1, 2, 3]);
        assert_eq!(options.dpus, Some(vec![1, 10]));
        assert!((options.scale - 0.5).abs() < 1e-12);
        assert_eq!(options.seed, 7);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        // Out-of-range counts and scales are usage errors, not mid-run
        // panics or nonsense rows.
        for line in [
            "--tier sram",
            "--workload nope",
            "--stm nope",
            "--bogus",
            "--scale",
            "--tasklets 0",
            "--tasklets 1,25",
            "--dpus 0,10",
            "--dpus 4294967296",
            "--scale 0",
            "--scale -1",
            "--scale nan",
            "--scale inf",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
        // A list entry given twice would run and dump its cells twice.
        for (line, err) in [
            ("--tasklets 2,2", "--tasklets lists 2 twice"),
            ("--tasklets 1,4,1", "--tasklets lists 1 twice"),
            ("--dpus 4,16,4", "--dpus lists 4 twice"),
            ("--rate 50000,50000", "--rate lists 50000 twice"),
            ("--rate 5e4,50000", "--rate lists 50000 twice"),
        ] {
            assert_eq!(parse(line).unwrap_err(), err, "{line}");
        }
        assert!(parse("--tasklets 1,24 --dpus 1 --scale 1e-3").is_ok());
    }

    #[test]
    fn stm_filter_parses_cli_kind_names() {
        let options = parse("--workload array-b --stm tiny-etlwb").unwrap();
        assert_eq!(options.workload, Some(Workload::ArrayB));
        assert_eq!(options.stm, Some(StmKind::TinyEtlWb));
    }

    #[test]
    fn stm_filter_accepts_grid_names_and_explains_struck_cells() {
        let options = parse("--workload array-b --stm orec-etl-wb").unwrap();
        assert_eq!(options.stm, Some(StmKind::TinyEtlWb));
        // A parseable but incoherent cell gets a "why" message, not a bare
        // "unknown".
        let err = parse("--stm norec-etl-wb").unwrap_err();
        assert!(err.contains("struck-out"), "{err}");
        assert!(err.contains("commit-time"), "{err}");
        let err = parse("--stm orec-ctl-wt").unwrap_err();
        assert!(err.contains("encounter-time"), "{err}");
        // Garbage still reads as unknown, naming both grammars.
        let err = parse("--stm bogus").unwrap_err();
        assert!(err.contains("grid:"), "{err}");
    }

    #[test]
    fn retry_flag_parses_and_is_rejected_for_non_sweep_figures() {
        let options = parse("--workload array-b --retry adaptive").unwrap();
        assert_eq!(options.knobs.retry, RetryPolicy::Adaptive);
        assert_eq!(parse("--retry exp").unwrap().knobs.retry, RetryPolicy::Exponential);
        assert!(parse("--retry bogus").is_err());
        let err = accepted("--figure fig6 --retry fixed").unwrap_err();
        assert!(err.contains("--retry"), "{err}");
    }

    #[test]
    fn unknown_figures_are_rejected() {
        assert!(parse("--figure fig99").is_err());
    }

    #[test]
    fn sweep_only_flags_parse_and_are_rejected_elsewhere() {
        let options = parse(
            "--workload array-a --burst-words 8,16,64 --json-out /tmp/cells.json --repeat 3 \
             --read-strategy word-wise",
        )
        .unwrap();
        assert_eq!(options.burst_words, Some(vec![8, 16, 64]));
        assert_eq!(options.json_out.as_deref(), Some("/tmp/cells.json"));
        assert_eq!(options.repeat, 3);
        assert_eq!(options.knobs.read_strategy, ReadStrategy::WordWise);
        // Zero repeats, zero-word caps/records and bad lists are rejected
        // at parse time (a zero cap would otherwise panic deep inside
        // StmConfig).
        for line in [
            "--repeat 0",
            "--burst-words 8,x",
            "--burst-words 8,0",
            "--burst-words 8,500",
            "--record-words 0",
            "--record-words 150",
            "--read-strategy bogus",
            "--burst-words 8,64,8",
            "--skew-thetas 0.9,0.9",
            "--skew-thetas 0,0.0",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
        assert_eq!(parse("--record-words 1").unwrap().record_words, Some(1));
        // The flags only make sense for design-space sweeps.
        for line in [
            "--figure fig6 --burst-words 8",
            "--figure fig7 --json-out x.json",
            "--figure latency --repeat 5",
            "--figure fig8 --read-strategy word-wise",
            "--figure fig6 --record-words 1",
        ] {
            let err = accepted(line).unwrap_err();
            let readers = [" applies to fig4/fig5/fig9/fig10, ", "--workload"];
            assert!(readers.iter().all(|r| err.contains(r)), "{line}: {err}");
        }
    }

    #[test]
    fn fleet_flags_parse_and_default_sensibly() {
        let options = parse("--fleet").unwrap();
        assert!(options.has("--fleet"));
        assert_eq!(options.fleet_dpus(), DEFAULT_FLEET_DPUS.to_vec());
        assert_eq!(
            options.analytic_dpus(),
            vec![1, 250, 500, 1000, 1500, 2000, 2500],
            "fig7/fig8 keep their own default curve"
        );
        let options =
            parse("--fleet --dpus 2,8 --routing abort-retry --skew-thetas 0.0,0.9").unwrap();
        assert_eq!(options.fleet_dpus(), vec![2, 8]);
        assert_eq!(options.routing, Some(RoutingPolicy::AbortAndRetry));
        assert_eq!(options.skew_thetas, Some(vec![0.0, 0.9]));
        let options = parse("--fleet --rebalance threshold:2.0 --overlap --skew-phases 2").unwrap();
        assert_eq!(options.rebalance, Some(RebalancePolicy::Threshold { max_over_mean: 2.0 }));
        assert!(options.has("--overlap"));
        assert_eq!(options.skew_phases, Some(2));
        for line in [
            "--routing bogus",
            "--skew-thetas -1.0",
            "--skew-thetas x",
            "--rebalance bogus",
            "--rebalance threshold:0.5",
            "--skew-phases 0",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn grid_and_tune_flags_parse_and_are_scoped() {
        assert!(parse("--grid").unwrap().has("--grid"));
        // There is no online tuner: its old flags are unknown everywhere.
        for line in ["--grid --tune", "--workload array-b --tune", "--fleet --tune"] {
            let err = parse(line).unwrap_err();
            assert!(err.starts_with("unknown argument --tune"), "{line}: {err}");
        }
        // --grid owns the knob axes it enumerates, and runs cells exactly
        // once on the simulator.
        for line in [
            "--grid --stm norec",
            "--grid --retry fixed",
            "--grid --fleet",
            "--grid --repeat 2",
            "--grid --executor threaded",
        ] {
            assert!(accepted(line).is_err(), "{line}");
        }
    }

    #[test]
    fn asking_for_help_is_not_an_error() {
        for flag in ["--help", "-h"] {
            let options = parse(flag).expect("help is a request, not a mistake");
            assert!(options.has("--help"), "{flag}");
        }
        assert!(!parse("").unwrap().has("--help"));
        // A mistake next to it is still reported.
        assert!(parse("--help --no-such-flag").is_err());
    }

    #[test]
    fn workers_and_cache_dir_flags_parse_and_are_scoped() {
        assert_eq!(parse("").unwrap().workers, 0, "default = every available core");
        let options = parse("--workers 4 --cache-dir /tmp/pim-cache").unwrap();
        assert_eq!(options.workers, 4);
        assert_eq!(options.cache_dir.as_deref(), Some("/tmp/pim-cache"));
        assert_eq!(options.worker_pool().workers(), 4);
        // 0 stays the explicit spelling of "all cores".
        assert_eq!(parse("--workers 0").unwrap().workers, 0);
        assert!(parse("--workers x").is_err());
        assert!(parse("--workers").is_err());
        // The measured fleet never enters the simulation cache.
        let err = accepted("--fleet --cache-dir /tmp/c").unwrap_err();
        assert!(err.contains("--cache-dir"), "{err}");
        // fig6 runs the sweep figures' cells, so it reads both flags.
        assert!(accepted("--figure fig6 --cache-dir /tmp/c").is_ok());
    }

    #[test]
    fn executor_flag_parses_all_forms() {
        assert_eq!(parse_executors("simulator").unwrap(), vec![Executor::Simulator]);
        assert_eq!(parse_executors("sim").unwrap(), vec![Executor::Simulator]);
        assert_eq!(parse_executors("threaded").unwrap(), vec![Executor::Threaded]);
        assert_eq!(parse_executors("both").unwrap(), vec![Executor::Simulator, Executor::Threaded]);
        assert!(parse_executors("gpu").is_err());
        assert_eq!(parse("--workload array-b --executor both").unwrap().executors.len(), 2);
    }

    #[test]
    fn tier_is_rejected_for_every_figure() {
        for (figure, mode) in FIGURES {
            let err = accepted(&format!("--figure {figure} --tier wram")).unwrap_err();
            let readers = "--workload, --grid, --fleet, --service, --service --fleet";
            assert_eq!(err, format!("--tier applies to {readers}, not to {}", mode.name()));
        }
    }

    #[test]
    fn dpus_is_rejected_for_every_figure_but_fig7() {
        assert!(accepted("--figure fig7 --dpus 100").is_ok());
        for figure in ["fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "latency"] {
            let err = accepted(&format!("--figure {figure} --dpus 100")).unwrap_err();
            assert!(err.starts_with("--dpus applies to fig7, --fleet"), "{figure}: {err}");
        }
    }

    #[test]
    fn every_mode_accepts_exactly_the_flags_the_table_says_it_reads() {
        // A sample value after each flag that takes one.
        let samples: Vec<&str> = "--figure fig4 --workload array-a --stm norec --tier wram \
            --executor both --tasklets 2 --dpus 4 --arrival poisson --rate 1000 --mix 60:30:10 \
            --skew zipf:0.9 --routing abort-retry --skew-thetas 0.9 \
            --rebalance threshold --skew-phases 2 --scale 0.5 --seed 7 --repeat 2 \
            --read-strategy word-wise --retry fixed --record-words 1 --burst-words 8 \
            --json-out x.json --workers 2 --cache-dir c"
            .split_whitespace()
            .collect();
        let selecting = [
            (Mode::SweepFigure, "--figure fig4"),
            (Mode::Fig6, "--figure fig6"),
            (Mode::Fig7, "--figure fig7"),
            (Mode::Fig8, "--figure fig8"),
            (Mode::Latency, "--figure latency"),
            (Mode::WorkloadSweep, "--workload array-a"),
            (Mode::Grid, "--grid"),
            (Mode::Fleet, "--fleet"),
            (Mode::Service, "--service"),
            (Mode::ServiceFleet, "--service --fleet"),
        ];
        for flag in FLAGS.iter().filter(|flag| flag.name != "--help") {
            let sample = samples.iter().position(|word| *word == flag.name).map(|i| samples[i + 1]);
            // The parser takes a value exactly when the row names one.
            assert_eq!(sample.is_some(), flag.value.is_some(), "{}", flag.name);
            assert_eq!(parse(flag.name).is_err(), flag.value.is_some(), "{}", flag.name);
            for (mode, selector) in selecting {
                let line = format!("{selector} {} {}", flag.name, sample.unwrap_or(""));
                let options = parse(&line).unwrap();
                let picked = options.mode().unwrap();
                // Only a selecting flag moves the mode (`--fleet` after
                // `--service` picks `--service --fleet`); the run is then
                // accepted iff the picked mode reads every given flag.
                let reads = if picked == mode {
                    flag.reads.contains(&mode)
                } else {
                    assert!(selecting.iter().any(|(_, s)| s.starts_with(flag.name)), "{line}");
                    options.given.iter().all(|given| given.reads.contains(&picked))
                };
                assert_eq!(check(&options, picked).is_ok(), reads, "{line}");
            }
        }
        // The pairs the modes used to accept and ignore, including a value
        // given equal to its default, are rejected with the table's message.
        for line in [
            "--figure fig4 --workload array-a",
            "--figure fig6 --workload array-a",
            "--figure fig7 --workload array-a",
            "--figure fig8 --workload array-a",
            "--figure latency --workload array-a",
            "--figure fig7 --tasklets 2",
            "--figure fig8 --tasklets 2",
            "--figure latency --tasklets 2",
            "--fleet --tasklets 2",
            "--figure latency --scale 0.5",
            "--figure latency --seed 7",
            "--figure fig7 --workers 2",
            "--figure fig8 --workers 2",
            "--figure latency --workers 2",
            "--grid --dpus 4",
            "--grid --retry exponential",
            "--fleet --executor simulator",
            "--grid --repeat 1",
            "--service --workers 0",
        ] {
            let err = accepted(line).unwrap_err();
            assert!(err.contains(" applies to ") && err.contains(", not to "), "{line}: {err}");
        }
        // Every invocation CI runs stays accepted.
        for line in [
            "--workload array-b --stm norec --tasklets 4 --scale 0.05 --executor both --repeat 2",
            "--workload array-b --stm orec-etl-wb --retry adaptive --tasklets 4 --scale 0.05 \
             --executor both --repeat 3 --json-out retry.json",
            "--fleet --dpus 4,16,64 --json-out fleet.json",
            "--fleet --dpus 8,64 --rebalance threshold --overlap --skew-thetas 0.0,0.99 \
             --json-out fleet-adaptive.json",
            "--fleet --dpus 8,64 --rebalance threshold --overlap --routing abort-retry \
             --skew-thetas 0.0,0.99 --repeat 2 --workers 3 --json-out fleet-workers-3.json",
            "--grid --scale 0.02 --workers 2 --cache-dir grid-cache --json-out grid.json",
            "--grid --scale 0.02 --workers 1 --json-out grid-serial.json",
            "--figure fig4 --scale 0.02 --tasklets 1,4 --workers 1 --json-out fig4-workers-1.json",
            "--figure fig4 --scale 0.02 --tasklets 1,4 --workers 2 --cache-dir fig-cache \
             --json-out fig4-workers-2.json",
            "--figure fig5 --scale 0.02 --tasklets 1,4 --cache-dir fig-cache --json-out fig5.json",
            "--figure fig9 --scale 0.02 --tasklets 1,4 --cache-dir fig-cache --json-out fig9.json",
            "--figure fig10 --scale 0.02 --tasklets 1,4 --cache-dir fig-cache --json-out fig10.json",
            "--figure fig6 --scale 0.02 --tasklets 1,4 --workers 2 --cache-dir fig-cache \
             --json-out fig6.json",
            "--service --arrival poisson --rate 50000,200000 --scale 0.1 --executor both \
             --repeat 2 --json-out service.json",
            "--service --fleet --dpus 4 --arrival bursty --rate 100000 --skew zipf:0.9 \
             --scale 0.1 --json-out service-fleet.json",
            "--service --fleet --dpus 4 --arrival bursty --rate 100000 --skew zipf:0.99 \
             --rebalance threshold:1.2 --overlap --scale 0.5 --repeat 2 \
             --json-out service-fleet-1.json",
            "--service --arrival closed-loop --scale 0.1 --executor both \
             --json-out service-closed.json",
        ] {
            assert!(accepted(line).is_ok(), "{line}: {:?}", accepted(line).err());
        }
    }

    #[test]
    fn service_flags_parse_with_defaults_and_validation() {
        let options = parse(
            "--service --arrival bursty:32:0.5 --rate 1000,2000 --mix 60:30:10 --skew zipf:0.9",
        )
        .unwrap();
        assert!(options.has("--service"));
        assert_eq!(options.arrival.as_deref(), Some("bursty:32:0.5"));
        assert_eq!(options.rates, Some(vec![1000.0, 2000.0]));
        assert_eq!(options.mix, Some(RequestMix { get: 60, put: 30, transfer: 10 }));
        assert_eq!(options.skew, Some(KeyDist::Zipf { theta: 0.9 }));
        // Bad values are usage errors, not mid-run panics.
        for line in
            ["--rate 0", "--rate -5", "--rate x", "--mix 0:0:0", "--skew zipf:-1", "--skew pareto"]
        {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn service_mode_runs_and_honours_the_tier_default() {
        // Small stream, one rate: the smoke path of both variants.
        let base = "--service --rate 50000 --tasklets 4 --scale 0.05";
        let run = |extra: &str| run_service_mode(&parse(&format!("{base} {extra}")).unwrap());
        let sweep = run("").unwrap();
        assert_eq!(sweep.points.len(), 1);
        assert_eq!(
            sweep.options.placement,
            MetadataPlacement::Wram,
            "the service mode defaults to WRAM metadata"
        );
        assert_eq!(run("--tier mram").unwrap().options.placement, MetadataPlacement::Mram);
        let sweep = run("--fleet --dpus 2").unwrap();
        assert_eq!(sweep.fleet_points.len(), 1);
        assert_eq!(sweep.fleet_points[0].report.shards, 2);
    }
}
