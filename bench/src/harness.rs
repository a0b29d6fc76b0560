//! The timing loop: warm-up, fixed-work reps, checks, and the traced rep.
//!
//! Work per rep is a constant of the workload (never calibrated by time), so
//! every count repeats exactly; only the *number* of reps follows the time
//! budget when one is given.

use crate::metric::{Manifest, Metric, MetricSet};
use crate::stats::Summary;
use crate::trace::{self, Span, Tracer};
use pim_exp::json::Json;
use std::fmt::Debug;
use std::time::Instant;

/// Fewest timed reps a run reports a median of.
pub const MIN_REPS: usize = 5;
/// Most timed reps a time-budgeted run makes.
const MAX_REPS: usize = 60;
/// Untraced reps a traced run times as the base of `trace_overhead_ratio`.
const TRACE_BASE_REPS: usize = 3;

/// Checks attempted and the ones that failed. `failed_share` is
/// `failures.len() / attempted`; any failure makes the command exit
/// non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn same<T: PartialEq + Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(got == want, || format!("{what}: got {got:?}, want {want:?}"));
    }

    /// [`Checks::same`] for the rep digests, naming the first count that
    /// moved instead of printing both lists.
    pub fn same_digest(&mut self, what: &str, got: &[u64], want: &[u64]) {
        let moved = got.iter().zip(want).position(|(g, w)| g != w);
        self.check(moved.is_none() && got.len() == want.len(), || match moved {
            Some(i) => format!("{what}: count #{i} is {}, was {} on the warm-up", got[i], want[i]),
            None => format!("{what}: {} counts, {} on the warm-up", got.len(), want.len()),
        });
    }
}

/// One benchmark workload: fixed-size, seeded, checked.
pub trait Workload {
    /// Inputs and state one rep consumes; rebuilt for every rep and timed
    /// as `setup_s`.
    type Prepared;
    /// What the measured body of one rep returns.
    type Output;

    /// Labels of the cells spans refer to by index.
    fn cells(&self) -> Vec<String>;
    /// The set-up of one rep.
    fn prepare(&self, tracer: &Tracer) -> Self::Prepared;
    /// The measured body of one rep.
    fn run(&self, prepared: Self::Prepared, tracer: &Tracer) -> Self::Output;
    /// Geometric mean over the workload's cells of committed transactions
    /// per *simulated* second.
    fn model_tx_per_s(&self, output: &Self::Output) -> f64;
    /// The counts of a rep that must repeat exactly from rep to rep.
    fn digest(&self, output: &Self::Output) -> Vec<u64>;
    /// Every correctness check of the workload (run once, on the warm-up
    /// rep, outside the timed region).
    fn verify(&self, output: &Self::Output, checks: &mut Checks);
    /// The per-layer metrics of the traced rep, probes included.
    fn layers(&self, output: &Self::Output, spans: &[Span], metrics: &mut MetricSet<'_>);
}

/// How many timed reps to make.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many.
    Reps(usize),
    /// Until this many seconds have passed since the run began, but at
    /// least [`MIN_REPS`].
    Seconds(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub size: f64,
    pub budget: Budget,
    pub trace: bool,
}

/// Everything one run of one workload measured.
#[derive(Debug)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Quartiles behind each reported median, by metric name.
    pub timings: Vec<(String, Summary)>,
    /// Cell labels and spans of the traced rep (empty when untraced).
    pub cells: Vec<String>,
    pub spans: Vec<Span>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }

    /// Process exit code: non-zero as soon as one check failed.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    /// The driver's result line: exactly the manifest's end-to-end metrics
    /// (untraced) or per-layer metrics (traced). A per-layer metric this
    /// workload never enters reads 0 — "layer not entered" — because the
    /// driver wants every declared name on every run; the ledger omits it.
    pub fn contract_line(&self, manifest: &Manifest) -> String {
        let declared = if self.trace { &manifest.per_layer } else { &manifest.end_to_end };
        let metrics = declared
            .iter()
            .map(|d| {
                let value = match self.metrics.iter().find(|m| m.name == d.name) {
                    Some(m) => m.value,
                    None if self.trace => 0.0,
                    None => panic!("end-to-end metric {} missing on {}", d.name, self.workload),
                };
                let fields =
                    vec![("value".into(), Json::Num(value)), ("unit".into(), Json::str(&d.unit))];
                (d.name.clone(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::u64(self.checks.attempted)),
            ("failed".into(), Json::u64(self.checks.failures.len() as u64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// The full record the `all` command collects from each child.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::str(&m.unit)),
                    ("exact".to_string(), Json::Bool(m.clock == crate::metric::Clock::Exact)),
                ];
                if let Some((_, summary)) = self.timings.iter().find(|(n, _)| *n == m.name) {
                    fields.push(("spread".to_string(), summary.to_json()));
                }
                (m.name.clone(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str(&self.workload)),
            ("seed".into(), Json::u64(self.seed)),
            ("trace".into(), Json::Bool(self.trace)),
            ("attempted".into(), Json::u64(self.checks.attempted)),
            ("failures".into(), Json::Arr(self.checks.failures.iter().map(Json::str).collect())),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Rep<O> {
    setup_s: f64,
    wall_s: f64,
    output: O,
}

fn rep<W: Workload>(workload: &W, tracer: &Tracer) -> Rep<W::Output> {
    let start = Instant::now();
    let prepared = tracer.span("bench/prepare", trace::NO_CELL, || workload.prepare(tracer));
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let output = tracer.span("bench/run", trace::NO_CELL, || workload.run(prepared, tracer));
    Rep { setup_s, wall_s: start.elapsed().as_secs_f64(), output }
}

/// Runs one workload: a warm-up rep that is fully verified, then timed reps
/// whose counts must equal the warm-up's, then — when tracing — one traced
/// rep from which the per-layer metrics are derived.
pub fn run<W: Workload>(
    name: &str,
    workload: &W,
    began: Instant,
    options: RunOptions,
    manifest: &Manifest,
) -> RunResult {
    let off = Tracer::new(false);
    let mut checks = Checks::default();

    let warm = rep(workload, &off);
    workload.verify(&warm.output, &mut checks);
    let digest = workload.digest(&warm.output);
    let model_tx_per_s = workload.model_tx_per_s(&warm.output);
    drop(warm);

    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    loop {
        let done = setups.len();
        let enough = match options.budget {
            _ if options.trace => done >= TRACE_BASE_REPS,
            Budget::Reps(n) => done >= n,
            Budget::Seconds(s) => {
                done >= MAX_REPS || (done >= MIN_REPS && began.elapsed().as_secs_f64() >= s)
            }
        };
        if enough {
            break;
        }
        let timed = rep(workload, &off);
        checks.same_digest(
            "counts repeat from rep to rep",
            &workload.digest(&timed.output),
            &digest,
        );
        setups.push(timed.setup_s);
        walls.push(timed.wall_s);
    }
    let (setup, wall) = (Summary::of(&setups), Summary::of(&walls));

    let mut metrics = MetricSet::new(manifest);
    let mut result = RunResult {
        workload: name.to_string(),
        seed: options.seed,
        trace: options.trace,
        checks,
        metrics: Vec::new(),
        timings: Vec::new(),
        cells: Vec::new(),
        spans: Vec::new(),
    };
    if options.trace {
        let tracer = Tracer::new(true);
        let traced = rep(workload, &tracer);
        result.checks.same_digest(
            "the traced rep counts what the untraced reps count",
            &workload.digest(&traced.output),
            &digest,
        );
        let spans = tracer.into_spans();
        workload.layers(&traced.output, &spans, &mut metrics);
        metrics.wall(
            "trace_overhead_ratio",
            (traced.setup_s + traced.wall_s) / (setup.median + wall.median),
        );
        result.cells = workload.cells();
        result.spans = spans;
    } else {
        metrics.wall("setup_s", setup.median);
        metrics.wall("wall_s", wall.median);
        metrics.exact("model_tx_per_s", model_tx_per_s);
        metrics.wall("peak_rss_mb", peak_rss_mb().expect("/proc/self/status reports VmHWM"));
        result.timings = vec![("setup_s".into(), setup), ("wall_s".into(), wall)];
    }
    result.metrics = metrics.metrics;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_fingerprint_makes_the_run_exit_non_zero() {
        let mut result = RunResult {
            workload: "threaded-2t".into(),
            seed: 7,
            trace: false,
            checks: Checks::default(),
            metrics: Vec::new(),
            timings: Vec::new(),
            cells: Vec::new(),
            spans: Vec::new(),
        };
        result.checks.same("array-b fingerprint across executors", 0xfeed_u64, 0xfeed_u64);
        assert_eq!((result.exit_code(), result.checks.attempted), (0, 1));
        result.checks.same("array-b fingerprint across executors", 0xdead_u64, 0xfeed_u64);
        assert_eq!(result.exit_code(), 1);
        assert!(!result.correct());
        assert_eq!(result.checks.attempted, 2);
        assert!(result.checks.failures[0].contains("fingerprint"), "{:?}", result.checks.failures);
    }

    #[test]
    fn peak_rss_reads_back_a_positive_number() {
        assert!(peak_rss_mb().expect("linux exposes VmHWM") > 0.0);
    }
}
