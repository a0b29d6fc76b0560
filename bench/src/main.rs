//! The perf ledger: six named workloads on two clocks, every layer timed
//! from outside. See `README.md` next to this package.
//!
//! ```text
//! perf-ledger --workload <name> [--seed N] [--seconds S | --reps N] [--trace 0|1] [--quick]
//! perf-ledger all    [--seed N] [--reps N] [--quick]
//! perf-ledger verify [--seed N] [--reps N] [--quick]
//! ```
//!
//! The first form runs one workload in this process and prints the driver's
//! result line last; `all` runs every workload, untraced then traced, each
//! in a child process, and writes the ledger entry; `verify` does that
//! twice and compares.

mod harness;
mod ledger;
mod metric;
mod probes;
mod stats;
mod trace;
mod workloads;

use harness::{Budget, RunOptions, RunResult};
use metric::Manifest;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The seed the committed ledger and `expected.json` are measured at.
pub const DEFAULT_SEED: u64 = 7;
/// Timed reps per workload when neither `--reps` nor `--seconds` is given.
const DEFAULT_REPS: usize = 7;
/// Size factor of `--quick`.
const QUICK_SIZE: f64 = 0.05;

/// `bench/out/`, where traces, child results and cache directories go.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("bench/out can be created");
    dir
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// `all`, `verify`, or `None` for one workload.
    pub command: Option<String>,
    pub workload: Option<String>,
    pub seed: u64,
    pub budget: Option<Budget>,
    pub trace: bool,
    pub quick: bool,
}

impl Cli {
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            command: None,
            workload: None,
            seed: DEFAULT_SEED,
            budget: None,
            trace: false,
            quick: false,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value =
                |what: &str| args.next().cloned().ok_or_else(|| format!("{arg} needs {what}"));
            match arg.as_str() {
                "all" | "verify" if cli.command.is_none() => cli.command = Some(arg.clone()),
                "--workload" => cli.workload = Some(value("a workload name")?),
                "--seed" => {
                    cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let seconds: f64 =
                        value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err(format!("--seconds must be positive, got {seconds}"));
                    }
                    cli.budget = Some(Budget::Seconds(seconds));
                }
                "--reps" => {
                    let reps: usize =
                        value("a number")?.parse().map_err(|e| format!("--reps: {e}"))?;
                    if reps == 0 {
                        return Err("--reps must be at least 1".into());
                    }
                    cli.budget = Some(Budget::Reps(reps));
                }
                "--trace" => {
                    cli.trace = match value("0 or 1")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--quick" => cli.quick = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if cli.command.is_none() && cli.workload.is_none() {
            return Err("give --workload <name>, or the command `all` or `verify`".into());
        }
        Ok(cli)
    }

    /// `--quick` is one rep at a twentieth of the size unless told otherwise.
    pub fn options(&self) -> RunOptions {
        let default_reps = if self.quick { 1 } else { DEFAULT_REPS };
        RunOptions {
            seed: self.seed,
            size: if self.quick { QUICK_SIZE } else { 1.0 },
            budget: self.budget.unwrap_or(Budget::Reps(default_reps)),
            trace: self.trace,
        }
    }
}

/// Runs the workload called `name` in this process.
pub fn run_workload(
    name: &str,
    options: RunOptions,
    manifest: &Manifest,
) -> Result<RunResult, String> {
    let began = Instant::now();
    let (seed, size) = (options.seed, options.size);
    Ok(match name {
        "sim-short-tx" => {
            harness::run(name, &workloads::sim::short(seed, size), began, options, manifest)
        }
        "sim-long-tx" => {
            harness::run(name, &workloads::sim::long(seed, size), began, options, manifest)
        }
        "threaded-2t" => {
            harness::run(name, &workloads::threaded::new(seed, size), began, options, manifest)
        }
        "fleet-rounds" => {
            harness::run(name, &workloads::fleet::new(seed, size), began, options, manifest)
        }
        "service-load" => {
            harness::run(name, &workloads::service::new(seed, size), began, options, manifest)
        }
        "exp-grid-warm" => {
            harness::run(name, &workloads::exp::new(seed, size), began, options, manifest)
        }
        other => {
            let known: Vec<&str> = manifest.workloads.iter().map(|(n, _)| n.as_str()).collect();
            return Err(format!("unknown workload {other:?} (want one of {})", known.join(", ")));
        }
    })
}

/// One workload, as the driver runs it: every metric by name with its
/// unit, the failures if any, and the result line last.
fn single(cli: &Cli, manifest: &Manifest) -> Result<ExitCode, String> {
    let name = cli.workload.as_deref().expect("checked by Cli::parse");
    let result = run_workload(name, cli.options(), manifest)?;
    let out = out_dir();
    if result.trace {
        let trace = trace::to_json(name, &result.cells, &result.spans);
        std::fs::write(out.join(format!("trace-{name}.json")), trace.to_string())
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    std::fs::write(out.join(ledger::result_file(name, result.trace)), result.to_json().to_string())
        .map_err(|e| format!("writing the result: {e}"))?;
    println!("{name} seed={} trace={}", result.seed, u8::from(result.trace));
    for m in &result.metrics {
        let spread =
            result.timings.iter().find(|(n, _)| *n == m.name).map_or(String::new(), |(_, s)| {
                format!(
                    "  (q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {})",
                    s.q1, s.q3, s.min, s.max, s.n
                )
            });
        println!("  {:<48} {:>18.6} {}{spread}", m.name, m.value, m.unit);
    }
    let failed = result.checks.failures.len() as u64;
    println!(
        "  {:<48} {:>18.6} ratio  ({failed} of {} checks)",
        "failed_share",
        failed as f64 / result.checks.attempted.max(1) as f64,
        result.checks.attempted
    );
    for failure in &result.checks.failures {
        println!("  FAILED: {failure}");
    }
    println!("{}", result.contract_line(manifest));
    Ok(ExitCode::from(result.exit_code() as u8))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let manifest = Manifest::load();
    let outcome = Cli::parse(&args).and_then(|cli| match cli.command.as_deref() {
        Some("all") => ledger::all(&cli, &manifest),
        Some("verify") => ledger::verify(&cli, &manifest),
        _ => single(&cli, &manifest),
    });
    outcome.unwrap_or_else(|message| {
        eprintln!("perf-ledger: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_command_line_parses() {
        let cli = parse(&[
            "--workload",
            "fleet-rounds",
            "--seed",
            "31",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("fleet-rounds"));
        assert_eq!((cli.seed, cli.trace, cli.budget), (31, true, Some(Budget::Seconds(10.0))));
        assert_eq!(cli.options().size, 1.0);
    }

    #[test]
    fn all_defaults_to_seven_reps_at_the_default_seed() {
        let cli = parse(&["all"]).unwrap();
        let options = cli.options();
        assert_eq!((options.seed, options.budget), (DEFAULT_SEED, Budget::Reps(7)));
        let quick = parse(&["all", "--quick"]).unwrap().options();
        assert_eq!((quick.size, quick.budget), (QUICK_SIZE, Budget::Reps(1)));
    }

    /// Every workload, untraced and traced, at a hundredth of its size: the
    /// names a run emits and the names `BENCHMARK.json` declares are the
    /// same set (an undeclared name already panics where it is emitted).
    #[test]
    fn every_declared_metric_is_emitted_and_every_emitted_metric_is_declared() {
        let manifest = Manifest::load();
        let mut emitted = std::collections::BTreeSet::new();
        for (name, _) in &manifest.workloads {
            for trace in [false, true] {
                let options = RunOptions { seed: 3, size: 0.01, budget: Budget::Reps(1), trace };
                let result = run_workload(name, options, &manifest).unwrap();
                assert!(result.correct(), "{name}: {:?}", result.checks.failures);
                assert!(result.checks.attempted > 0, "{name} checks nothing");
                emitted.extend(result.metrics.into_iter().map(|m| m.name));
            }
        }
        let declared: std::collections::BTreeSet<String> =
            manifest.end_to_end.iter().chain(&manifest.per_layer).map(|d| d.name.clone()).collect();
        let undeclared: Vec<_> = emitted.difference(&declared).collect();
        let never_emitted: Vec<_> = declared.difference(&emitted).collect();
        assert!(
            undeclared.is_empty() && never_emitted.is_empty(),
            "undeclared {undeclared:?}, never emitted {never_emitted:?}"
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &[][..],
            &["--workload"],
            &["--trace", "2", "--workload", "x"],
            &["--reps", "0", "all"],
            &["--seconds", "-1", "all"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let manifest = Manifest::load();
        let options = parse(&["--workload", "nope"]).unwrap().options();
        assert!(run_workload("nope", options, &manifest).unwrap_err().contains("sim-short-tx"));
    }
}
