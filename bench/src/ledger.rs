//! `all` and `verify`: every workload in a child process of its own (so
//! `peak_rss_mb` is per workload), the ledger entry, and the comparison of
//! two sets of runs.

use crate::harness::Budget;
use crate::metric::{number, Manifest};
use crate::{out_dir, Cli, DEFAULT_SEED};
use pim_exp::json::{self, Json};
use std::fs::File;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Relative difference below which two modeled values count as equal when
/// compared against `expected.json` (libm may differ in the last place
/// between machines; within one machine `verify` demands identical bits).
const EXPECTED_REL_TOLERANCE: f64 = 1e-9;

/// Name of the full record a single-workload run leaves in `bench/out/`.
pub fn result_file(workload: &str, trace: bool) -> String {
    format!("result-{workload}-trace{}.json", u8::from(trace))
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Runs one workload in a child of this executable and reads back its
/// record. The child's exit code is not an error here: a failed check is
/// in the record.
fn child(cli: &Cli, workload: &str, trace: bool) -> Result<Json, String> {
    let out = out_dir();
    let record = out.join(result_file(workload, trace));
    // A stale record must not pass for this run's.
    let _ = std::fs::remove_file(&record);
    let log = out.join(format!("{workload}-trace{}.stderr.log", u8::from(trace)));
    let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &cli.seed.to_string()]);
    command.args(["--trace", if trace { "1" } else { "0" }]);
    match cli.budget {
        Some(Budget::Reps(n)) => drop(command.args(["--reps", &n.to_string()])),
        Some(Budget::Seconds(s)) => drop(command.args(["--seconds", &s.to_string()])),
        None => {}
    }
    if cli.quick {
        command.arg("--quick");
    }
    let status = command
        .stdout(Stdio::inherit())
        .stderr(stderr)
        .status()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let text = std::fs::read_to_string(&record).map_err(|_| {
        format!(
            "the {workload} child left no record ({status}); its stderr is in {}",
            log.display()
        )
    })?;
    json::parse(&text).map_err(|e| format!("{}: {e}", record.display()))
}

/// Every workload, untraced then traced: `(name, untraced, traced)`.
fn collect(cli: &Cli, manifest: &Manifest) -> Result<Vec<(String, Json, Json)>, String> {
    manifest
        .workloads
        .iter()
        .map(|(name, _)| Ok((name.clone(), child(cli, name, false)?, child(cli, name, true)?)))
        .collect()
}

fn fields(value: &Json) -> &[(String, Json)] {
    match value {
        Json::Obj(fields) => fields,
        _ => &[],
    }
}

fn failures(record: &Json) -> Vec<String> {
    match record.get("failures") {
        Some(Json::Arr(items)) => items.iter().map(|f| f.to_string()).collect(),
        _ => vec!["record without a failures list".into()],
    }
}

/// Every failed check of a set of runs, prefixed with its workload.
fn failed_checks(runs: &[(String, Json, Json)]) -> Vec<String> {
    let of = |name: &str, record: &Json| -> Vec<String> {
        failures(record).into_iter().map(|f| format!("{name}: {f}")).collect()
    };
    runs.iter()
        .flat_map(|(name, untraced, traced)| [of(name, untraced), of(name, traced)])
        .flatten()
        .collect()
}

fn first_line_of(command: &str, args: &[&str]) -> String {
    Command::new(command)
        .args(args)
        .current_dir(bench_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were measured on.
fn machine() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::Obj(vec![
        ("nproc".into(), Json::u64(nproc)),
        ("cpu_model".into(), Json::str(cpu)),
        ("rustc".into(), Json::str(first_line_of("rustc", &["-V"]))),
        ("git_sha".into(), Json::str(first_line_of("git", &["rev-parse", "HEAD"]))),
    ])
}

fn ledger_entry(cli: &Cli, runs: &[(String, Json, Json)]) -> Json {
    let workloads = runs
        .iter()
        .map(|(name, untraced, traced)| {
            let attempted: f64 =
                [untraced, traced].iter().map(|r| r.get("attempted").map_or(0.0, number)).sum();
            let failed = failures(untraced).len() + failures(traced).len();
            let entry = Json::Obj(vec![
                ("attempted".into(), Json::u64(attempted as u64)),
                ("failed".into(), Json::u64(failed as u64)),
                ("end_to_end".into(), untraced.get("metrics").cloned().unwrap_or(Json::Null)),
                ("per_layer".into(), traced.get("metrics").cloned().unwrap_or(Json::Null)),
            ]);
            (name.clone(), entry)
        })
        .collect();
    let reps = match cli.options().budget {
        Budget::Reps(n) => Json::u64(n as u64),
        Budget::Seconds(s) => Json::str(format!("{s} s")),
    };
    Json::Obj(vec![
        ("schema".into(), Json::u64(1)),
        ("machine".into(), machine()),
        ("seed".into(), Json::u64(cli.seed)),
        ("reps".into(), reps),
        ("quick".into(), Json::Bool(cli.quick)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

/// The exact (count and modeled) metrics of a set of runs, by workload:
/// what `expected.json` pins for the default seed.
fn exact_counts(cli: &Cli, runs: &[(String, Json, Json)]) -> Json {
    let workloads = runs
        .iter()
        .map(|(name, untraced, traced)| {
            let exact = [untraced, traced]
                .into_iter()
                .flat_map(|record| fields(record.get("metrics").unwrap_or(&Json::Null)))
                .filter(|(_, m)| m.get("exact") == Some(&Json::Bool(true)))
                .map(|(metric, m)| (metric.clone(), m.get("value").cloned().unwrap_or(Json::Null)))
                .collect();
            (name.clone(), Json::Obj(exact))
        })
        .collect();
    Json::Obj(vec![
        ("seed".into(), Json::u64(cli.seed)),
        ("workloads".into(), Json::Obj(workloads)),
    ])
}

/// Differences between this run's exact metrics and the committed
/// `expected.json`; a metric on one side only is a difference.
fn expected_drift(got: &Json, want: &Json) -> Vec<String> {
    let mut drift = Vec::new();
    let (got, want) = (got.get("workloads"), want.get("workloads"));
    let (got, want) = (fields(got.unwrap_or(&Json::Null)), fields(want.unwrap_or(&Json::Null)));
    for (workload, wanted) in want {
        let Some((_, measured)) = got.iter().find(|(w, _)| w == workload) else {
            drift.push(format!("{workload}: not run"));
            continue;
        };
        for (metric, value) in fields(wanted) {
            match measured.get(metric).map(number) {
                None => drift.push(format!("{workload} {metric}: no longer reported")),
                Some(got) => {
                    let want = number(value);
                    if (got - want).abs() > EXPECTED_REL_TOLERANCE * want.abs() {
                        drift.push(format!("{workload} {metric}: got {got}, expected {want}"));
                    }
                }
            }
        }
        for (metric, _) in fields(measured) {
            if wanted.get(metric).is_none() {
                drift.push(format!("{workload} {metric}: not in expected.json"));
            }
        }
    }
    drift
}

/// Indented JSON with one metric per line, so two ledger entries diff line
/// by line. Objects nest down to the metric tables; a metric is one line.
pub fn pretty(value: &Json, depth: usize, out: &mut String) {
    const EXPAND_DEPTH: usize = 3;
    match value {
        Json::Obj(fields) if depth <= EXPAND_DEPTH && !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (key, field)) in fields.iter().enumerate() {
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&Json::str(key).to_string());
                out.push_str(": ");
                pretty(field, depth + 1, out);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

fn write_pretty(path: PathBuf, value: &Json) -> Result<(), String> {
    let mut text = String::new();
    pretty(value, 0, &mut text);
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Names the manifest declares that no workload produced, and the reverse
/// is checked where a metric is emitted.
fn never_emitted(manifest: &Manifest, runs: &[(String, Json, Json)]) -> Vec<String> {
    let produced = |name: &str, traced: bool| {
        runs.iter().any(|(_, u, t)| {
            (if traced { t } else { u }).get("metrics").is_some_and(|m| m.get(name).is_some())
        })
    };
    let missing_layer = manifest.per_layer.iter().filter(|d| !produced(&d.name, true));
    let missing_e2e = manifest.end_to_end.iter().filter(|d| !produced(&d.name, false));
    missing_layer.chain(missing_e2e).map(|d| d.name.clone()).collect()
}

/// Runs everything once, prints what failed, writes `out/ledger.json` and
/// `out/expected.json`, and exits non-zero if any check failed.
pub fn all(cli: &Cli, manifest: &Manifest) -> Result<ExitCode, String> {
    let runs = collect(cli, manifest)?;
    let mut problems = failed_checks(&runs);
    problems.extend(
        never_emitted(manifest, &runs)
            .into_iter()
            .map(|m| format!("{m}: declared but never emitted")),
    );

    let out = out_dir();
    let counts = exact_counts(cli, &runs);
    write_pretty(out.join("ledger.json"), &ledger_entry(cli, &runs))?;
    write_pretty(out.join("expected.json"), &counts)?;
    let expected = bench_dir().join("expected.json");
    if cli.seed == DEFAULT_SEED && !cli.quick {
        match std::fs::read_to_string(&expected) {
            Ok(text) => {
                let want =
                    json::parse(&text).map_err(|e| format!("{}: {e}", expected.display()))?;
                problems.extend(expected_drift(&counts, &want));
            }
            Err(_) => println!("no {} yet: copy out/expected.json there", expected.display()),
        }
    }
    println!("ledger entry: {}", out.join("ledger.json").display());
    for problem in &problems {
        println!("FAILED: {problem}");
    }
    println!("{} workloads, {} problems", runs.len(), problems.len());
    Ok(ExitCode::from(u8::from(!problems.is_empty())))
}

/// The value of every metric of one set of runs: `(workload, name, value,
/// exact)`.
fn flatten(runs: &[(String, Json, Json)]) -> Vec<(String, String, f64, bool)> {
    let mut flat = Vec::new();
    for (workload, untraced, traced) in runs {
        for record in [untraced, traced] {
            for (name, m) in fields(record.get("metrics").unwrap_or(&Json::Null)) {
                let exact = m.get("exact") == Some(&Json::Bool(true));
                flat.push((
                    workload.clone(),
                    name.clone(),
                    m.get("value").map_or(f64::NAN, number),
                    exact,
                ));
            }
        }
    }
    flat
}

/// Two full sets of runs of the same binary and seed. Passes only if every
/// exact metric is bit-identical and every bounded wall metric's two
/// medians differ by less than its bound.
pub fn verify(cli: &Cli, manifest: &Manifest) -> Result<ExitCode, String> {
    let first = collect(cli, manifest)?;
    let second = collect(cli, manifest)?;
    let mut problems = failed_checks(&first);
    problems.extend(failed_checks(&second));
    let (a, b) = (flatten(&first), flatten(&second));
    if a.len() != b.len() {
        problems.push(format!("the two sets report {} and {} metrics", a.len(), b.len()));
    }
    let (mut exact, mut bounded) = (0, 0);
    for ((workload, name, x, is_exact), (_, other, y, _)) in a.iter().zip(&b) {
        if name != other {
            problems.push(format!("{workload}: metric order differs ({name} vs {other})"));
        } else if *is_exact {
            exact += 1;
            if x.to_bits() != y.to_bits() {
                problems.push(format!("{workload} {name}: exact metric moved, {x} vs {y}"));
            }
        } else if let Some(bound) = manifest.declared(name).and_then(|d| d.bound) {
            bounded += 1;
            let spread = (x - y).abs() / x.min(*y);
            let verdict = if spread < bound { "ok" } else { "OUT OF BOUND" };
            println!("verify {workload:<14} {name:<12} {x:>12.6} {y:>12.6}  diff {:>5.1} %  bound {:>4.1} %  {verdict}", spread * 100.0, bound * 100.0);
            if spread >= bound {
                problems.push(format!(
                    "{workload} {name}: {x} vs {y} differ by {:.1} %, bound {:.1} %",
                    spread * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    println!("verify: {exact} exact metrics compared bit for bit, {bounded} bounded wall metrics compared");
    for problem in &problems {
        println!("FAILED: {problem}");
    }
    println!("verify: {}", if problems.is_empty() { "PASS" } else { "FAIL" });
    Ok(ExitCode::from(u8::from(!problems.is_empty())))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(workload: &str, metrics: &[(&str, f64)]) -> Json {
        let metrics = metrics.iter().map(|(n, v)| (n.to_string(), Json::Num(*v))).collect();
        Json::Obj(vec![(
            "workloads".into(),
            Json::Obj(vec![(workload.into(), Json::Obj(metrics))]),
        )])
    }

    #[test]
    fn expected_drift_names_moved_missing_and_new_metrics() {
        let want =
            counts("sim-short-tx", &[("pim-sim.steps", 1000.0), ("model_tx_per_s", 17285.6)]);
        assert!(expected_drift(&want, &want).is_empty());
        let ulp = counts(
            "sim-short-tx",
            &[("pim-sim.steps", 1000.0), ("model_tx_per_s", 17285.6 * (1.0 + 1e-12))],
        );
        assert!(
            expected_drift(&ulp, &want).is_empty(),
            "a last-place libm difference is not drift"
        );
        let moved = counts("sim-short-tx", &[("pim-sim.steps", 1001.0), ("pim-stm.aborts", 3.0)]);
        let drift = expected_drift(&moved, &want);
        assert_eq!(drift.len(), 3, "{drift:?}");
        assert!(drift[0].contains("pim-sim.steps: got 1001"));
        assert!(drift[1].contains("model_tx_per_s: no longer reported"));
        assert!(drift[2].contains("pim-stm.aborts: not in expected.json"));
    }

    #[test]
    fn pretty_puts_one_metric_per_line_and_round_trips() {
        let metric =
            Json::Obj(vec![("value".into(), Json::Num(1.5)), ("unit".into(), Json::str("s"))]);
        let table = Json::Obj(vec![("wall_s".into(), metric.clone()), ("setup_s".into(), metric)]);
        let workload = Json::Obj(vec![("end_to_end".into(), table)]);
        let doc = Json::Obj(vec![("workloads".into(), Json::Obj(vec![("w".into(), workload)]))]);
        let mut text = String::new();
        pretty(&doc, 0, &mut text);
        assert!(text.contains("\n        \"wall_s\": {\"value\":1.5,\"unit\":\"s\"},\n"), "{text}");
        assert_eq!(json::parse(&text).unwrap(), doc);
    }
}
