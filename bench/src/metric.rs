//! Named metrics and the manifest (`BENCHMARK.json`) that declares them.

use pim_exp::json::{self, Json};

/// Which of the two clocks a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// A count or a modeled (simulated-time) value: a pure function of the
    /// seed and the code, so two runs agree bit for bit.
    Exact,
    /// Host time or memory: differs from run to run.
    Wall,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub clock: Clock,
}

/// One declared metric of the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`, embedded at build time so the program and
/// the file the driver reads cannot drift apart unnoticed.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
    pub run_seconds: u64,
}

const MANIFEST_TEXT: &str = include_str!("../../BENCHMARK.json");

impl Manifest {
    pub fn load() -> Manifest {
        let doc = json::parse(MANIFEST_TEXT).expect("BENCHMARK.json is valid JSON");
        let text = |v: &Json, key: &str| match v.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("BENCHMARK.json: {key} must be a string, got {other:?}"),
        };
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("BENCHMARK.json: {key} must be an array, got {other:?}"),
        };
        let declared = |v: &Json| Declared {
            name: text(v, "name"),
            unit: text(v, "unit"),
            better: text(v, "better"),
            bound: v.get("bound").map(number),
        };
        Manifest {
            workloads: list("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: list("end_to_end").iter().map(declared).collect(),
            per_layer: list("per_layer").iter().map(declared).collect(),
            run_seconds: doc.get("run_seconds").map(number).expect("run_seconds") as u64,
        }
    }

    pub fn declared(&self, name: &str) -> Option<&Declared> {
        self.end_to_end.iter().chain(&self.per_layer).find(|d| d.name == name)
    }
}

/// A JSON number as `f64` (the parser keeps unsigned integers apart).
pub fn number(value: &Json) -> f64 {
    match value {
        Json::UInt(n) => *n as f64,
        Json::Num(n) => *n,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// Whether `name` fits the driver's charset `[A-Za-z0-9_.-]+`, starts with
/// a letter or digit and is at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let body = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(body)
}

/// The metrics one run produced, each looked up in the manifest for its
/// unit as it is added — so a name the manifest lacks fails at the emit
/// site, not in the driver.
pub struct MetricSet<'m> {
    manifest: &'m Manifest,
    pub metrics: Vec<Metric>,
}

impl<'m> MetricSet<'m> {
    pub fn new(manifest: &'m Manifest) -> Self {
        MetricSet { manifest, metrics: Vec::new() }
    }

    fn push(&mut self, name: &str, value: f64, clock: Clock) {
        assert!(valid_name(name), "metric name {name:?} is outside [A-Za-z0-9_.-]+");
        let declared = self
            .manifest
            .declared(name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in BENCHMARK.json"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.metrics.iter().any(|m| m.name == name),
            "metric {name} emitted twice in one run"
        );
        self.metrics.push(Metric { name: name.into(), unit: declared.unit.clone(), value, clock });
    }

    /// A count or modeled value (see [`Clock::Exact`]).
    pub fn exact(&mut self, name: &str, value: f64) {
        self.push(name, value, Clock::Exact);
    }

    /// A host-time or host-memory value (see [`Clock::Wall`]).
    pub fn wall(&mut self, name: &str, value: f64) {
        self.push(name, value, Clock::Wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_driver_charset() {
        for ok in ["wall_s", "pim-sim.steps", "pim-stm.probe_ns_per_read.vr-ctl-wb", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "-dash", "tx/s", "two words", "naïve", too_long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn the_manifest_obeys_the_driver_limits() {
        let manifest = Manifest::load();
        assert!((2..=8).contains(&manifest.workloads.len()));
        assert!((1..=16).contains(&manifest.end_to_end.len()));
        assert!((1..=128).contains(&manifest.per_layer.len()));
        assert!((1..=60).contains(&manifest.run_seconds));
        let mut names: Vec<&str> = manifest.workloads.iter().map(|(n, _)| n.as_str()).collect();
        for (_, why) in &manifest.workloads {
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        for d in manifest.end_to_end.iter().chain(&manifest.per_layer) {
            names.push(&d.name);
            assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "{}", d.name);
            assert!(
                d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                d.name,
                d.unit
            );
        }
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        let setup = manifest.declared("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        for d in &manifest.end_to_end {
            let bound = d.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
            assert!(bound <= setup.bound.unwrap(), "setup_s carries the largest bound");
        }
        assert!(MANIFEST_TEXT.len() <= 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_fails_where_it_is_emitted() {
        let manifest = Manifest::load();
        MetricSet::new(&manifest).wall("pim-sim.no_such_metric", 1.0);
    }
}
