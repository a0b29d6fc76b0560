//! Runs the built `pim-exp` binary once per mode at a tiny scale, plus
//! `--help`, the usage errors and three `--json-out` dumps: the dispatch in
//! `main` that the unit tests, which call its parts, never execute.

use std::process::{Command, Output};

use pim_exp::grid::enumerate_cells;
use pim_exp::json::{self, Json};

fn pim_exp(line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pim-exp"))
        .args(line.split_whitespace())
        .output()
        .expect("the pim-exp binary starts")
}

#[test]
fn every_mode_runs_and_prints_its_banner() {
    for (line, banners) in [
        (
            "--figure fig10 --scale 0.01 --tasklets 1 --stm norec",
            &["== kmeans-lc (wram metadata, Fig. 5a/e/i, simulator) =="][..],
        ),
        ("--figure fig6 --scale 0.01 --tasklets 1", &["== Fig. 6: normalised peak throughput ("]),
        ("--figure fig7 --scale 0.01 --dpus 4", &["== Fig. 7: speed-up vs CPU (Kmeans LC) =="]),
        ("--figure fig8 --scale 0.01", &["== Fig. 8: speed-up and energy gain at 2500 DPUs =="]),
        ("--figure latency", &["== §3.1: local vs CPU-mediated word read =="]),
        (
            "--workload array-a --stm norec --tasklets 2 --scale 0.01 --executor both --repeat 2",
            &[
                "== array-a (mram metadata, Fig. 4a/e/i, simulator) ==",
                "== array-a (mram metadata, Fig. 4a/e/i, threaded) ==",
            ],
        ),
        (
            "--grid --scale 0.01 --tasklets 1 --burst-words 64",
            &["== grid: full design-space search =="],
        ),
        (
            "--fleet --dpus 4 --scale 0.01 --skew-thetas 0",
            &["== fleet: measured multi-DPU sharded runtime =="],
        ),
        (
            "--service --rate 50000 --scale 0.01 --tasklets 2",
            &["== service: latency under offered load ==", "\nlatency under load"],
        ),
        (
            "--service --fleet --dpus 4 --rate 50000 --scale 0.01 --tasklets 2",
            &["== service: latency under offered load ==", "\nfleet latency under load"],
        ),
    ] {
        let output = pim_exp(line);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "{line}: {}", String::from_utf8_lossy(&output.stderr));
        for banner in banners {
            assert!(stdout.contains(banner), "{line}: no {banner:?} in\n{stdout}");
        }
    }
}

/// Runs `line` with `--json-out` into a per-process temporary file and
/// returns the parsed dump.
fn json_dump(line: &str, name: &str) -> Json {
    let path = std::env::temp_dir().join(format!("pim-exp-cli-{}-{name}.json", std::process::id()));
    let output = pim_exp(&format!("{line} --json-out {}", path.display()));
    assert!(output.status.success(), "{line}: {}", String::from_utf8_lossy(&output.stderr));
    let text = std::fs::read_to_string(&path).expect("the dump was written");
    let _ = std::fs::remove_file(&path);
    json::parse(&text).expect("the dump parses")
}

/// The knob keys of one dumped cell, in the cell's order, as `key=value`.
fn knobs_of(cell: &Json) -> String {
    let Json::Obj(fields) = cell else { panic!("a cell is an object: {cell}") };
    let knobs = ["retry", "read_strategy", "write_back", "lock_order", "max_burst_words"];
    let knob_fields = fields.iter().filter(|(key, _)| knobs.contains(&key.as_str()));
    knob_fields.map(|(key, value)| format!("{key}={value}")).collect::<Vec<_>>().join(" ")
}

#[test]
fn json_dumps_carry_every_cells_knob_vector() {
    // Sweep cells list the knobs the flags set, in schema order: the
    // `--burst-words` cap that is not the default first, then the base sweep.
    let sweep = json_dump(
        "--workload array-b --stm norec --tasklets 2 --scale 0.01 --read-strategy word-wise \
         --retry fixed --burst-words 8,64",
        "sweep",
    );
    let Json::Arr(cells) = sweep else { panic!("a sweep dump is an array") };
    let cell = |cap| format!(r#"read_strategy="word-wise" retry="fixed" max_burst_words={cap}"#);
    assert_eq!(cells.iter().map(knobs_of).collect::<Vec<_>>(), [cell(8), cell(64)]);
    // Grid cells list all five knobs, and are exactly the enumerated grid.
    let grid = json_dump("--grid --scale 0.01 --tasklets 1 --burst-words 64", "grid");
    let Some(Json::Arr(cells)) = grid.get("cells") else { panic!("a grid dump has cells") };
    let stm = |cell: &Json| cell.get("stm").expect("a cell names its design").to_string();
    let mut dumped: Vec<String> =
        cells.iter().map(|c| format!("{} {}", stm(c), knobs_of(c))).collect();
    let mut enumerated: Vec<String> = enumerate_cells(&[64])
        .iter()
        .map(|spec| {
            let (kind, k) = (spec.kind.grid_name(), spec.knobs);
            format!(
                r#""{kind}" retry="{}" read_strategy="{}" write_back="{}" lock_order="{}" max_burst_words={}"#,
                k.retry, k.read_strategy, k.write_back, k.lock_order, k.max_burst_words
            )
        })
        .collect();
    dumped.sort();
    enumerated.sort();
    assert_eq!((dumped.len(), dumped), (108, enumerated));
}

/// A number in a parsed dump, whichever way the parser spelled it.
fn number(json: &Json) -> f64 {
    match json {
        Json::Num(n) => *n,
        Json::UInt(n) => *n as f64,
        other => panic!("not a number: {other}"),
    }
}

/// The value under `key` in a parsed dump object.
fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    json.get(key).unwrap_or_else(|| panic!("no {key} in {json}"))
}

#[test]
fn repeated_cells_carry_a_spread_only_on_threads() {
    // A grid-named design, adaptive retry and three repeats on both
    // executors: threaded cells summarise their runs, simulator cells are
    // deterministic and carry none.
    let dump = json_dump(
        "--workload array-b --stm orec-etl-wb --retry adaptive --tasklets 4 --scale 0.05 \
         --executor both --repeat 3",
        "repeat",
    );
    let Json::Arr(cells) = dump else { panic!("a sweep dump is an array") };
    assert!(!cells.is_empty(), "the sweep must dump at least one cell");
    for cell in &cells {
        assert_eq!(field(cell, "retry"), &Json::str("adaptive"), "{cell}");
        assert_eq!(field(cell, "stm"), &Json::str("Tiny ETLWB"), "{cell}");
        let spread = field(cell, "repeat_spread");
        if field(cell, "executor") == &Json::str("threaded") {
            let stat = |key: &str| number(field(spread, key));
            assert_eq!(stat("runs"), 3.0, "{cell}");
            let (min, max) = (stat("min_total_time"), stat("max_total_time"));
            for middle in ["median_total_time", "mean_total_time"] {
                assert!(min <= stat(middle) && stat(middle) <= max, "{middle}: {cell}");
            }
            assert!(stat("ci95_total_time") >= 0.0, "{cell}");
        } else {
            assert_eq!(spread, &Json::Null, "simulator cells are deterministic; no spread");
        }
    }
}

#[test]
fn help_names_every_flag() {
    let flags = "--figure --workload --stm --tier --executor --tasklets --dpus --fleet --grid \
                 --service --arrival --rate --mix --skew --routing --skew-thetas \
                 --rebalance --overlap --skew-phases --scale --seed --repeat \
                 --read-strategy --retry --record-words --burst-words --json-out --workers \
                 --cache-dir --help";
    let output = pim_exp("--help");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (_, listed) = stdout.split_once("\nflags").expect("--help has a flags section");
    for flag in flags.split_whitespace() {
        let named = |line: &str| line.split_whitespace().next() == Some(flag);
        assert!(listed.lines().any(named), "--help does not name {flag}:\n{stdout}");
    }
}

#[test]
fn a_flag_the_mode_does_not_read_is_rejected() {
    let output = pim_exp("--figure latency --scale 0.5");
    assert_eq!(output.status.code(), Some(1));
    let expected = "--scale applies to fig4/fig5/fig9/fig10, fig6, fig7, fig8, --workload, \
                    --grid, --fleet, --service, --service --fleet, not to latency\n";
    assert_eq!(String::from_utf8_lossy(&output.stderr), expected);
    assert!(output.stdout.is_empty());
}

/// Scripts written for the removed online tuner fail loudly instead of
/// running untuned.
#[test]
fn the_removed_tuner_flags_are_unknown_arguments() {
    for (line, flag) in
        [("--workload array-b --tune", "--tune"), ("--fleet --tune-window 8", "--tune-window")]
    {
        let output = pim_exp(line);
        assert_eq!(output.status.code(), Some(1), "{line}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.starts_with(&format!("unknown argument {flag}\n")), "{line}: {stderr}");
        assert!(output.stdout.is_empty(), "{line}");
    }
}

/// WRAM metadata that outgrows 64 KB at the tasklet count asked for is a
/// usage error naming the words needed and available, checked for every
/// design before any cell runs, not an allocation panic mid-run.
#[test]
fn wram_metadata_past_64_kb_is_rejected_with_its_word_count() {
    let needs = |workload: &str, tasklets: u32, words: u32| {
        format!(
            "{workload} at {tasklets} tasklets needs {words} words of WRAM for its Tiny CTLWB \
             STM metadata; a DPU has 8192\n"
        )
    };
    for (line, expected) in [
        ("--workload array-a --tier wram --tasklets 24 --scale 0.05", needs("array-a", 24, 8450)),
        ("--workload list-lc --tier wram --tasklets 24 --scale 0.05", needs("list-lc", 24, 14466)),
        ("--workload list-hc --tier wram --tasklets 24 --scale 0.05", needs("list-hc", 24, 14466)),
        ("--workload list-hc --tier wram --tasklets 16 --scale 0.05", needs("list-hc", 16, 9986)),
        // The grid vets its own cells, in enumeration order: Tiny ETLWB first.
        (
            "--grid --workload list-hc --tier wram --tasklets 1,16",
            needs("list-hc", 16, 9986).replace("Tiny CTLWB", "Tiny ETLWB"),
        ),
        ("--figure fig9 --tasklets 24", needs("array-a", 24, 8450)),
        // fig6 vets the cells it folds, fig9's included.
        ("--figure fig6 --tasklets 24 --scale 0.05", needs("array-a", 24, 8450)),
    ] {
        let output = pim_exp(line);
        assert_eq!(output.status.code(), Some(1), "{line}");
        assert_eq!(String::from_utf8_lossy(&output.stderr), expected, "{line}");
        assert!(output.stdout.is_empty(), "{line}");
    }
}

/// Labyrinth's transaction logs do not fit WRAM: asking for WRAM metadata
/// is a usage error, not a panic mid-run.
#[test]
fn labyrinth_with_wram_metadata_is_rejected() {
    for (line, workload) in [
        ("--workload labyrinth-s --tier wram", "labyrinth-s"),
        ("--workload labyrinth-m --tier wram", "labyrinth-m"),
        ("--workload labyrinth-l --tier wram", "labyrinth-l"),
        ("--grid --workload labyrinth-m --tier wram", "labyrinth-m"),
    ] {
        let output = pim_exp(line);
        assert_eq!(output.status.code(), Some(1), "{line}");
        let expected = format!(
            "{workload} cannot keep its STM metadata in WRAM (transaction logs exceed 64 KB)\n"
        );
        assert_eq!(String::from_utf8_lossy(&output.stderr), expected, "{line}");
        assert!(output.stdout.is_empty(), "{line}");
    }
}

/// `--figure fig6 --scale 0.01 --tasklets 1,2`'s stdout, pinned: folding the
/// sweep figures' cells must not move a digit of it.
const FIG6_AT_SCALE_0_01: &str = r#"== Fig. 6: normalised peak throughput (mram metadata) ==
    design    min  median   mean    max
---------------------------------------
     NOrec  1.000   1.019  1.013  1.042
Tiny ETLWT  1.000   1.135  1.110  1.257
Tiny ETLWB  1.017   1.194  1.160  1.424
Tiny CTLWB  1.023   1.505  1.404  1.911
  VR ETLWT  1.001   1.434  1.501  2.318
  VR ETLWB  1.018   1.600  1.552  2.318
  VR CTLWB  1.024   1.840  1.718  2.318

== Fig. 6: normalised peak throughput (wram metadata) ==
    design    min  median   mean    max
---------------------------------------
     NOrec  1.000   1.000  1.016  1.098
Tiny ETLWB  1.000   1.056  1.361  2.846
Tiny ETLWT  1.056   1.385  1.518  2.865
Tiny CTLWB  1.056   1.321  1.537  3.194
  VR ETLWB  1.054   1.517  1.809  4.435
  VR CTLWB  1.130   1.517  1.929  4.558
  VR ETLWT  1.364   1.585  2.054  4.706

"#;

/// fig6 is a fold over the cells of fig4, fig5, fig9 and fig10: cold, it
/// prints the pinned distribution, and after those four figures filled a
/// `--cache-dir` it prints the same text without simulating a cell.
#[test]
fn fig6_replays_the_sweep_figures_cells_from_the_cache() {
    let flags = "--scale 0.01 --tasklets 1,2";
    let cold = pim_exp(&format!("--figure fig6 {flags}"));
    assert!(cold.status.success(), "{}", String::from_utf8_lossy(&cold.stderr));
    assert_eq!(String::from_utf8_lossy(&cold.stdout), FIG6_AT_SCALE_0_01);
    let dir = std::env::temp_dir().join(format!("pim-exp-cli-{}-fig6", std::process::id()));
    let cached = format!("{flags} --cache-dir {}", dir.display());
    for figure in ["fig4", "fig5", "fig9", "fig10"] {
        let output = pim_exp(&format!("--figure {figure} {cached}"));
        assert!(output.status.success(), "{figure}: {}", String::from_utf8_lossy(&output.stderr));
    }
    let warm = pim_exp(&format!("--figure fig6 {cached}"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(warm.status.success(), "{}", String::from_utf8_lossy(&warm.stderr));
    assert_eq!(String::from_utf8_lossy(&warm.stdout), FIG6_AT_SCALE_0_01);
    let progress = String::from_utf8_lossy(&warm.stderr);
    assert!(progress.is_empty(), "a replayed cell prints no progress line:\n{progress}");
}
