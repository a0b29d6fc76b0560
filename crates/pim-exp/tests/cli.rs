//! Runs the built `pim-exp` binary once per mode at a tiny scale, plus
//! `--help` and one rejection: the dispatch in `main` that the unit tests,
//! which call its parts, never execute.

use std::process::{Command, Output};

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

#[test]
fn help_names_every_flag() {
    let flags = "--figure --workload --stm --tier --executor --tasklets --dpus --fleet --grid \
                 --service --arrival --rate --mix --skew --tune --tune-window --routing \
                 --skew-thetas --rebalance --overlap --skew-phases --scale --seed --repeat \
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
