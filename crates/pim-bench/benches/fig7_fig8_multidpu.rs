//! Figures 7 and 8: multi-DPU speed-up over the CPU baseline and the
//! TDP-based energy comparison. The CPU baseline is genuinely executed on
//! this machine; the DPU side is simulated and extrapolated (see
//! `pim_exp::multi_dpu`).

use criterion::{criterion_group, criterion_main, Criterion};
use pim_bench::BENCH_SEED;
use pim_exp::multi_dpu::{figure8_table, MultiDpuBenchmark, MultiDpuStudy};
use std::time::Duration;

const DPU_COUNTS: [usize; 6] = [1, 250, 500, 1000, 1500, 2500];

fn print_figure() {
    let mut studies = Vec::new();
    for benchmark in MultiDpuBenchmark::ALL {
        let scale = match benchmark {
            MultiDpuBenchmark::LabyrinthL => 0.12,
            _ => 0.05,
        };
        let study = MultiDpuStudy::run(benchmark, &DPU_COUNTS, scale, BENCH_SEED);
        eprintln!("== Fig. 7: {benchmark} ==");
        eprintln!("{}", study.speedup_table());
        studies.push(study);
    }
    eprintln!("== Fig. 8: speed-up and energy gain at 2500 DPUs ==");
    eprintln!("{}", figure8_table(&studies));
}

fn bench(c: &mut Criterion) {
    print_figure();
    let mut group = c.benchmark_group("fig7_fig8_multidpu");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("kmeans-hc/sweep", |b| {
        b.iter(|| MultiDpuStudy::run(MultiDpuBenchmark::KmeansHc, &[1, 2500], 0.02, BENCH_SEED))
    });
    group.bench_function("labyrinth-s/sweep", |b| {
        b.iter(|| MultiDpuStudy::run(MultiDpuBenchmark::LabyrinthS, &[1, 2500], 0.12, BENCH_SEED))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
