//! Micro-probes: one layer primitive in a loop, with no workload around it.
//! They run in the traced run of the workloads whose `wall_s` they are
//! meant to explain; each reports the median of [`BATCHES`] batches.

use crate::metric::MetricSet;
use crate::stats::Summary;
use pim_exp::{SimCache, WorkerPool};
use pim_sim::program::FnProgram;
use pim_sim::{
    Addr, Dpu, DpuConfig, KeyDist, LatencyHistogram, Scheduler, SimRng, StepStatus, TaskletCtx,
    TaskletProgram, TaskletStats, Tier,
};
use pim_stm::{MetadataPlacement, StmConfig, StmKind, StmShared, TxEngine};
use pim_workloads::sharded::{
    generate_stream, route, RoutingPolicy, ShardMap, ShardedWorkloadConfig,
};
use pim_workloads::spec::Executor;
use pim_workloads::{RunSpec, Workload as Paper};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// Median nanoseconds per operation over [`BATCHES`] batches of `ops`.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    Summary::of(&samples).median
}

/// `Scheduler::run` over programs that do nothing but `compute(1)`: what
/// one scheduling decision plus one context costs at 1, 11 and 24 tasklets.
pub fn scheduler(metrics: &mut MetricSet<'_>) {
    const STEPS_PER_TASKLET: u64 = 20_000;
    for tasklets in [1usize, 11, 24] {
        let mut dpu = Dpu::new(DpuConfig::small());
        let ns = ns_per_op(STEPS_PER_TASKLET * tasklets as u64, || {
            let programs: Vec<Box<dyn TaskletProgram>> = (0..tasklets)
                .map(|_| {
                    let mut left = STEPS_PER_TASKLET;
                    Box::new(FnProgram::new(move |ctx: &mut TaskletCtx<'_>| {
                        ctx.compute(1);
                        left -= 1;
                        if left == 0 {
                            StepStatus::Finished
                        } else {
                            StepStatus::Running
                        }
                    })) as Box<dyn TaskletProgram>
                })
                .collect();
            black_box(Scheduler::new().run(&mut dpu, programs));
        });
        metrics.wall(&format!("pim-sim.probe_sched_ns_per_step.{tasklets}t"), ns);
    }
}

/// The memory operations of `TaskletCtx`, charged as on the simulator.
pub fn ctx(metrics: &mut MetricSet<'_>) {
    const OPS: u64 = 100_000;
    let mut dpu = Dpu::new(DpuConfig::small());
    let wram = dpu.alloc(Tier::Wram, 256).expect("probe words fit WRAM");
    let mram = dpu.alloc(Tier::Mram, 4096).expect("probe words fit MRAM");
    let mut stats = TaskletStats::new();
    let mut probe = |name: &str, op: &mut dyn FnMut(&mut TaskletCtx<'_>, u32)| {
        let ns = ns_per_op(OPS, || {
            let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, 0);
            for i in 0..OPS as u32 {
                op(&mut ctx, i);
            }
        });
        metrics.wall(&format!("pim-sim.probe_ctx_ns.{name}"), ns);
    };
    probe("load_wram", &mut |ctx, i| {
        black_box(ctx.load(wram.offset(i % 256)));
    });
    probe("load_mram", &mut |ctx, i| {
        black_box(ctx.load(mram.offset(i % 4096)));
    });
    probe("store_mram", &mut |ctx, i| ctx.store(mram.offset(i % 4096), u64::from(i)));
    let mut buffer = [0u64; 64];
    probe("load_block64", &mut |ctx, i| {
        ctx.load_block(mram.offset((i % 32) * 64), &mut buffer);
        black_box(buffer[0]);
    });
    probe("copy_block64", &mut |ctx, i| {
        ctx.copy_block(mram.offset((i % 32) * 64), mram.offset(2048 + (i % 32) * 64), 64)
    });
}

/// `LatencyHistogram::record` and `merge`, the per-request and per-shard
/// cost of the service panels.
pub fn histogram(metrics: &mut MetricSet<'_>) {
    const OPS: u64 = 200_000;
    let mut rng = SimRng::new(1);
    let values: Vec<u64> = (0..OPS).map(|_| rng.next_range(1 << 20)).collect();
    let mut hist = LatencyHistogram::new();
    metrics.wall(
        "pim-sim.probe_hist_ns.record",
        ns_per_op(OPS, || {
            for &value in &values {
                hist.record(value);
            }
        }),
    );
    const MERGES: u64 = 2_000;
    let mut total = LatencyHistogram::new();
    metrics.wall(
        "pim-sim.probe_hist_ns.merge",
        ns_per_op(MERGES, || {
            for _ in 0..MERGES {
                total.merge(black_box(&hist));
            }
        }),
    );
    black_box(total.count());
}

/// Reads, writes and commits of each design on one `TaskletCtx` with no
/// scheduler and no contention: host nanoseconds per operation, and the
/// modeled cycles one such transaction costs.
pub fn stm(metrics: &mut MetricSet<'_>) {
    const TXS: u64 = 2_000;
    const OPS_PER_TX: u64 = 8;
    for kind in StmKind::ALL {
        let mut dpu = Dpu::new(DpuConfig::small());
        let config = StmConfig::new(kind, MetadataPlacement::Mram);
        let shared = StmShared::allocate(&mut dpu, config).expect("probe metadata fits");
        let slot = shared.register_tasklet(&mut dpu, 0).expect("probe logs fit");
        let data: Addr = dpu.alloc(Tier::Mram, 64).expect("probe words fit");
        let mut engine = TxEngine::for_shared(shared, slot);
        let mut stats = TaskletStats::new();
        let mut now = 0;
        let (mut reads, mut writes, mut commits) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..BATCHES {
            let (mut read_ns, mut write_ns, mut commit_ns) = (0u128, 0u128, 0u128);
            for tx in 0..TXS {
                let mut ctx = TaskletCtx::new(&mut dpu, &mut stats, 0, 1, now);
                let base = (tx * OPS_PER_TX) as u32;
                let t0 = Instant::now();
                engine.begin(&mut ctx);
                for k in 0..OPS_PER_TX as u32 {
                    let word = data.offset((base + k) % 64);
                    black_box(engine.read(&mut ctx, word).expect("one tasklet never conflicts"));
                }
                let t1 = Instant::now();
                for k in 0..OPS_PER_TX as u32 {
                    let word = data.offset((base + k) % 64);
                    engine.write(&mut ctx, word, tx).expect("one tasklet never conflicts");
                }
                let t2 = Instant::now();
                engine.commit(&mut ctx).expect("one tasklet never conflicts");
                commit_ns += t2.elapsed().as_nanos();
                write_ns += (t2 - t1).as_nanos();
                read_ns += (t1 - t0).as_nanos();
                now = ctx.now();
            }
            reads.push(read_ns as f64 / (TXS * OPS_PER_TX) as f64);
            writes.push(write_ns as f64 / (TXS * OPS_PER_TX) as f64);
            commits.push(commit_ns as f64 / TXS as f64);
        }
        let name = kind.grid_name();
        metrics.wall(&format!("pim-stm.probe_ns_per_read.{name}"), Summary::of(&reads).median);
        metrics.wall(&format!("pim-stm.probe_ns_per_write.{name}"), Summary::of(&writes).median);
        metrics.wall(&format!("pim-stm.probe_ns_per_commit.{name}"), Summary::of(&commits).median);
        metrics.exact(
            &format!("pim-stm.probe_cycles_per_commit.{name}"),
            now as f64 / stats.commits as f64,
        );
    }
}

/// Host-side fleet primitives: routing one global transaction and
/// recutting a 256-shard partition from a skewed load vector.
pub fn fleet(metrics: &mut MetricSet<'_>) {
    let config =
        ShardedWorkloadConfig::new(16 * 1024, 20_000).with_dist(KeyDist::Zipf { theta: 0.9 });
    let stream = generate_stream(&config, 1);
    let map = ShardMap::new(config.total_keys, 256);
    metrics.wall(
        "pim-fleet.probe_route_ns_per_tx",
        ns_per_op(stream.len() as u64, || {
            for tx in &stream {
                black_box(route(tx, &map, RoutingPolicy::RouteToOwner));
            }
        }),
    );
    let mut load = vec![1u64; config.total_keys as usize];
    for (key, weight) in load.iter_mut().enumerate() {
        *weight += (config.total_keys as u64) / (key as u64 + 1);
    }
    const RECUTS: u64 = 20;
    metrics.wall(
        "pim-fleet.probe_rebalance_ms",
        ns_per_op(RECUTS, || {
            for _ in 0..RECUTS {
                black_box(map.rebalanced(black_box(&load)));
            }
        }) * 1e-6,
    );
}

/// `pim-exp` primitives: building a cache key, a memory-tier hit, and
/// handing one job to a two-worker pool.
pub fn exp(metrics: &mut MetricSet<'_>) {
    const OPS: u64 = 20_000;
    let spec =
        RunSpec::new(Paper::ArrayB, StmKind::Norec, MetadataPlacement::Mram, 8).with_scale(0.01);
    metrics.wall(
        "pim-exp.cache_key_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                black_box(SimCache::key(black_box(&spec), Executor::Simulator));
            }
        }),
    );
    let cache = SimCache::in_memory();
    cache.get_or_run(&spec, Executor::Simulator, || spec.run_on(Executor::Simulator));
    metrics.wall(
        "pim-exp.cache_hit_ns",
        ns_per_op(OPS, || {
            for _ in 0..OPS {
                black_box(cache.get_or_run(&spec, Executor::Simulator, || unreachable!("warm")));
            }
        }),
    );
    let pool = WorkerPool::new(2);
    metrics.wall(
        "pim-exp.pool_dispatch_ns_per_job",
        ns_per_op(OPS, || {
            black_box(pool.run((0..OPS).collect::<Vec<u64>>(), |_, job| job + 1));
        }),
    );
}
