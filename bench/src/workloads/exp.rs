//! `exp-grid-warm`: the experiment harness with no simulation in the
//! measured body.
//!
//! Set-up fills a fresh on-disk cache with the cold 216-cell ArrayBench-B
//! grid on a two-worker pool (so simulator speed-ups move only `setup_s`
//! here). The body replays the grid from the disk tier and from memory,
//! and renders and re-parses the grid's JSON dump — the cache-key and JSON
//! paths a "one serialisation path" change would touch.

use crate::harness::{Checks, Workload};
use crate::metric::MetricSet;
use crate::probes;
use crate::stats::geomean;
use crate::trace::{self, Span, Tracer};
use pim_exp::json::{self, grid_to_json, Json};
use pim_exp::{CacheStats, GridOptions, GridSearch, SimCache, WorkerPool};
use pim_stm::MetadataPlacement;
use pim_workloads::Workload as Paper;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const POOL_WORKERS: usize = 2;
/// Warm replays per tier and JSON round trips per rep.
const REPLAYS: usize = 6;

pub struct Exp {
    options: GridOptions,
}

pub fn new(seed: u64, size: f64) -> Exp {
    Exp { options: GridOptions { scale: 0.25 * size, seed, ..GridOptions::default() } }
}

/// A cache directory under `bench/out/`, removed when dropped.
pub struct CacheDir(PathBuf);

impl CacheDir {
    fn fresh() -> CacheDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = format!("cache-{}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed));
        CacheDir(crate::out_dir().join(name))
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is only clutter under out/.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Prepared {
    dir: CacheDir,
    cold: GridSearch,
}

pub struct Output {
    cold: GridSearch,
    /// The last replay from a fresh cache on the disk tier, and the cache
    /// movement of all of them.
    warm_disk: GridSearch,
    disk_stats: CacheStats,
    /// The last replay from the memory tier.
    warm_mem: GridSearch,
    mem_stats: CacheStats,
    rendered: String,
    parsed: Json,
    _dir: CacheDir,
}

impl Exp {
    fn grid(&self, pool: &WorkerPool, cache: &SimCache) -> GridSearch {
        GridSearch::run_with(
            Paper::ArrayB,
            MetadataPlacement::Mram,
            self.options.clone(),
            pool,
            cache,
        )
    }
}

fn add(total: &mut CacheStats, part: &CacheStats) {
    total.hits += part.hits;
    total.misses += part.misses;
    total.disk_hits += part.disk_hits;
    total.bytes_read += part.bytes_read;
    total.bytes_written += part.bytes_written;
}

impl Workload for Exp {
    type Prepared = Prepared;
    type Output = Output;

    fn cells(&self) -> Vec<String> {
        vec!["array-b/mram/8t grid".to_string()]
    }

    fn prepare(&self, tracer: &Tracer) -> Prepared {
        let dir = CacheDir::fresh();
        let cache = SimCache::with_dir(&dir.0).expect("bench/out is writable");
        let pool = WorkerPool::new(POOL_WORKERS);
        let cold =
            tracer.span("pim-exp/GridSearch::run_with(cold)", 0, || self.grid(&pool, &cache));
        Prepared { dir, cold }
    }

    fn run(&self, Prepared { dir, cold }: Prepared, tracer: &Tracer) -> Output {
        let pool = WorkerPool::new(POOL_WORKERS);
        let (mut disk_stats, mut mem_stats) = (CacheStats::default(), CacheStats::default());
        let mut warm_disk = None;
        for _ in 0..REPLAYS {
            let cache = SimCache::with_dir(&dir.0).expect("bench/out is writable");
            let grid = tracer
                .span("pim-exp/GridSearch::run_with(warm disk)", 0, || self.grid(&pool, &cache));
            add(&mut disk_stats, &grid.cache);
            warm_disk = Some((grid, cache));
        }
        let (warm_disk, cache) = warm_disk.expect("REPLAYS > 0");
        let mut warm_mem = None;
        for _ in 0..REPLAYS {
            let grid = tracer
                .span("pim-exp/GridSearch::run_with(warm memory)", 0, || self.grid(&pool, &cache));
            add(&mut mem_stats, &grid.cache);
            warm_mem = Some(grid);
        }
        let mut round_trip = None;
        for _ in 0..REPLAYS {
            let rendered =
                tracer.span("pim-exp/grid_to_json+render", 0, || grid_to_json(&cold).to_string());
            let parsed = tracer.span("pim-exp/json::parse", 0, || {
                json::parse(&rendered).expect("own dump parses")
            });
            round_trip = Some((rendered, parsed));
        }
        let (rendered, parsed) = round_trip.expect("REPLAYS > 0");
        Output {
            cold,
            warm_disk,
            disk_stats,
            warm_mem: warm_mem.expect("REPLAYS > 0"),
            mem_stats,
            rendered,
            parsed,
            _dir: dir,
        }
    }

    fn model_tx_per_s(&self, output: &Output) -> f64 {
        geomean(output.cold.cells.iter().map(|c| c.throughput_tx_per_sec))
    }

    fn digest(&self, output: &Output) -> Vec<u64> {
        let cells = output.cold.cells.iter().flat_map(|c| [c.commits, c.aborts, c.total_time]);
        cells.chain([output.rendered.len() as u64, output.disk_stats.bytes_read]).collect()
    }

    fn verify(&self, output: &Output, checks: &mut Checks) {
        let cells = output.cold.cells.len() as u64;
        checks.same(
            "cold grid: every cell simulated once",
            (output.cold.cache.misses, output.cold.cache.hits),
            (cells, 0),
        );
        checks.check(output.warm_disk.cells == output.cold.cells, || {
            "disk-tier replay differs from the cold grid".into()
        });
        checks.check(output.warm_mem.cells == output.cold.cells, || {
            "memory-tier replay differs from the cold grid".into()
        });
        // No simulation inside the measured body: every lookup is a hit.
        let replays = REPLAYS as u64;
        checks.same(
            "disk-tier replays: hits, disk hits, misses",
            (output.disk_stats.hits, output.disk_stats.disk_hits, output.disk_stats.misses),
            (replays * cells, replays * cells, 0),
        );
        checks.same(
            "memory-tier replays: hits, disk hits, misses",
            (output.mem_stats.hits, output.mem_stats.disk_hits, output.mem_stats.misses),
            (replays * cells, 0, 0),
        );
        checks.check(output.parsed.to_string() == output.rendered, || {
            "render(parse(render(grid))) != render(grid)".into()
        });
        let reparsed = json::parse(&output.parsed.to_string());
        checks.check(reparsed.as_ref() == Ok(&output.parsed), || "parse(render(x)) != x".into());
    }

    fn layers(&self, output: &Output, spans: &[Span], metrics: &mut MetricSet<'_>) {
        let cold_s = trace::total_s(spans, "pim-exp/GridSearch::run_with(cold)");
        metrics.wall("pim-exp.grid_cold_s", cold_s);
        let start = Instant::now();
        let serial = self.grid(&WorkerPool::serial(), &SimCache::in_memory());
        metrics.wall("pim-exp.pool_speedup_2w", start.elapsed().as_secs_f64() / cold_s);
        assert_eq!(serial.cells, output.cold.cells, "worker count never changes results");

        let per_replay_ms = |name: &str| trace::total_s(spans, name) * 1e3 / REPLAYS as f64;
        metrics.wall(
            "pim-exp.grid_warm_disk_ms",
            per_replay_ms("pim-exp/GridSearch::run_with(warm disk)"),
        );
        metrics.wall(
            "pim-exp.grid_warm_mem_ms",
            per_replay_ms("pim-exp/GridSearch::run_with(warm memory)"),
        );
        metrics.wall("pim-exp.json_render_ms", per_replay_ms("pim-exp/grid_to_json+render"));
        metrics.wall("pim-exp.json_parse_ms", per_replay_ms("pim-exp/json::parse"));
        metrics.exact("pim-exp.json_bytes", output.rendered.len() as f64);
        metrics
            .exact("pim-exp.cache_hits", (output.disk_stats.hits + output.mem_stats.hits) as f64);
        metrics.exact(
            "pim-exp.cache_misses",
            (output.disk_stats.misses + output.mem_stats.misses) as f64,
        );
        metrics.exact("pim-exp.cache_disk_bytes", output.disk_stats.bytes_read as f64);
        // The acceptance contrast: no simulator step inside the measured body.
        metrics.exact("pim-sim.steps", 0.0);
        probes::exp(metrics);
    }
}
