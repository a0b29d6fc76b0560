//! Seeded, executor-agnostic key-skew generators.
//!
//! Fleet-scale studies (and the open-loop traffic generators they feed)
//! need reproducible *skewed* key streams: a handful of hot keys
//! concentrating load on whichever shard owns them. This module provides
//! the two classic shapes behind every key-value benchmark —
//!
//! * **uniform** — every key equally likely; the no-skew baseline, and
//! * **zipfian** — key of rank `r` (0-based) drawn with probability
//!   proportional to `1 / (r + 1)^θ`. `θ = 0` degenerates to uniform;
//!   `θ ≈ 0.99` is the YCSB default; larger values concentrate virtually
//!   all probability on the first few ranks.
//!
//! Sampling is table-driven: [`KeySampler::new`] precomputes the CDF once
//! together with a *guide table* over it (Chen & Asau's indexed search),
//! `O(n)` memory and expected `O(1)` per draw, and every draw consumes
//! exactly one [`SimRng::next_f64`] — so a seeded stream is reproducible
//! across executors, shard counts and host thread counts.
//!
//! The guide splits `[0, 1)` into `m` equal buckets, `m` the largest power
//! of two `<= n`, and records `guide[j]` = the number of ranks whose CDF
//! value lies below `j / m`. A draw `u` falls in bucket `j = ⌊u·m⌋`, and
//! its rank — the first whose CDF value reaches `u` — lies in
//! `guide[j]..=guide[j + 1]`, so a short scan up from `guide[j]` finds it
//! (expected length at most `n / m < 2`, whatever the skew).
//! The answer is **exactly** the one a binary search over the whole CDF
//! gives: `next_f64` returns multiples of `2^-53` and `m` is a power of
//! two, so `u·m` and every edge `j / m` are computed without rounding and
//! `j / m <= u < (j + 1) / m` holds as real numbers.
//! Ranks map to keys identity-style (`rank r` → key `r`): under a
//! range-partitioned keyspace the hottest keys therefore cluster on the
//! first shard, which is exactly the imbalance a skew sweep wants to
//! provoke and measure.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::rng::SimRng;

/// Shape of a key-popularity distribution over a keyspace `0..n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with exponent `theta`: rank `r` has weight `1/(r+1)^theta`.
    Zipf {
        /// Skew exponent `θ ≥ 0`; `0` is uniform, `0.99` the YCSB default.
        theta: f64,
    },
}

impl KeyDist {
    /// Parses `"uniform"` or `"zipf:<theta>"` (e.g. `zipf:0.99`).
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted forms when `text` matches
    /// neither, or when the exponent is negative or not a finite number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let text = text.trim();
        if text.eq_ignore_ascii_case("uniform") {
            return Ok(KeyDist::Uniform);
        }
        if let Some(theta) = text.strip_prefix("zipf:") {
            let theta: f64 = theta
                .parse()
                .map_err(|_| format!("invalid zipf exponent {theta:?} (want e.g. zipf:0.99)"))?;
            if !theta.is_finite() || theta < 0.0 {
                return Err(format!("zipf exponent must be finite and >= 0, got {theta}"));
            }
            return Ok(KeyDist::Zipf { theta });
        }
        Err(format!("unknown key distribution {text:?} (want uniform or zipf:<theta>)"))
    }

    /// The skew exponent: `0` for uniform, `θ` for zipfian.
    pub fn theta(self) -> f64 {
        match self {
            KeyDist::Uniform => 0.0,
            KeyDist::Zipf { theta } => theta,
        }
    }
}

impl fmt::Display for KeyDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyDist::Uniform => write!(f, "uniform"),
            KeyDist::Zipf { theta } => write!(f, "zipf:{theta}"),
        }
    }
}

/// Process-wide memo of zipf tables (normalised CDF plus its guide), keyed
/// by `(theta bit pattern, keyspace size)`.
///
/// The table for a given `(θ, n)` is a pure function of its key, so sharing
/// one `Arc` across samplers changes nothing observable — but it turns the
/// `O(n)` construction into a one-time cost per distinct distribution
/// instead of a per-run cost: a `--repeat` loop, every cell of a `--grid`
/// sweep and every round of a fleet run re-create their `KeySampler` from
/// the same `(θ, n)` and now share one table.
fn cdf_cache() -> &'static Mutex<CdfCache> {
    static CACHE: OnceLock<Mutex<CdfCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Memo table behind [`cdf_cache`]: `(theta bits, keys)` → shared table.
type CdfCache = HashMap<(u64, u64), Arc<ZipfTable>>;

/// The precomputed tables of one zipf distribution over `0..n`.
#[derive(Debug)]
struct ZipfTable {
    /// `cdf[r]` = P(rank <= r); `cdf[n - 1]` is exactly 1.
    cdf: Box<[f64]>,
    /// `guide[j]` = number of ranks `r` with `cdf[r] < j / m`, for
    /// `j = 0..=m`; non-decreasing, `guide[m] <= n - 1`.
    guide: Box<[u32]>,
    /// `m` = `guide.len() - 1`, the largest power of two `<= n`.
    buckets: f64,
}

impl ZipfTable {
    /// The `O(n)` construction (cache-miss path): the CDF in one pass,
    /// then its guide.
    fn build(theta: f64, keys: u64) -> Self {
        CDF_BUILDS.fetch_add(1, Ordering::Relaxed);
        assert!(keys <= u64::from(u32::MAX), "a zipf keyspace holds at most u32::MAX keys");
        let mut cdf = Vec::with_capacity(keys as usize);
        let mut total = 0.0f64;
        for rank in 0..keys {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        Self::with_guide(cdf.into())
    }

    /// Indexes a normalised CDF — non-decreasing, at most `u32::MAX`
    /// values, the last exactly 1 — with its guide, in one merge-like pass.
    fn with_guide(cdf: Box<[f64]>) -> Self {
        let ranks = u32::try_from(cdf.len()).expect("a zipf keyspace holds at most u32::MAX keys");
        let buckets = 1u32 << ranks.ilog2();
        let mut guide = Vec::with_capacity(buckets as usize + 1);
        let mut below = 0u32;
        for j in 0..=buckets {
            // Exact: `buckets` is a power of two no larger than 2^31.
            let edge = f64::from(j) / f64::from(buckets);
            while below < ranks && cdf[below as usize] < edge {
                below += 1;
            }
            guide.push(below);
        }
        ZipfTable { cdf, guide: guide.into(), buckets: f64::from(buckets) }
    }

    /// The first rank whose cumulative probability reaches `u`, for `u` a
    /// multiple of `2^-53` in `[0, 1)`: the rank a binary search over the
    /// whole CDF finds, from one guide bucket.
    fn rank_of(&self, u: f64) -> u64 {
        let mut rank = self.guide[(u * self.buckets) as usize] as usize;
        // Most buckets hold at most one rank to step over: take that step
        // without a branch. The scan stops by `guide[j + 1]`, whose CDF
        // value is at least `(j + 1) / m > u`.
        rank += usize::from(self.cdf[rank] < u);
        while self.cdf[rank] < u {
            rank += 1;
        }
        rank as u64
    }
}

/// Number of zipf tables actually *constructed* (cache misses) since
/// process start.
static CDF_BUILDS: AtomicU64 = AtomicU64::new(0);

/// How many zipf tables (a CDF and its guide) have been built (not served
/// from the cache) since process start. Tests use this to assert that
/// repeated sampler construction over the same distribution does not redo
/// the `O(n)` work.
#[cfg(test)]
pub(crate) fn cdf_builds() -> u64 {
    CDF_BUILDS.load(Ordering::Relaxed)
}

/// A sampler for one [`KeyDist`] over the keyspace `0..keys`.
///
/// Zipfian sampling precomputes the normalised CDF and a guide table over
/// it once, and finds a draw's rank by scanning one guide bucket — the
/// rank a binary search over the CDF would find, bit for bit (see the
/// [module documentation](self)); uniform sampling skips the tables
/// entirely. Either way a draw consumes exactly one `next_f64` from the
/// caller's [`SimRng`], so streams are reproducible and executor-agnostic.
/// Tables are memoised process-wide, so constructing
/// the same sampler repeatedly — across `--repeat` iterations, grid cells
/// or fleet rounds — pays the `O(n)` construction only once.
#[derive(Debug, Clone)]
pub struct KeySampler {
    keys: u64,
    /// The zipf tables, shared with every other sampler of the same
    /// `(θ, keys)`; `None` on the uniform fast path.
    table: Option<Arc<ZipfTable>>,
}

impl KeySampler {
    /// Builds a sampler over `0..keys`.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero — an empty keyspace has nothing to draw —
    /// or if a zipfian keyspace exceeds `u32::MAX` keys.
    pub fn new(dist: KeyDist, keys: u64) -> Self {
        assert!(keys > 0, "key sampler needs a non-empty keyspace");
        let table = match dist {
            // theta == 0 degenerates to the uniform fast path.
            KeyDist::Uniform | KeyDist::Zipf { theta: 0.0 } => None,
            KeyDist::Zipf { theta } => {
                let cache_key = (theta.to_bits(), keys);
                let mut cache = cdf_cache().lock().expect("cdf cache poisoned");
                let table = cache
                    .entry(cache_key)
                    .or_insert_with(|| Arc::new(ZipfTable::build(theta, keys)));
                Some(Arc::clone(table))
            }
        };
        KeySampler { keys, table }
    }

    /// Size of the keyspace this sampler draws from.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// The precomputed normalised CDF (`cdf[r]` = P(rank <= r)); empty on
    /// the uniform fast path. Exposed so tests can check monotonicity.
    pub fn cdf(&self) -> &[f64] {
        self.table.as_ref().map_or(&[], |table| &table.cdf)
    }

    /// Draws one key in `0..keys`, consuming one `next_f64`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        match &self.table {
            Some(table) => table.rank_of(u),
            // Uniform fast path; `u < 1.0` keeps the result in range.
            None => ((u * self.keys as f64) as u64).min(self.keys - 1),
        }
    }

    /// Draws one key with the rank→key mapping rotated by `offset`
    /// (modulo the keyspace), consuming exactly one `next_f64` — the same
    /// draw discipline as [`KeySampler::sample`], so shifted and unshifted
    /// streams stay in lockstep on the same [`SimRng`].
    ///
    /// A phase-changing workload uses this to move the hot ranks to a
    /// different region of the keyspace mid-stream: with `offset = 0` the
    /// result is identical to `sample`. An offset already inside the
    /// keyspace (every phase offset is) costs no division.
    pub fn sample_shifted(&self, rng: &mut SimRng, offset: u64) -> u64 {
        let offset = if offset >= self.keys { offset % self.keys } else { offset };
        let key = self.sample(rng) + offset;
        if key >= self.keys {
            key - self.keys
        } else {
            key
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{PoisonError, RwLock};

    /// Tests that count builds hold this for writing; every other sampler a
    /// test makes is made under it for reading, so no build of a test
    /// running in parallel lands inside a counted window.
    static BUILDS: RwLock<()> = RwLock::new(());

    fn new_sampler(dist: KeyDist, keys: u64) -> KeySampler {
        let _reading = BUILDS.read().unwrap_or_else(PoisonError::into_inner);
        KeySampler::new(dist, keys)
    }

    fn counting() -> std::sync::RwLockWriteGuard<'static, ()> {
        BUILDS.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reference rank lookup: a binary search over the whole CDF for the
    /// first rank whose cumulative probability reaches `u`.
    fn rank_by_search(cdf: &[f64], u: f64) -> u64 {
        cdf.partition_point(|&p| p < u).min(cdf.len() - 1) as u64
    }

    /// Reference shifted draw: the rotation as two modulo reductions.
    fn shifted_by_modulo(rank: u64, offset: u64, keys: u64) -> u64 {
        (rank + offset % keys) % keys
    }

    fn table(sampler: &KeySampler) -> &Arc<ZipfTable> {
        sampler.table.as_ref().expect("a zipf sampler holds a table")
    }

    fn histogram(dist: KeyDist, keys: u64, draws: usize, seed: u64) -> Vec<u64> {
        let sampler = new_sampler(dist, keys);
        let mut rng = SimRng::new(seed);
        let mut counts = vec![0u64; keys as usize];
        for _ in 0..draws {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn draws_stay_in_range_and_are_seed_deterministic() {
        for dist in [KeyDist::Uniform, KeyDist::Zipf { theta: 0.99 }] {
            let sampler = new_sampler(dist, 100);
            let mut a = SimRng::new(7);
            let mut b = SimRng::new(7);
            for _ in 0..1000 {
                let x = sampler.sample(&mut a);
                assert!(x < 100);
                assert_eq!(x, sampler.sample(&mut b), "{dist}: same seed, same stream");
            }
        }
    }

    #[test]
    fn uniform_spreads_and_zipf_concentrates() {
        let uniform = histogram(KeyDist::Uniform, 50, 20_000, 11);
        let zipf = histogram(KeyDist::Zipf { theta: 1.2 }, 50, 20_000, 11);
        // Uniform: no key should dominate (expected 400 per key).
        assert!(*uniform.iter().max().unwrap() < 800);
        // Zipf 1.2: rank 0 takes a large multiple of the uniform share.
        assert!(zipf[0] > 4 * uniform[0], "zipf head {} vs uniform {}", zipf[0], uniform[0]);
        // Higher theta concentrates more mass on the head.
        let hotter = histogram(KeyDist::Zipf { theta: 2.0 }, 50, 20_000, 11);
        assert!(hotter[0] > zipf[0]);
    }

    #[test]
    fn theta_zero_zipf_is_uniform() {
        let a = histogram(KeyDist::Zipf { theta: 0.0 }, 10, 5_000, 3);
        let b = histogram(KeyDist::Uniform, 10, 5_000, 3);
        assert_eq!(a, b, "zipf theta=0 must take the uniform fast path");
    }

    #[test]
    fn parse_round_trips() {
        assert_eq!(KeyDist::parse("uniform").unwrap(), KeyDist::Uniform);
        assert_eq!(KeyDist::parse("zipf:0.99").unwrap(), KeyDist::Zipf { theta: 0.99 });
        assert_eq!(KeyDist::parse(" Zipf:1.5 ".to_lowercase().trim()).unwrap().theta(), 1.5);
        assert!(KeyDist::parse("zipf:-1").is_err());
        assert!(KeyDist::parse("zipf:abc").is_err());
        assert!(KeyDist::parse("pareto").is_err());
        assert_eq!(KeyDist::Zipf { theta: 0.9 }.to_string(), "zipf:0.9");
        assert_eq!(KeyDist::Uniform.to_string(), "uniform");
    }

    #[test]
    #[should_panic(expected = "non-empty keyspace")]
    fn empty_keyspace_is_rejected() {
        let _ = KeySampler::new(KeyDist::Uniform, 0);
    }

    #[test]
    fn repeated_construction_reuses_the_cached_cdf() {
        // A distribution distinct from every other test's, built while no
        // other test can build, so the build count is this test's alone.
        let dist = KeyDist::Zipf { theta: 1.017_25 };
        let counted = counting();
        let first = KeySampler::new(dist, 777);
        let builds_after_first = cdf_builds();
        for _ in 0..10 {
            // Repeated builds — the shape every `--repeat` loop and grid
            // sweep has — must be served from the cache.
            let again = KeySampler::new(dist, 777);
            assert!(Arc::ptr_eq(table(&first), table(&again)), "same (θ, n) must share one table");
        }
        assert_eq!(cdf_builds(), builds_after_first, "no rebuilds for a cached distribution");
        drop(counted);
        // A different keyspace is a different table.
        let other = new_sampler(dist, 778);
        assert!(!Arc::ptr_eq(table(&first), table(&other)));
        // The cached table still samples correctly and deterministically.
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        let fresh = new_sampler(dist, 777);
        for _ in 0..200 {
            assert_eq!(first.sample(&mut a), fresh.sample(&mut b));
        }
    }

    #[test]
    fn uniform_samplers_skip_the_cache_entirely() {
        let _counted = counting();
        let builds_before = cdf_builds();
        let _ = KeySampler::new(KeyDist::Uniform, 123_457);
        let _ = KeySampler::new(KeyDist::Zipf { theta: 0.0 }, 123_457);
        assert_eq!(cdf_builds(), builds_before, "the uniform fast path builds no table");
    }

    #[test]
    fn shifted_sampling_rotates_the_keyspace() {
        let sampler = new_sampler(KeyDist::Zipf { theta: 1.2 }, 64);
        let mut a = SimRng::new(5);
        let mut b = SimRng::new(5);
        for _ in 0..500 {
            let plain = sampler.sample(&mut a);
            let shifted = sampler.sample_shifted(&mut b, 16);
            assert_eq!(shifted, (plain + 16) % 64, "shift is a pure rotation of the same draw");
            assert!(shifted < 64);
        }
        // Offset 0 degenerates to plain sampling, even past the keyspace.
        let mut c = SimRng::new(5);
        let mut d = SimRng::new(5);
        assert_eq!(sampler.sample_shifted(&mut c, 0), sampler.sample(&mut d));
        assert_eq!(sampler.sample_shifted(&mut c, 64), sampler.sample(&mut d));
    }

    const ULP: f64 = 1.0 / (1u64 << 53) as f64;

    /// Checks `table`'s guide against its definition, and `rank_of`
    /// against [`rank_by_search`] at `u = 0`, `u = 1 - 2^-53`, every bucket
    /// edge and every CDF value, each with its `±2^-53` neighbours; returns
    /// how many values of `u` it probed.
    fn assert_exact(table: &ZipfTable, tag: &str) -> usize {
        // A bucket longer than this is probed at this many evenly spaced
        // CDF values plus its last: a probe there costs a scan of the
        // bucket, and θ = 2 over 100 003 keys puts 71 512 ranks into one.
        const LONG: usize = 1024;
        // The values `next_f64` can return: multiples of 2^-53 in [0, 1).
        let draw = |u: f64| (0.0..1.0).contains(&u).then(|| (u / ULP).round() * ULP);
        let (keys, buckets) = (table.cdf.len(), table.guide.len() - 1);
        assert!(buckets.is_power_of_two() && buckets <= keys && keys < 2 * buckets, "{tag}");
        let edges: Vec<f64> = (0..=buckets).map(|j| j as f64 / buckets as f64).collect();
        for (j, &edge) in edges.iter().enumerate() {
            let below = table.cdf.partition_point(|&p| p < edge);
            assert_eq!(table.guide[j] as usize, below, "{tag}: guide[{j}]");
        }
        let mut points = edges;
        for bucket in table.guide.windows(2) {
            let values = &table.cdf[bucket[0] as usize..bucket[1] as usize];
            points.extend(values.iter().step_by(values.len().div_ceil(LONG).max(1)));
            points.extend(values.last());
        }
        // Every rank past the last bucket has a CDF value of exactly 1.
        let past = &table.cdf[*table.guide.last().unwrap() as usize..];
        assert!(past.iter().all(|&p| p == 1.0), "{tag}");
        points.extend(past.first());
        let mut probes = vec![0.0, 1.0 - ULP];
        for point in points {
            probes.extend([point - ULP, point, point + ULP].into_iter().filter_map(draw));
        }
        for &u in &probes {
            let expected = rank_by_search(&table.cdf, u);
            assert_eq!(table.rank_of(u), expected, "{tag}, u {u:e}");
        }
        probes.len()
    }

    #[test]
    fn guide_lookup_is_the_binary_search_at_every_edge() {
        let mut checked = 0;
        for theta in [0.01, 0.5, 0.9, 0.99, 1.2, 2.0, 8.0, 60.0] {
            for keys in [1, 2, 3, 5, 63, 64, 65, 1000, 4097, 65_536, 100_003] {
                let sampler = new_sampler(KeyDist::Zipf { theta }, keys);
                checked += assert_exact(table(&sampler), &format!("theta {theta}, keys {keys}"));
            }
        }
        assert!(checked > 3_000_000, "{checked} probes");
    }

    #[test]
    fn guide_lookup_is_exact_when_cdf_values_sit_on_bucket_edges() {
        // Zipf CDFs rarely hit an edge `j / m` exactly; these do, including
        // runs of equal values and values one step below an edge.
        let tables: [&[f64]; 5] = [
            &[1.0],
            &[0.5, 1.0],
            &[0.25, 0.5, 0.5, 0.75, 0.75, 0.75, 1.0, 1.0],
            &[0.5 - ULP, 0.5, 0.75 - ULP, 1.0 - ULP, 1.0],
            &[0.0, 0.0, 0.125, 0.375, 0.375, 0.625, 0.875, 0.875, 0.875, 1.0, 1.0],
        ];
        for cdf in tables {
            assert_exact(&ZipfTable::with_guide(cdf.into()), &format!("cdf {cdf:?}"));
        }
    }

    #[test]
    fn shifted_draws_match_the_modulo_formula() {
        let keys = 1000;
        let sampler = new_sampler(KeyDist::Zipf { theta: 0.99 }, keys);
        let mut wrapped = 0;
        for offset in [0, 1, 500, 999, 1000, 1001, 2999, 123_456, u64::MAX - 1] {
            let mut plain = SimRng::new(17);
            let mut shifted = SimRng::new(17);
            for _ in 0..2_000 {
                let rank = sampler.sample(&mut plain);
                let expected = shifted_by_modulo(rank, offset, keys);
                assert_eq!(
                    sampler.sample_shifted(&mut shifted, offset),
                    expected,
                    "offset {offset}"
                );
                wrapped += u32::from(rank + offset % keys >= keys);
            }
        }
        assert!(wrapped > 1_000, "the wrap-around branch is exercised ({wrapped} draws)");
    }

    #[test]
    fn samplers_of_one_distribution_share_one_guide_built_once() {
        // A distribution distinct from every other test's.
        let dist = KeyDist::Zipf { theta: 0.731_9 };
        let _counted = counting();
        let before = cdf_builds();
        let first = KeySampler::new(dist, 4_099);
        let second = KeySampler::new(dist, 4_099);
        assert!(Arc::ptr_eq(table(&first), table(&second)), "one table, guide included");
        assert_eq!(cdf_builds(), before + 1, "one build for the CDF and its guide");
    }
}
