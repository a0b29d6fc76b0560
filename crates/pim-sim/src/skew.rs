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
//! (`O(n)` memory, `O(log n)` per draw via binary search), and every draw
//! consumes exactly one [`SimRng::next_f64`] — so a seeded stream is
//! reproducible across executors, shard counts and host thread counts.
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

/// Process-wide memo of normalised zipf CDF tables, keyed by
/// `(theta bit pattern, keyspace size)`.
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

/// Memo table behind [`cdf_cache`]: `(theta bits, keys)` → shared CDF.
type CdfCache = HashMap<(u64, u64), Arc<[f64]>>;

/// Number of zipf CDF tables actually *constructed* (cache misses) since
/// process start.
static CDF_BUILDS: AtomicU64 = AtomicU64::new(0);

/// How many zipf CDF tables have been built (not served from the cache)
/// since process start. Tests use this to assert that repeated sampler
/// construction over the same distribution does not redo the `O(n)` work.
pub fn cdf_builds() -> u64 {
    CDF_BUILDS.load(Ordering::Relaxed)
}

/// A sampler for one [`KeyDist`] over the keyspace `0..keys`.
///
/// Zipfian sampling precomputes the normalised CDF once and binary-searches
/// it per draw; uniform sampling skips the table entirely. Either way a
/// draw consumes exactly one `next_f64` from the caller's [`SimRng`], so
/// streams are reproducible and executor-agnostic. CDF tables are memoised
/// process-wide (see [`cdf_builds`]), so constructing the same sampler
/// repeatedly — across `--repeat` iterations, grid cells or fleet rounds —
/// pays the `O(n)` table construction only once.
#[derive(Debug, Clone)]
pub struct KeySampler {
    keys: u64,
    /// `cdf[r]` = P(rank <= r); empty for the uniform fast path. Shared
    /// with every other sampler of the same `(θ, keys)`.
    cdf: Arc<[f64]>,
}

impl KeySampler {
    /// Builds a sampler over `0..keys`.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero — an empty keyspace has nothing to draw.
    pub fn new(dist: KeyDist, keys: u64) -> Self {
        assert!(keys > 0, "key sampler needs a non-empty keyspace");
        let cdf = match dist {
            // theta == 0 degenerates to the uniform fast path.
            KeyDist::Uniform | KeyDist::Zipf { theta: 0.0 } => Arc::from(Vec::<f64>::new()),
            KeyDist::Zipf { theta } => {
                let cache_key = (theta.to_bits(), keys);
                let mut cache = cdf_cache().lock().expect("cdf cache poisoned");
                cache.entry(cache_key).or_insert_with(|| Self::build_cdf(theta, keys)).clone()
            }
        };
        KeySampler { keys, cdf }
    }

    /// The `O(n)` zipf table construction (cache-miss path).
    fn build_cdf(theta: f64, keys: u64) -> Arc<[f64]> {
        CDF_BUILDS.fetch_add(1, Ordering::Relaxed);
        let mut cdf = Vec::with_capacity(keys as usize);
        let mut total = 0.0f64;
        for rank in 0..keys {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        Arc::from(cdf)
    }

    /// Size of the keyspace this sampler draws from.
    pub fn keys(&self) -> u64 {
        self.keys
    }

    /// The precomputed normalised CDF (`cdf[r]` = P(rank <= r)); empty on
    /// the uniform fast path. Exposed so tests can check monotonicity.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// Draws one key in `0..keys`, consuming one `next_f64`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        if self.cdf.is_empty() {
            // Uniform fast path; `u < 1.0` keeps the result in range.
            ((u * self.keys as f64) as u64).min(self.keys - 1)
        } else {
            // First rank whose cumulative probability reaches `u`.
            self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1) as u64
        }
    }

    /// Draws one key with the rank→key mapping rotated by `offset`
    /// (modulo the keyspace), consuming exactly one `next_f64` — the same
    /// draw discipline as [`KeySampler::sample`], so shifted and unshifted
    /// streams stay in lockstep on the same [`SimRng`].
    ///
    /// A phase-changing workload uses this to move the hot ranks to a
    /// different region of the keyspace mid-stream: with `offset = 0` the
    /// result is identical to `sample`.
    pub fn sample_shifted(&self, rng: &mut SimRng, offset: u64) -> u64 {
        (self.sample(rng) + offset % self.keys) % self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(dist: KeyDist, keys: u64, draws: usize, seed: u64) -> Vec<u64> {
        let sampler = KeySampler::new(dist, keys);
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
            let sampler = KeySampler::new(dist, 100);
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
        // A distribution distinct from every other test's, so parallel test
        // execution cannot interfere with the build count.
        let dist = KeyDist::Zipf { theta: 1.017_25 };
        let first = KeySampler::new(dist, 777);
        let builds_after_first = cdf_builds();
        for _ in 0..10 {
            // Repeated builds — the shape every `--repeat` loop and grid
            // sweep has — must be served from the cache.
            let again = KeySampler::new(dist, 777);
            assert!(Arc::ptr_eq(&first.cdf, &again.cdf), "same (θ, n) must share one table");
        }
        assert_eq!(cdf_builds(), builds_after_first, "no rebuilds for a cached distribution");
        // A different keyspace is a different table.
        let other = KeySampler::new(dist, 778);
        assert!(!Arc::ptr_eq(&first.cdf, &other.cdf));
        // The cached table still samples correctly and deterministically.
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        let fresh = KeySampler::new(dist, 777);
        for _ in 0..200 {
            assert_eq!(first.sample(&mut a), fresh.sample(&mut b));
        }
    }

    #[test]
    fn uniform_samplers_skip_the_cache_entirely() {
        let builds_before = cdf_builds();
        let _ = KeySampler::new(KeyDist::Uniform, 123_457);
        let _ = KeySampler::new(KeyDist::Zipf { theta: 0.0 }, 123_457);
        assert_eq!(cdf_builds(), builds_before, "the uniform fast path builds no table");
    }

    #[test]
    fn shifted_sampling_rotates_the_keyspace() {
        let sampler = KeySampler::new(KeyDist::Zipf { theta: 1.2 }, 64);
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
}
