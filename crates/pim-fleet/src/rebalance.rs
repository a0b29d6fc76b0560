//! Skew-adaptive shard rebalancing: when and how the fleet recuts the
//! range partition between rounds.
//!
//! A shard job feeds every *dispatched* key into a [`Rebalancer`] as it
//! routes a round — so the load window is known **before** the shards
//! compute, which keeps the trigger decision deterministic and compatible
//! with the double-buffered round pipeline (the host never has to wait for
//! round `k`'s results to decide whether round `k+1`'s partition changes).
//! After each round the driver ([`crate::round`]) asks
//! [`Rebalancer::plan`] for a recut; a triggered recut calls
//! [`ShardMap::rebalanced`] on the windowed per-key loads and the window
//! resets, so each migration is judged on the traffic since the last one.
//!
//! The policy itself is deliberately simple:
//!
//! * [`RebalancePolicy::Off`] — never recut (the static baseline).
//! * [`RebalancePolicy::Threshold`] — recut when the window's per-shard
//!   load imbalance (max/mean over the *current* map) exceeds a factor.
//! * [`RebalancePolicy::Periodic`] — recut every `every` rounds
//!   regardless of the signal (useful to bound staleness under
//!   phase-changing streams).
//!
//! What a recut *costs* is owned by the round driver, not this module:
//! moved key ranges are charged as real `gather` + `scatter` bytes through
//! the [`TransferLedger`](crate::TransferLedger) (8 bytes per moved key
//! each direction), so rebalancing pays for itself inside the same cost
//! model it is trying to beat.

use pim_workloads::sharded::ShardMap;
use std::fmt;

/// When the fleet recuts its range partition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RebalancePolicy {
    /// Never recut: the seed fleet's static partition.
    #[default]
    Off,
    /// Recut when windowed per-shard load `max/mean` exceeds the factor.
    Threshold {
        /// Trigger factor; `1.0` recuts on any imbalance, larger values
        /// tolerate more skew before paying a migration.
        max_over_mean: f64,
    },
    /// Recut unconditionally every `every` rounds.
    Periodic {
        /// Rounds between recuts (`>= 1`).
        every: u32,
    },
}

/// The default trigger factor for `--rebalance threshold`.
pub(crate) const DEFAULT_THRESHOLD: f64 = 1.25;

impl RebalancePolicy {
    /// Parses `"off"`, `"threshold"`, `"threshold:<factor>"`, `"periodic"`
    /// or `"periodic:<rounds>"`.
    ///
    /// # Errors
    ///
    /// Returns a description of the accepted forms when `text` matches
    /// none of them or carries an out-of-range parameter.
    pub fn parse(text: &str) -> Result<Self, String> {
        let text = text.trim();
        if text.eq_ignore_ascii_case("off") {
            return Ok(RebalancePolicy::Off);
        }
        if text.eq_ignore_ascii_case("threshold") {
            return Ok(RebalancePolicy::Threshold { max_over_mean: DEFAULT_THRESHOLD });
        }
        if let Some(factor) = text.strip_prefix("threshold:") {
            let max_over_mean: f64 = factor
                .parse()
                .map_err(|_| format!("invalid threshold factor {factor:?} (want e.g. 1.25)"))?;
            if !max_over_mean.is_finite() || max_over_mean < 1.0 {
                return Err(format!("threshold factor must be >= 1, got {max_over_mean}"));
            }
            return Ok(RebalancePolicy::Threshold { max_over_mean });
        }
        if text.eq_ignore_ascii_case("periodic") {
            return Ok(RebalancePolicy::Periodic { every: 1 });
        }
        if let Some(every) = text.strip_prefix("periodic:") {
            let every: u32 = every
                .parse()
                .map_err(|_| format!("invalid period {every:?} (want a round count)"))?;
            if every == 0 {
                return Err("periodic rebalance period must be >= 1".to_string());
            }
            return Ok(RebalancePolicy::Periodic { every });
        }
        Err(format!(
            "unknown rebalance policy {text:?} \
             (want off, threshold[:<factor>] or periodic[:<rounds>])"
        ))
    }

    /// True unless the policy is [`RebalancePolicy::Off`].
    pub fn is_enabled(self) -> bool {
        !matches!(self, RebalancePolicy::Off)
    }
}

impl fmt::Display for RebalancePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebalancePolicy::Off => write!(f, "off"),
            RebalancePolicy::Threshold { max_over_mean } => write!(f, "threshold:{max_over_mean}"),
            RebalancePolicy::Periodic { every } => write!(f, "periodic:{every}"),
        }
    }
}

/// Sliding-window per-key load tracker that decides when to recut.
///
/// Deterministic by construction: the window only sees the dispatch-order
/// key stream, which is itself independent of host worker count.
#[derive(Debug, Clone)]
pub struct Rebalancer {
    policy: RebalancePolicy,
    /// Accesses per key since the last recut (reads and updates count
    /// equally — both pin the key's owner during the round). Empty under
    /// [`RebalancePolicy::Off`], which never reads it.
    window: Vec<u64>,
    /// Rounds dispatched since the last recut.
    rounds_since: u32,
}

impl Rebalancer {
    /// Creates a tracker for a `total_keys`-sized keyspace.
    pub fn new(policy: RebalancePolicy, total_keys: u32) -> Self {
        let tracked = if policy.is_enabled() { total_keys as usize } else { 0 };
        Rebalancer { policy, window: vec![0; tracked], rounds_since: 0 }
    }

    /// Records the keys one dispatched transaction or request accesses.
    /// Under [`RebalancePolicy::Off`] the iterator is not even advanced.
    pub fn note(&mut self, keys: impl IntoIterator<Item = u32>) {
        if !self.policy.is_enabled() {
            return;
        }
        for key in keys {
            self.window[key as usize] += 1;
        }
    }

    /// Called once per dispatched round, after all [`Rebalancer::note`]
    /// calls for that round. Returns the recut map when the policy fires
    /// *and* the recut actually moves a boundary; `None` otherwise. On a
    /// recut the load window and round counter reset.
    ///
    /// `more_work` should be false on the final round — a migration that
    /// no future round can amortize is never worth paying for.
    pub fn plan(&mut self, map: &ShardMap, more_work: bool) -> Option<ShardMap> {
        self.rounds_since += 1;
        if !more_work || !self.triggered(map) {
            return None;
        }
        let recut = map.rebalanced(&self.window);
        self.window.fill(0);
        self.rounds_since = 0;
        (recut != *map).then_some(recut)
    }

    fn triggered(&self, map: &ShardMap) -> bool {
        match self.policy {
            RebalancePolicy::Off => false,
            RebalancePolicy::Periodic { every } => self.rounds_since >= every,
            RebalancePolicy::Threshold { max_over_mean } => {
                // A shard's load is the sum over its contiguous slice of
                // the window: no per-key owner lookup.
                let load = |shard| -> u64 {
                    let owned = map.range(shard);
                    self.window[owned.start as usize..owned.end as usize].iter().sum()
                };
                let (max, total) = (0..map.shards())
                    .map(load)
                    .fold((0, 0), |(max, total), load| (load.max(max), total + load));
                if total == 0 {
                    return false;
                }
                let mean = total as f64 / f64::from(map.shards());
                max as f64 / mean > max_over_mean
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(RebalancePolicy::parse("off").unwrap(), RebalancePolicy::Off);
        assert_eq!(
            RebalancePolicy::parse("threshold").unwrap(),
            RebalancePolicy::Threshold { max_over_mean: DEFAULT_THRESHOLD }
        );
        assert_eq!(
            RebalancePolicy::parse("threshold:2.5").unwrap(),
            RebalancePolicy::Threshold { max_over_mean: 2.5 }
        );
        assert_eq!(
            RebalancePolicy::parse(" periodic:4 ").unwrap(),
            RebalancePolicy::Periodic { every: 4 }
        );
        assert_eq!(
            RebalancePolicy::parse("periodic").unwrap(),
            RebalancePolicy::Periodic { every: 1 }
        );
        assert!(RebalancePolicy::parse("threshold:0.5").is_err());
        assert!(RebalancePolicy::parse("periodic:0").is_err());
        assert!(RebalancePolicy::parse("sometimes").is_err());
        assert_eq!(RebalancePolicy::parse("threshold:2.5").unwrap().to_string(), "threshold:2.5");
        assert_eq!(RebalancePolicy::Off.to_string(), "off");
        assert!(!RebalancePolicy::Off.is_enabled());
        assert!(RebalancePolicy::default() == RebalancePolicy::Off);
    }

    #[test]
    fn threshold_fires_only_past_the_factor() {
        let map = ShardMap::new(64, 4);
        let mut even = Rebalancer::new(RebalancePolicy::Threshold { max_over_mean: 1.5 }, 64);
        // One access per shard: max/mean == 1, below the factor.
        even.note([0, 16, 32, 48]);
        assert!(even.plan(&map, true).is_none());
        // Pile everything on shard 0: max/mean == 4, fires and recuts.
        let mut hot = Rebalancer::new(RebalancePolicy::Threshold { max_over_mean: 1.5 }, 64);
        for id in 0..32 {
            hot.note([id % 16]);
        }
        let recut = hot.plan(&map, true).expect("hot window must trigger a recut");
        assert!(recut.span(0) < map.span(0), "hot shard must shrink");
        // The window reset: the same tracker stays quiet until new load arrives.
        assert!(hot.plan(&recut, true).is_none());
    }

    #[test]
    fn periodic_fires_on_schedule_and_final_round_never_migrates() {
        let map = ShardMap::new(64, 4);
        let mut rb = Rebalancer::new(RebalancePolicy::Periodic { every: 2 }, 64);
        rb.note([1, 2, 3]);
        assert!(rb.plan(&map, true).is_none(), "round 1 of 2: not yet");
        assert!(rb.plan(&map, true).is_some(), "round 2 of 2: fires");
        rb.note([5]);
        assert!(rb.plan(&map, true).is_none());
        assert!(rb.plan(&map, false).is_none(), "no future work, no migration");
        // A recut that would not move any boundary is suppressed.
        let mut flat = Rebalancer::new(RebalancePolicy::Periodic { every: 1 }, 64);
        for id in 0..64 {
            flat.note([id]);
        }
        assert!(flat.plan(&map, true).is_none(), "uniform load keeps the even cut");
    }

    #[test]
    fn off_holds_no_window() {
        let mut rb = Rebalancer::new(RebalancePolicy::Off, 1 << 20);
        assert!(rb.window.is_empty());
        rb.note([1 << 19]);
        assert!(rb.window.is_empty());
        assert_eq!(Rebalancer::new(RebalancePolicy::Periodic { every: 1 }, 64).window.len(), 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Summing each shard's contiguous window slice fires exactly when
        /// the per-key owner loop did.
        #[test]
        fn slice_sums_trigger_like_the_per_key_loop(
            total_keys in 1u32..40,
            cuts in prop::collection::vec(0u32..40, 0..8),
            loads in prop::collection::vec(0u64..50, 40..41),
            percent in 100u32..400,
        ) {
            let mut bounds: Vec<u32> = cuts.iter().map(|cut| cut % (total_keys + 1)).collect();
            bounds.push(0);
            bounds.sort_unstable();
            let map = ShardMap::with_bounds(total_keys, bounds);
            let max_over_mean = f64::from(percent) / 100.0;
            let mut rb = Rebalancer::new(RebalancePolicy::Threshold { max_over_mean }, total_keys);
            rb.window.copy_from_slice(&loads[..total_keys as usize]);

            let mut per_shard = vec![0u64; map.shards() as usize];
            for (key, &load) in rb.window.iter().enumerate() {
                per_shard[map.owner(key as u32) as usize] += load;
            }
            let total: u64 = per_shard.iter().sum();
            let max = *per_shard.iter().max().unwrap() as f64;
            let expected = total > 0 && max / (total as f64 / per_shard.len() as f64) > max_over_mean;
            prop_assert_eq!(rb.triggered(&map), expected);
        }
    }

    #[test]
    fn off_never_fires() {
        let map = ShardMap::new(16, 2);
        let mut rb = Rebalancer::new(RebalancePolicy::Off, 16);
        for _ in 0..100 {
            rb.note([0]);
            assert!(rb.plan(&map, true).is_none());
        }
    }
}
