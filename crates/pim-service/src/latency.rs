//! Latency-under-load accounting: domain-tagged histograms and the
//! three-way queueing / service / sojourn panel.
//!
//! Every committed request contributes three durations, cut at the stamps
//! the engine records (`arrival → dispatch → first-attempt → commit`):
//!
//! * **queueing** — `dispatch − arrival`: time spent waiting for a free
//!   tasklet (plus, on the fleet, for the owning shard's round to start).
//!   Identically zero under closed-loop arrivals.
//! * **service** — `commit − first-attempt`: time inside the STM, *including
//!   every aborted retry* — this is where contention shows up.
//! * **sojourn** — `commit − arrival`: what the client sees (≥ both above).
//!
//! Histograms are [`LatencyHistogram`]s (log-bucketed, merge-closed) tagged
//! with the executor's [`TimeDomain`], mirroring
//! [`pim_stm::profile::ExecProfile`]: merging across domains is a bug, not a
//! unit conversion, and panics.

use pim_sim::LatencyHistogram;
use pim_stm::profile::TimeDomain;

use crate::single::PanelComponent;

/// A [`LatencyHistogram`] that knows which clock its samples came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceHistogram {
    /// The clock domain of every recorded sample.
    pub time_domain: TimeDomain,
    /// The underlying log-bucketed histogram.
    pub hist: LatencyHistogram,
}

impl ServiceHistogram {
    /// An empty histogram for `time_domain` samples.
    pub fn new(time_domain: TimeDomain) -> Self {
        ServiceHistogram { time_domain, hist: LatencyHistogram::new() }
    }

    /// Records one duration (in this histogram's domain ticks).
    pub fn record(&mut self, value: u64) {
        self.hist.record(value);
    }

    /// Folds `other` into `self` (exact, like the underlying histogram).
    ///
    /// # Panics
    ///
    /// Panics when the domains differ — cycles and wall-nanoseconds must
    /// never be pooled.
    pub fn merge(&mut self, other: &ServiceHistogram) {
        assert_eq!(
            self.time_domain, other.time_domain,
            "merging {} and {} service histograms",
            self.time_domain, other.time_domain
        );
        self.hist.merge(&other.hist);
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// A quantile in domain ticks (see [`LatencyHistogram::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        self.hist.quantile(q)
    }

    /// Converts a tick value to seconds at `ticks_per_second`.
    pub fn seconds(&self, ticks: u64, ticks_per_second: f64) -> f64 {
        ticks as f64 / ticks_per_second
    }
}

/// The three-way latency panel of one service run: queueing, service and
/// sojourn histograms over the same committed requests, in one domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyPanel {
    /// `dispatch − arrival` per request.
    pub queueing: ServiceHistogram,
    /// `commit − first attempt` per request (STM time incl. retries).
    pub service: ServiceHistogram,
    /// `commit − arrival` per request (end-to-end).
    pub sojourn: ServiceHistogram,
}

impl LatencyPanel {
    /// An empty panel in `time_domain`.
    pub fn new(time_domain: TimeDomain) -> Self {
        LatencyPanel {
            queueing: ServiceHistogram::new(time_domain),
            service: ServiceHistogram::new(time_domain),
            sojourn: ServiceHistogram::new(time_domain),
        }
    }

    /// The panel's clock domain.
    pub fn time_domain(&self) -> TimeDomain {
        self.queueing.time_domain
    }

    /// Records one committed request's three durations.
    pub fn record(&mut self, queueing: u64, service: u64, sojourn: u64) {
        self.queueing.record(queueing);
        self.service.record(service);
        self.sojourn.record(sojourn);
    }

    /// A quantile of `which` component, in seconds at `ticks_per_second`.
    pub fn quantile_seconds(&self, which: PanelComponent, q: f64, ticks_per_second: f64) -> f64 {
        let hist = match which {
            PanelComponent::Queueing => &self.queueing,
            PanelComponent::Service => &self.service,
            PanelComponent::Sojourn => &self.sojourn,
        };
        hist.seconds(hist.quantile(q), ticks_per_second)
    }

    /// Number of committed requests recorded.
    pub fn completed(&self) -> u64 {
        self.sojourn.count()
    }

    /// Folds `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics when the domains differ (see [`ServiceHistogram::merge`]).
    pub fn merge(&mut self, other: &LatencyPanel) {
        self.queueing.merge(&other.queueing);
        self.service.merge(&other.service);
        self.sojourn.merge(&other.sojourn);
    }
}

/// FNV-1a over every component's count, sum, max and non-empty buckets:
/// what the goldens pin a panel by.
#[cfg(test)]
pub(crate) fn panel_fingerprint(panel: &LatencyPanel) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for component in [&panel.queueing, &panel.service, &panel.sojourn] {
        let hist = &component.hist;
        [hist.count(), hist.sum(), hist.max()].into_iter().for_each(&mut eat);
        for (low, high, count) in hist.nonzero_buckets() {
            [low, high, count].into_iter().for_each(&mut eat);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_records_and_merges_per_component() {
        let mut a = LatencyPanel::new(TimeDomain::Cycles);
        a.record(10, 100, 110);
        a.record(0, 50, 50);
        let mut b = LatencyPanel::new(TimeDomain::Cycles);
        b.record(1000, 200, 1200);
        a.merge(&b);
        assert_eq!(a.completed(), 3);
        assert_eq!(a.queueing.count(), 3);
        assert_eq!(a.sojourn.hist.max(), 1200);
        assert!(a.sojourn.quantile(0.99) >= a.sojourn.quantile(0.50));
    }

    #[test]
    #[should_panic(expected = "merging")]
    fn cross_domain_merge_panics() {
        let mut cycles = ServiceHistogram::new(TimeDomain::Cycles);
        let nanos = ServiceHistogram::new(TimeDomain::WallNanos);
        cycles.merge(&nanos);
    }

    #[test]
    fn seconds_conversion_uses_the_given_tick_rate() {
        let h = ServiceHistogram::new(TimeDomain::Cycles);
        assert!((h.seconds(350, 350e6) - 1e-6).abs() < 1e-12);
    }
}
