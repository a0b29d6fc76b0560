//! Open-loop arrival processes: seeded, deterministic request timestamps.
//!
//! The classic closed-loop harness (every tasklet fires its next transaction
//! the instant the previous one commits) measures *capacity*, not *latency
//! under load*: there is never a queue, so queueing delay is zero by
//! construction. An **open-loop** generator instead draws arrival timestamps
//! from a stochastic process that does not care how fast the server is — when
//! the offered rate approaches capacity, requests pile up and the latency
//! distribution's tail shows it.
//!
//! [`ArrivalGen`] turns an [`ArrivalProcess`] into a monotone stream of
//! timestamps in an abstract **tick** domain; the caller picks the tick rate
//! (`ticks_per_second`) to match its executor's clock — simulator cycles
//! (`clock_hz`) or wall-clock nanoseconds (`1e9`). The draw discipline is one
//! [`SimRng`] exponential per arrival, so a seeded stream is identical across
//! executors, shard counts and runs.

use pim_sim::SimRng;

/// The stochastic process generating request arrival times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate` requests/second (exponential
    /// inter-arrival times) — the M in M/G/k.
    Poisson {
        /// Mean offered load, requests per second.
        rate: f64,
    },
    /// On/off-modulated Poisson: arrivals come in windows. Each window holds
    /// `burst` expected arrivals; within a window all arrivals land in its
    /// first `duty` fraction (drawn at rate `rate / duty`), the rest of the
    /// window is silent. Long-run offered load is still `rate`.
    Bursty {
        /// Long-run mean offered load, requests per second.
        rate: f64,
        /// Expected arrivals per on/off window (≥ 1).
        burst: f64,
        /// Fraction of each window that receives traffic (`0 < duty ≤ 1`);
        /// `1.0` degenerates to [`ArrivalProcess::Poisson`].
        duty: f64,
    },
    /// No arrival process: a request "arrives" the instant a tasklet is free
    /// to serve it. Queueing delay is identically zero by construction —
    /// this is the legacy capacity-measuring harness, kept as the baseline.
    ClosedLoop,
}

impl ArrivalProcess {
    /// Parses an `--arrival` CLI shape, attaching `rate` (requests/second)
    /// to the open-loop variants: `poisson`, `bursty[:burst[:duty]]`
    /// (defaults `burst = 64`, `duty = 0.2`), or `closed-loop`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown shape, a malformed
    /// parameter, or a non-positive rate on an open-loop shape.
    pub fn parse(text: &str, rate: f64) -> Result<Self, String> {
        let mut parts = text.split(':');
        let shape = parts.next().unwrap_or_default();
        let check_rate = || {
            if rate.is_finite() && rate > 0.0 {
                Ok(())
            } else {
                Err(format!("open-loop arrivals need a positive --rate, got {rate}"))
            }
        };
        let process = match shape {
            "poisson" => {
                check_rate()?;
                ArrivalProcess::Poisson { rate }
            }
            "bursty" => {
                check_rate()?;
                let burst: f64 = match parts.next() {
                    None => 64.0,
                    Some(b) => b.parse().map_err(|_| format!("bad burst size {b:?}"))?,
                };
                let duty: f64 = match parts.next() {
                    None => 0.2,
                    Some(d) => d.parse().map_err(|_| format!("bad duty cycle {d:?}"))?,
                };
                if !(burst >= 1.0 && burst.is_finite()) {
                    return Err(format!("burst size must be >= 1, got {burst}"));
                }
                if !(duty > 0.0 && duty <= 1.0) {
                    return Err(format!("duty cycle must be in (0, 1], got {duty}"));
                }
                ArrivalProcess::Bursty { rate, burst, duty }
            }
            "closed-loop" => ArrivalProcess::ClosedLoop,
            other => {
                return Err(format!(
                    "unknown arrival process {other:?} (expected poisson, bursty[:burst[:duty]] \
                     or closed-loop)"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("trailing arrival parameters in {text:?}"));
        }
        Ok(process)
    }

    /// The long-run offered load in requests/second (`0.0` for
    /// [`ArrivalProcess::ClosedLoop`], which offers no independent load).
    pub fn offered_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Bursty { rate, .. } => rate,
            ArrivalProcess::ClosedLoop => 0.0,
        }
    }

    /// Whether this is the closed-loop (no-queue) baseline.
    pub(crate) fn is_closed_loop(&self) -> bool {
        matches!(self, ArrivalProcess::ClosedLoop)
    }
}

impl std::fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ArrivalProcess::Poisson { rate } => write!(f, "poisson@{rate}/s"),
            ArrivalProcess::Bursty { rate, burst, duty } => {
                write!(f, "bursty@{rate}/s:{burst}:{duty}")
            }
            ArrivalProcess::ClosedLoop => write!(f, "closed-loop"),
        }
    }
}

/// Seeded generator of monotone arrival timestamps (in ticks) for an
/// [`ArrivalProcess`]. One exponential draw per arrival, independent of
/// everything else — see the [module documentation](self).
#[derive(Debug)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SimRng,
    ticks_per_second: f64,
    /// Accumulated *on-time* in seconds (for bursty, time with traffic
    /// flowing; for Poisson, just time).
    on_seconds: f64,
}

impl ArrivalGen {
    /// A generator for `process`, drawing from the seeded stream `seed`,
    /// emitting timestamps at `ticks_per_second` resolution.
    pub(crate) fn new(process: ArrivalProcess, seed: u64, ticks_per_second: f64) -> Self {
        ArrivalGen { process, rng: SimRng::new(seed), ticks_per_second, on_seconds: 0.0 }
    }

    /// The next arrival timestamp in ticks. Non-decreasing across calls;
    /// always `0` for [`ArrivalProcess::ClosedLoop`] (the driver overwrites
    /// closed-loop arrivals with the dispatch instant).
    pub(crate) fn next_arrival(&mut self) -> u64 {
        let (rate_on, real_seconds) = match self.process {
            ArrivalProcess::ClosedLoop => return 0,
            ArrivalProcess::Poisson { rate } => {
                let step = self.exponential(rate);
                self.on_seconds += step;
                (rate, self.on_seconds)
            }
            ArrivalProcess::Bursty { rate, burst, duty } => {
                // Draw in compressed "on time" at the elevated in-burst
                // rate, then re-expand: each window of `burst / rate`
                // seconds real time has `duty` of it on, the rest silent.
                let rate_on = rate / duty;
                let step = self.exponential(rate_on);
                self.on_seconds += step;
                let window = burst / rate;
                let on_window = duty * window;
                let k = (self.on_seconds / on_window).floor();
                let within = self.on_seconds - k * on_window;
                (rate_on, k * window + within)
            }
        };
        debug_assert!(rate_on > 0.0);
        (real_seconds * self.ticks_per_second) as u64
    }

    /// One exponential inter-arrival draw with mean `1 / rate` seconds.
    fn exponential(&mut self, rate: f64) -> f64 {
        // next_f64 ∈ [0, 1) so 1 - u ∈ (0, 1] and ln is finite.
        let u = self.rng.next_f64();
        -(1.0 - u).ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_shapes_and_rejects_garbage() {
        assert_eq!(
            ArrivalProcess::parse("poisson", 1e6).unwrap(),
            ArrivalProcess::Poisson { rate: 1e6 }
        );
        assert_eq!(
            ArrivalProcess::parse("bursty", 5e5).unwrap(),
            ArrivalProcess::Bursty { rate: 5e5, burst: 64.0, duty: 0.2 }
        );
        assert_eq!(
            ArrivalProcess::parse("bursty:16:0.5", 5e5).unwrap(),
            ArrivalProcess::Bursty { rate: 5e5, burst: 16.0, duty: 0.5 }
        );
        assert_eq!(ArrivalProcess::parse("closed-loop", 0.0).unwrap(), ArrivalProcess::ClosedLoop);
        assert!(ArrivalProcess::parse("poisson", 0.0).is_err(), "open loop needs a rate");
        assert!(ArrivalProcess::parse("uniform", 1.0).is_err());
        assert!(ArrivalProcess::parse("bursty:0.5", 1.0).is_err(), "burst < 1");
        assert!(ArrivalProcess::parse("bursty:8:1.5", 1.0).is_err(), "duty > 1");
        assert!(ArrivalProcess::parse("poisson:9", 1.0).is_err(), "trailing params");
    }

    #[test]
    fn poisson_arrivals_are_monotone_deterministic_and_near_rate() {
        let process = ArrivalProcess::Poisson { rate: 1_000_000.0 };
        let draw = |seed| {
            let mut gen = ArrivalGen::new(process, seed, 1e9);
            (0..4096).map(|_| gen.next_arrival()).collect::<Vec<u64>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same stream");
        assert_ne!(a, draw(8), "different seed, different stream");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "timestamps must be monotone");
        // 4096 arrivals at 1M/s should take ~4.096 ms of nanosecond ticks.
        let span_seconds = *a.last().unwrap() as f64 / 1e9;
        let implied_rate = 4096.0 / span_seconds;
        assert!(
            (implied_rate - 1e6).abs() / 1e6 < 0.1,
            "implied rate {implied_rate} too far from 1e6"
        );
    }

    #[test]
    fn bursty_compresses_arrivals_into_duty_windows_at_the_same_long_run_rate() {
        let rate = 1_000_000.0;
        let (burst, duty) = (64.0, 0.25);
        let mut gen = ArrivalGen::new(ArrivalProcess::Bursty { rate, burst, duty }, 3, 1e9);
        let arrivals: Vec<u64> = (0..8192).map(|_| gen.next_arrival()).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Long-run rate is preserved.
        let span_seconds = *arrivals.last().unwrap() as f64 / 1e9;
        let implied_rate = 8192.0 / span_seconds;
        assert!((implied_rate - rate).abs() / rate < 0.1, "long-run rate {implied_rate}");
        // Every arrival lands in the on-fraction of its window.
        let window_ticks = burst / rate * 1e9;
        let on_ticks = duty * window_ticks;
        for &t in &arrivals {
            let within = t as f64 % window_ticks;
            // One-tick slack for the float → tick truncation at boundaries.
            assert!(within <= on_ticks + 1.0, "arrival {t} outside the on-window");
        }
    }

    #[test]
    fn closed_loop_offers_no_timestamps() {
        let mut gen = ArrivalGen::new(ArrivalProcess::ClosedLoop, 1, 1e9);
        assert_eq!(gen.next_arrival(), 0);
        assert_eq!(gen.next_arrival(), 0);
        assert_eq!(ArrivalProcess::ClosedLoop.offered_rate(), 0.0);
        assert!(ArrivalProcess::ClosedLoop.is_closed_loop());
    }
}
