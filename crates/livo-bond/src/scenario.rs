//! Declarative network topology / impairment scenarios.
//!
//! A [`BondScenario`] is the full description of a client's access
//! topology over one call: a set of named links, each with its own
//! bandwidth trace, propagation delay, loss model (i.i.d. and/or
//! Gilbert–Elliott bursts), and a timeline of mid-run events (link
//! down/up, permanent kill). The grammar is a typed builder
//! rather than a string DSL, so "car leaves WiFi onto LTE" really is one
//! line:
//!
//! ```
//! use livo_bond::BondScenario;
//! let sc = BondScenario::wifi_to_lte(20.0);
//! assert_eq!(sc.links.len(), 2);
//! ```

use livo_capture::nettrace::TRACE_SAMPLE_HZ;
use livo_capture::BandwidthTrace;
use livo_transport::link::{GilbertElliott, LinkAction, LinkConfig, LinkEvent};
use livo_transport::{secs, Micros};

/// One access link: a bandwidth trace plus impairments plus a timeline.
#[derive(Debug, Clone)]
pub struct LinkScenario {
    /// Display name ("wifi", "lte", …) — also keys `transport.link.*`
    /// metrics after sanitisation.
    pub name: String,
    pub trace: BandwidthTrace,
    pub link: LinkConfig,
    /// Timeline of impairment events, kept sorted by time.
    pub events: Vec<LinkEvent>,
}

impl LinkScenario {
    /// A constant-capacity link with default impairments (20 ms one-way
    /// propagation, no loss).
    pub fn new(name: &str, capacity_mbps: f64, duration_s: f64) -> Self {
        LinkScenario {
            name: name.to_string(),
            trace: BandwidthTrace::constant(capacity_mbps, duration_s as f32),
            link: LinkConfig::default(),
            events: Vec::new(),
        }
    }

    /// Replace the bandwidth trace.
    #[cfg(test)]
    pub(crate) fn trace(mut self, trace: BandwidthTrace) -> Self {
        self.trace = trace;
        self
    }

    /// Piecewise-linear capacity profile: `(seconds, mbps)` breakpoints,
    /// linearly interpolated at [`TRACE_SAMPLE_HZ`].
    pub(crate) fn profile(mut self, points: &[(f64, f64)]) -> Self {
        self.trace = piecewise_trace(points);
        self
    }

    pub fn propagation_ms(mut self, ms: f64) -> Self {
        self.link.propagation = (ms * 1e3) as Micros;
        self
    }

    pub(crate) fn burst(mut self, ge: GilbertElliott) -> Self {
        self.link.burst = Some(ge);
        self
    }

    pub(crate) fn seed(mut self, seed: u64) -> Self {
        self.link.seed = seed;
        self
    }

    fn event(mut self, at_s: f64, action: LinkAction) -> Self {
        self.events.push(LinkEvent {
            at: secs(at_s),
            action,
        });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Take the link down at `at_s` seconds (recoverable).
    #[cfg(test)]
    pub(crate) fn down_at(self, at_s: f64) -> Self {
        self.event(at_s, LinkAction::Down)
    }

    /// Bring the link back up at `at_s` seconds.
    #[cfg(test)]
    pub(crate) fn up_at(self, at_s: f64) -> Self {
        self.event(at_s, LinkAction::Up)
    }

    /// Kill the link permanently at `at_s` seconds.
    pub(crate) fn kill_at(self, at_s: f64) -> Self {
        self.event(at_s, LinkAction::Kill)
    }

    /// Mean capacity of the trace in Mbps.
    pub(crate) fn mean_capacity_mbps(&self) -> f64 {
        self.trace.stats().mean
    }
}

/// Build a trace from `(seconds, mbps)` breakpoints with linear
/// interpolation between them.
fn piecewise_trace(points: &[(f64, f64)]) -> BandwidthTrace {
    assert!(points.len() >= 2, "profile needs at least two breakpoints");
    let end = points.last().unwrap().0;
    let n = (end * TRACE_SAMPLE_HZ as f64).ceil() as usize + 1;
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let t = i as f64 / TRACE_SAMPLE_HZ as f64;
        let mbps = match points.windows(2).find(|w| t >= w[0].0 && t <= w[1].0) {
            Some(w) => {
                let frac = if w[1].0 > w[0].0 {
                    (t - w[0].0) / (w[1].0 - w[0].0)
                } else {
                    0.0
                };
                w[0].1 + frac * (w[1].1 - w[0].1)
            }
            None if t < points[0].0 => points[0].1,
            None => points.last().unwrap().1,
        };
        samples.push(mbps);
    }
    BandwidthTrace {
        id: None,
        samples_mbps: samples,
    }
}

/// A client's whole access topology: several [`LinkScenario`]s bonded
/// into one session.
#[derive(Debug, Clone)]
pub struct BondScenario {
    /// Scenario name — keys the bench sweep and BENCH_bond.json entries.
    pub name: String,
    pub links: Vec<LinkScenario>,
}

impl BondScenario {
    pub fn new(name: &str) -> Self {
        BondScenario {
            name: name.to_string(),
            links: Vec::new(),
        }
    }

    /// Add a link (builder-style).
    pub fn link(mut self, link: LinkScenario) -> Self {
        self.links.push(link);
        self
    }

    /// Sum of the links' mean capacities in Mbps — the aggregation ceiling.
    pub fn sum_capacity_mbps(&self) -> f64 {
        self.links.iter().map(|l| l.mean_capacity_mbps()).sum()
    }

    /// Validate: at least one link, unique non-empty names.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.links.is_empty() {
            return Err("bond scenario has no links".into());
        }
        for (i, l) in self.links.iter().enumerate() {
            if l.name.is_empty() {
                return Err(format!("link {i} has an empty name"));
            }
            if self.links[..i].iter().any(|o| o.name == l.name) {
                return Err(format!("duplicate link name '{}'", l.name));
            }
        }
        Ok(())
    }

    // --- canned scenarios (the bench sweep + quickstart one-liners) ---

    /// Two clean links (WiFi 12 + LTE 6 Mbps): the lossless aggregation
    /// ceiling scenario.
    pub fn dual_clean(duration_s: f64) -> Self {
        BondScenario::new("dual_clean")
            .link(LinkScenario::new("wifi", 12.0, duration_s).seed(11))
            .link(
                LinkScenario::new("lte", 6.0, duration_s)
                    .propagation_ms(45.0)
                    .seed(12),
            )
    }

    /// WiFi fades from 18 → 2 Mbps mid-call and recovers; LTE holds at
    /// 7 Mbps underneath.
    pub fn wifi_fade(duration_s: f64) -> Self {
        let d = duration_s;
        BondScenario::new("wifi_fade")
            .link(
                LinkScenario::new("wifi", 18.0, d)
                    .profile(&[
                        (0.0, 18.0),
                        (0.40 * d, 18.0),
                        (0.45 * d, 2.0),
                        (0.65 * d, 2.0),
                        (0.70 * d, 18.0),
                        (d, 18.0),
                    ])
                    .seed(21),
            )
            .link(
                LinkScenario::new("lte", 7.0, d)
                    .propagation_ms(45.0)
                    .seed(22),
            )
    }

    /// "Car leaves WiFi onto LTE": WiFi (20 Mbps, 20 ms) is killed
    /// halfway through; LTE (7 Mbps, 45 ms) carries the rest of the call.
    pub fn wifi_to_lte(duration_s: f64) -> Self {
        BondScenario::new("wifi_to_lte")
            .link(
                LinkScenario::new("wifi", 20.0, duration_s)
                    .seed(31)
                    .kill_at(duration_s * 0.5),
            )
            .link(
                LinkScenario::new("lte", 7.0, duration_s)
                    .propagation_ms(45.0)
                    .seed(32),
            )
    }

    /// WiFi with Gilbert–Elliott interference bursts; clean LTE beneath.
    pub fn wifi_burst(duration_s: f64) -> Self {
        BondScenario::new("wifi_burst")
            .link(
                LinkScenario::new("wifi", 14.0, duration_s)
                    .burst(GilbertElliott::bursty(400.0, 40.0, 0.5))
                    .seed(41),
            )
            .link(
                LinkScenario::new("lte", 7.0, duration_s)
                    .propagation_ms(45.0)
                    .seed(42),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piecewise_profile_interpolates() {
        let l = LinkScenario::new("x", 1.0, 10.0).profile(&[(0.0, 10.0), (10.0, 0.0)]);
        let c0 = l.trace.capacity_at(0.0);
        let c5 = l.trace.capacity_at(5.0);
        let c10 = l.trace.capacity_at(9.9);
        assert!((c0 - 10.0).abs() < 0.2, "{c0}");
        assert!((c5 - 5.0).abs() < 0.2, "{c5}");
        assert!(c10 < 1.0, "{c10}");
    }

    #[test]
    fn events_sorted_by_time() {
        let l = LinkScenario::new("x", 1.0, 10.0)
            .kill_at(8.0)
            .down_at(2.0)
            .up_at(4.0);
        let times: Vec<Micros> = l.events.iter().map(|e| e.at).collect();
        assert_eq!(times, vec![2_000_000, 4_000_000, 8_000_000]);
    }

    #[test]
    fn canned_scenarios_validate() {
        for sc in [
            BondScenario::dual_clean(10.0),
            BondScenario::wifi_fade(10.0),
            BondScenario::wifi_to_lte(10.0),
            BondScenario::wifi_burst(10.0),
        ] {
            sc.validate().unwrap();
            assert!(sc.sum_capacity_mbps() > 0.0);
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let sc = BondScenario::new("bad")
            .link(LinkScenario::new("a", 1.0, 1.0))
            .link(LinkScenario::new("a", 1.0, 1.0));
        assert!(sc.validate().is_err());
    }
}
