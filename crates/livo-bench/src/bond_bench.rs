//! Bonded-transport sweep: bonded delivery vs every single link, per
//! topology scenario.
//!
//! Each sweep point replays one [`BondScenario`] twice over: once bonded
//! (all links as legs of one `RtcSession`) and once per link alone (a
//! 1-link bond, so the impairment timeline — fades, kills, bursts —
//! replays identically). The point reports delivered goodput, display
//! stall rate at 30 fps, failovers, and insurance copies (key packets and
//! mirrored retransmits), and gates the aggregation claims:
//!
//! * `dual_clean` is driven at a fixed 96% of the summed capacity and
//!   must deliver ≥ 90% of the sum — the lossless aggregation ceiling.
//! * The degradation scenarios (`wifi_fade`, `wifi_to_lte`,
//!   `wifi_burst`) drive estimate-adaptive load; bonded must beat the
//!   best single link on delivered Mbps (≥ 1.05×) without stalling more
//!   (≤ best + 2 pp), and the kill scenario must fail over and keep
//!   frames flowing to the end of the call.

use bytes::Bytes;
use livo_bond::{BondConfig, BondScenario};
use livo_eval::experiments::EvalProfile;
use livo_telemetry::json::ObjectWriter;
use livo_transport::StreamId;

/// 30 fps capture/display clock.
const FRAME_INTERVAL: u64 = 33_333;

/// One replay's receiver-side outcome (bonded or single-link).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub delivered_mbps: f64,
    pub stall_rate: f64,
    pub frames_delivered: u64,
    pub failovers: u64,
    /// Insurance copies: key packets and mirrored retransmits.
    pub dup_packets: u64,
    /// A frame captured in the call's final second reached the display.
    pub survived: bool,
}

/// One scenario's sweep point: bonded vs the best single link.
#[derive(Debug, Clone)]
pub struct BondPoint {
    pub scenario: String,
    pub sum_capacity_mbps: f64,
    pub bonded: RunOutcome,
    /// `(link name, outcome)` per single-link baseline.
    pub singles: Vec<(String, RunOutcome)>,
    /// Fixed offered load (Mbps) if the point is capacity-driven.
    pub fixed_load_mbps: Option<f64>,
}

impl BondPoint {
    /// Best single link by delivered goodput.
    pub fn best_single(&self) -> &(String, RunOutcome) {
        self.singles
            .iter()
            .max_by(|a, b| a.1.delivered_mbps.total_cmp(&b.1.delivered_mbps))
            .expect("scenario has at least one link")
    }

    /// Does this point hold the aggregation claims it gates?
    pub fn gate_ok(&self) -> bool {
        let best = &self.best_single().1;
        if self.fixed_load_mbps.is_some() {
            // Lossless ceiling: ≥ 90% of summed capacity, and strictly
            // more than any one link could carry.
            self.bonded.delivered_mbps >= 0.9 * self.sum_capacity_mbps
                && self.bonded.delivered_mbps > best.delivered_mbps
        } else {
            let wins_rate = self.bonded.delivered_mbps >= 1.05 * best.delivered_mbps;
            let wins_stalls = self.bonded.stall_rate <= best.stall_rate + 0.02;
            let kill_ok = self.scenario != "wifi_to_lte"
                || (self.bonded.survived && self.bonded.failovers >= 1);
            wins_rate && wins_stalls && kill_ok
        }
    }
}

/// Replay one scenario: 30 fps sender, 1 ms ticks, display-slot stall
/// model (playout starts after the jitter target + 3 frame intervals),
/// 1.5 s drain so in-flight tails are counted.
fn drive(scenario: BondScenario, duration_s: f64, fixed_rate_bps: Option<f64>) -> RunOutcome {
    let mut cfg = BondConfig::new(scenario);
    if let Some(rate) = fixed_rate_bps {
        // Capacity-driven points measure the aggregation ceiling, not the
        // GCC ramp: warm-start the estimate at the offered load so the
        // pacer passes it through from the first frame.
        cfg.initial_estimate_bps = rate;
    }
    let jitter_target = cfg.jitter_target;
    let mut s = cfg.build();
    let end = (duration_s * 1e6) as u64;
    let mut t = 0u64;
    let mut frame_id = 0u64;
    let mut next_frame = 0u64;
    let mut max_delivered: Option<u64> = None;
    let mut last_shown: Option<u64> = None;
    let mut next_slot = jitter_target + 3 * FRAME_INTERVAL;
    let mut slots = 0u64;
    let mut stalls = 0u64;
    while t < end {
        if t >= next_frame {
            let rate = fixed_rate_bps.unwrap_or_else(|| s.estimate_bps() * 0.85);
            let bytes = ((rate / 30.0 / 8.0) as usize).clamp(400, 4_000_000);
            let key = frame_id.is_multiple_of(60);
            s.send_frame(
                t,
                StreamId::Color,
                frame_id,
                Bytes::from(vec![0u8; bytes]),
                key,
            );
            frame_id += 1;
            next_frame += FRAME_INTERVAL;
        }
        s.tick(t);
        for f in s.recv_frames() {
            max_delivered = Some(max_delivered.map_or(f.frame_id, |m| m.max(f.frame_id)));
        }
        if t >= next_slot {
            slots += 1;
            if max_delivered > last_shown {
                last_shown = max_delivered;
            } else {
                stalls += 1;
            }
            next_slot += FRAME_INTERVAL;
        }
        t += 1_000;
    }
    for _ in 0..1_500 {
        s.tick(t);
        for f in s.recv_frames() {
            max_delivered = Some(max_delivered.map_or(f.frame_id, |m| m.max(f.frame_id)));
        }
        t += 1_000;
    }
    let stats = s.stats();
    RunOutcome {
        delivered_mbps: stats.bits_delivered as f64 / duration_s / 1e6,
        stall_rate: if slots > 0 {
            stalls as f64 / slots as f64
        } else {
            1.0
        },
        frames_delivered: stats.frames_delivered,
        failovers: s.failovers(),
        dup_packets: s.link_reports().iter().map(|r| r.dup_packets).sum(),
        survived: max_delivered.is_some_and(|m| m as f64 >= (duration_s - 1.0) * 30.0),
    }
}

fn run_point(scenario: BondScenario, duration_s: f64, fixed_frac: Option<f64>) -> BondPoint {
    let name = scenario.name.clone();
    let sum = scenario.sum_capacity_mbps();
    let load_of = |sc: &BondScenario| fixed_frac.map(|f| f * sc.sum_capacity_mbps() * 1e6);
    let singles: Vec<(String, RunOutcome)> = scenario
        .links
        .iter()
        .map(|l| {
            let solo = BondScenario::new(&l.name).link(l.clone());
            let load = load_of(&solo);
            (l.name.clone(), drive(solo, duration_s, load))
        })
        .collect();
    let fixed = load_of(&scenario);
    let bonded = drive(scenario, duration_s, fixed);
    BondPoint {
        scenario: name,
        sum_capacity_mbps: sum,
        bonded,
        singles,
        fixed_load_mbps: fixed.map(|bps| bps / 1e6),
    }
}

/// Run the canned sweep. `quick` halves the per-scenario call length.
pub fn run_sweep(quick: bool) -> Vec<BondPoint> {
    let d = if quick { 8.0 } else { 16.0 };
    vec![
        // Lossless ceiling at a fixed 96%-of-capacity offered load (the
        // single-link baselines get 96% of their *own* capacity, so
        // every replay is driven at the same relative pressure).
        run_point(BondScenario::dual_clean(d), d, Some(0.96)),
        run_point(BondScenario::wifi_fade(d), d, None),
        run_point(BondScenario::wifi_to_lte(d), d, None),
        run_point(BondScenario::wifi_burst(d), d, None),
    ]
}

/// All gates green?
pub fn gate_ok(points: &[BondPoint]) -> bool {
    points.iter().all(BondPoint::gate_ok)
}

/// Human-readable table of the sweep.
pub fn text(points: &[BondPoint]) -> String {
    let mut s =
        String::from("Bonded transport sweep: bonded vs single links, per topology scenario\n\n");
    s.push_str(&format!(
        "{:>12} | {:>8} | {:>9} | {:>7} | {:>9} | {:>14} | {:>4} | {:>5} | {:>4}\n",
        "scenario",
        "sum Mbps",
        "bonded",
        "stalls",
        "best link",
        "best delivered",
        "fail",
        "dups",
        "gate"
    ));
    s.push_str(&format!(
        "{:->12}-+-{:->8}-+-{:->9}-+-{:->7}-+-{:->9}-+-{:->14}-+-{:->4}-+-{:->5}-+-{:->4}\n",
        "", "", "", "", "", "", "", "", ""
    ));
    for p in points {
        let (best_name, best) = p.best_single();
        s.push_str(&format!(
            "{:>12} | {:>8.1} | {:>9.2} | {:>6.1}% | {:>9} | {:>9.2} ({:>3.0}%) | {:>4} | {:>5} | {:>4}\n",
            p.scenario,
            p.sum_capacity_mbps,
            p.bonded.delivered_mbps,
            p.bonded.stall_rate * 100.0,
            best_name,
            best.delivered_mbps,
            best.stall_rate * 100.0,
            p.bonded.failovers,
            p.bonded.dup_packets,
            if p.gate_ok() { "ok" } else { "FAIL" },
        ));
    }
    s.push_str(
        "\nbonded/best delivered = receiver goodput, Mbps; (..%) = the best\n\
         single link's stall rate; dups = insurance copies (key packets and\n\
         mirrored retransmits); dual_clean is driven at a fixed 96% of\n\
         capacity, the rest adapt to the aggregate estimate.\n",
    );
    s
}

/// The snapshot written to `BENCH_bond.json`, schema `livo-bench-bond-v1`.
pub fn json(points: &[BondPoint], profile: &EvalProfile, quick: bool) -> String {
    fn outcome(w: &mut ObjectWriter, o: &RunOutcome) {
        w.field_f64("delivered_mbps", o.delivered_mbps);
        w.field_f64("stall_rate", o.stall_rate);
        w.field_u64("frames_delivered", o.frames_delivered);
        w.field_u64("failovers", o.failovers);
        w.field_u64("dup_packets", o.dup_packets);
        w.field_bool("survived", o.survived);
    }
    let mut out = String::new();
    let mut o = ObjectWriter::new(&mut out);
    o.field_str("schema", "livo-bench-bond-v1");
    {
        let cfg = o.field_raw("config");
        let mut c = ObjectWriter::new(cfg);
        c.field_f64("duration_s", if quick { 8.0 } else { 16.0 });
        c.field_u64("seed", profile.seed);
        c.finish();
    }
    crate::write_host(o.field_raw("host"));
    o.field_objects("points", points, |w, p| {
        w.field_str("scenario", &p.scenario);
        w.field_f64("sum_capacity_mbps", p.sum_capacity_mbps);
        if let Some(load) = p.fixed_load_mbps {
            w.field_f64("fixed_load_mbps", load);
        }
        {
            let b = w.field_raw("bonded");
            let mut bw = ObjectWriter::new(b);
            outcome(&mut bw, &p.bonded);
            bw.finish();
        }
        w.field_objects("links", &p.singles, |lw, (name, run)| {
            lw.field_str("name", name);
            outcome(lw, run);
        });
        w.field_bool("gate_ok", p.gate_ok());
    });
    o.finish();
    out
}
