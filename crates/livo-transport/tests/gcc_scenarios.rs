//! Scenario tests for the congestion controller through the full session:
//! capacity steps, fades, and competing constraints — the situations the
//! paper's trace replays put GCC through.

use bytes::Bytes;
use livo_capture::BandwidthTrace;
use livo_transport::{Micros, RtcSession, SessionConfig, StreamId};

/// Drive a session that always offers `fill` × its current estimate, over
/// the given capacity trace, returning (time_s, estimate_mbps) samples.
fn drive(
    trace: BandwidthTrace,
    initial_mbps: f64,
    fill: f64,
    dur_s: f64,
) -> (RtcSession, Vec<(f64, f64)>) {
    let cfg = SessionConfig {
        initial_estimate_bps: initial_mbps * 1e6,
        ..Default::default()
    };
    let mut s = RtcSession::new(trace, cfg);
    let mut samples = Vec::new();
    let mut t: Micros = 0;
    let mut next_frame: Micros = 0;
    let mut id = 0u64;
    let end = (dur_s * 1e6) as Micros;
    while t < end {
        if t >= next_frame {
            let bits = s.estimate_bps() * fill / 30.0;
            s.send_frame(
                t,
                StreamId::Depth,
                id,
                Bytes::from(vec![0u8; (bits / 8.0) as usize]),
                id == 0,
            );
            id += 1;
            next_frame += 33_333;
        }
        s.tick(t);
        s.recv_frames();
        if t.is_multiple_of(250_000) {
            samples.push((t as f64 / 1e6, s.estimate_bps() / 1e6));
        }
        t += 1_000;
    }
    (s, samples)
}

/// Step the capacity down mid-run: the estimate must follow down within a
/// few seconds (the adaptation the paper's Fig. 13/14 stability relies on).
#[test]
fn estimate_follows_capacity_step_down() {
    let mut samples = vec![20.0f64; 80]; // 8 s at 20 Mbps
    samples.extend(vec![6.0; 120]); // then 12 s at 6 Mbps
    let trace = BandwidthTrace {
        id: None,
        samples_mbps: samples,
    };
    let (_s, est) = drive(trace, 15.0, 0.85, 20.0);
    let before: Vec<f64> = est
        .iter()
        .filter(|(t, _)| (*t > 4.0) && (*t < 8.0))
        .map(|(_, e)| *e)
        .collect();
    let after: Vec<f64> = est
        .iter()
        .filter(|(t, _)| *t > 15.0)
        .map(|(_, e)| *e)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&before) > 10.0,
        "pre-step estimate {:.1}",
        mean(&before)
    );
    assert!(
        mean(&after) < 9.0,
        "post-step estimate {:.1} should approach 6 Mbps",
        mean(&after)
    );
}

/// Step up: the estimate must grow to exploit new capacity (multiplicative
/// increase ≈ 8%/s).
#[test]
fn estimate_follows_capacity_step_up() {
    let mut samples = vec![5.0f64; 50];
    samples.extend(vec![40.0; 250]);
    let trace = BandwidthTrace {
        id: None,
        samples_mbps: samples,
    };
    let (_s, est) = drive(trace, 4.0, 0.9, 30.0);
    let early: Vec<f64> = est
        .iter()
        .filter(|(t, _)| *t < 5.0)
        .map(|(_, e)| *e)
        .collect();
    let late: Vec<f64> = est
        .iter()
        .filter(|(t, _)| *t > 25.0)
        .map(|(_, e)| *e)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&late) > mean(&early) * 2.0,
        "growth: {:.1} → {:.1} Mbps",
        mean(&early),
        mean(&late)
    );
}

/// A trace-2-style fade: throughput dips but the session keeps delivering
/// and recovers within the fade's own timescale.
#[test]
fn fade_recovery_keeps_frames_flowing() {
    let mut samples = vec![12.0f64; 60];
    samples.extend(vec![4.0; 30]); // 3 s fade
    samples.extend(vec![12.0; 110]);
    let trace = BandwidthTrace {
        id: None,
        samples_mbps: samples,
    };
    let (s, est) = drive(trace, 10.0, 0.85, 20.0);
    assert!(
        s.stats().frames_delivered > 400,
        "delivered {}",
        s.stats().frames_delivered
    );
    // Estimate after recovery exceeds the during-fade trough.
    let during: Vec<f64> = est
        .iter()
        .filter(|(t, _)| *t > 6.5 && *t < 9.0)
        .map(|(_, e)| *e)
        .collect();
    let after: Vec<f64> = est
        .iter()
        .filter(|(t, _)| *t > 16.0)
        .map(|(_, e)| *e)
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&after) > mean(&during),
        "{:.1} !> {:.1}",
        mean(&after),
        mean(&during)
    );
}

/// Sanity on the paper's Table 1 condition: saturating the generated
/// trace-2 yields majority utilisation.
#[test]
fn generated_trace2_utilization_is_high() {
    let trace = BandwidthTrace::generate(livo_capture::TraceId::Trace2, 30.0, 7).scaled(0.1);
    let mean_cap = trace.stats().mean;
    let (s, _) = drive(trace, mean_cap * 0.5, 0.85, 25.0);
    let util = s.stats().throughput_mbps(25.0) / mean_cap;
    assert!(util > 0.5, "utilization {util:.2}");
    assert!(util <= 1.0 + 1e-9);
}
