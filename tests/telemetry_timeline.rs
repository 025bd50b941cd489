//! Telemetry integration: the event trace stitches every layer of the
//! pipeline into one path per frame, each step recorded once by the code
//! that runs it, and the metrics registry carries the same story the
//! `RunSummary` aggregates tell — asserted end to end across the
//! conference, its two stages and the transport.

use livo::prelude::*;
use livo::telemetry::{kind, TraceEvent};

fn quick(video: VideoId) -> ConferenceConfigBuilder {
    ConferenceConfig::builder(video)
        .camera_scale(0.08)
        .n_cameras(4)
        .duration_s(3.0)
        .quality_every(30)
}

const LANES: [(&str, &str); 2] = [
    ("transport.color", "codec.color"),
    ("transport.depth", "codec.depth"),
];

#[test]
fn every_displayed_frame_has_a_complete_monotonic_timeline() {
    let trace = BandwidthTrace::generate(TraceId::Trace1, 10.0, 3);
    let s = ConferenceRunner::new(quick(VideoId::Band2).build().unwrap()).run(trace);

    let shown: std::collections::HashSet<u64> = s
        .records
        .iter()
        .filter_map(|r| r.shown_seq)
        .map(|q| q as u64)
        .collect();
    assert!(shown.len() > 30, "only {} frames displayed", shown.len());

    // Sender-side steps exist for every frame the pipeline produced; both
    // streams' transport and decode events exist for every frame that
    // reached the screen; and timestamps never run backwards along a path.
    let q = TraceQuery::new(s.trace.clone());
    let mut checked = 0;
    for seq in q.frames() {
        let p = q.frame(seq).unwrap();
        let sender = [kind::CAPTURE, kind::CULL, kind::TILE, kind::ENCODE].map(|k| p.ts_of(k, 0));
        assert!(
            sender.iter().all(Option::is_some) && sender.is_sorted(),
            "frame {seq} sender steps: {sender:?}"
        );
        if !shown.contains(&seq) {
            continue;
        }
        for (transport, codec) in LANES {
            let lane = [
                sender[3],
                p.ts_on(kind::PACKETIZE, 0, transport),
                p.ts_on(kind::RECV, 1, transport),
                p.ts_on(kind::PLAYOUT, 1, transport),
                p.ts_on(kind::DECODE, 1, codec),
                p.ts_of(kind::DISPLAY, 1),
            ];
            assert!(
                lane.iter().all(Option::is_some) && lane.is_sorted(),
                "displayed frame {seq} on {transport}: {lane:?}"
            );
        }
        checked += 1;
    }
    // Ring wraparound may drop the oldest events, but most displayed frames
    // must have survived with a full sender→receiver path.
    assert!(
        checked as f64 > shown.len() as f64 * 0.8,
        "{checked}/{}",
        shown.len()
    );
}

#[test]
fn a_repaired_frame_carries_its_loss_and_its_recovery_on_one_path() {
    // 2 % random loss: some frame loses a packet, asks for it, gets it
    // again and still plays out. All four events sit on that frame's one
    // path, in causal order, on the lane the packet belonged to.
    let mut session = SessionConfig::default();
    session.link.random_loss = 0.02;
    let cfg = quick(VideoId::Band2).session(session).build().unwrap();
    let s = ConferenceRunner::new(cfg).run(BandwidthTrace::constant(40.0, 8.0));
    assert!(s.metrics.counter("transport.retransmits").unwrap_or(0) > 0);

    let q = TraceQuery::new(s.trace.clone());
    let repaired = q.frames().into_iter().any(|seq| {
        let p = q.frame(seq).unwrap();
        LANES.iter().any(|(lane, _)| {
            let path = [
                p.ts_on(kind::NACK, 1, lane),
                p.ts_on(kind::RETX, 0, lane),
                p.ts_on(kind::RECV, 1, lane),
                p.ts_on(kind::PLAYOUT, 1, lane),
            ];
            path.iter().all(Option::is_some) && path.is_sorted()
        })
    });
    assert!(repaired, "no frame path holds nack → retx → recv → playout");
}

#[test]
fn every_step_is_recorded_once_by_the_code_that_runs_it() {
    // The stages trace encode (per stream) and every decode attempt (per
    // lane) on the codec tracks; the conference traces only the steps no
    // stage runs. One record per step and frame, never a second copy.
    let s = ConferenceRunner::new(quick(VideoId::Band2).build().unwrap())
        .run(BandwidthTrace::constant(40.0, 8.0));
    let q = TraceQuery::new(s.trace.clone());
    let mut attempts = 0;
    for seq in q.frames() {
        let p = q.frame(seq).unwrap();
        let count = |party: u16, component: &str, kinds: &[&str]| {
            let on = |e: &&TraceEvent| e.party == party && e.component == component;
            p.events
                .iter()
                .filter(on)
                .filter(|e| kinds.contains(&e.kind))
                .count()
        };
        for (_, codec) in LANES {
            assert_eq!(
                count(0, codec, &[kind::ENCODE]),
                1,
                "frame {seq} on {codec}"
            );
            let decoded = count(1, codec, &[kind::DECODE, kind::DECODE_ERROR]);
            assert!(decoded <= 1, "frame {seq} on {codec}: {decoded} decodes");
            attempts += decoded;
        }
        for (party, component, k) in [
            (0, "pipeline", kind::CAPTURE),
            (0, "pipeline", kind::CULL),
            (0, "pipeline", kind::TILE),
            (1, "display", kind::DISPLAY),
        ] {
            assert!(count(party, component, &[k]) <= 1, "frame {seq}: {k}");
        }
        assert!(
            !p.events
                .iter()
                .any(|e| e.component == "pipeline"
                    && (e.kind == kind::ENCODE || e.kind == kind::DECODE)),
            "frame {seq}: encode or decode traced twice"
        );
    }
    // Every decode the receiver attempted left exactly one record.
    let timed = s.metrics.histogram("conference.decode_ms").map(|h| h.count);
    assert!(attempts > 0);
    assert_eq!(Some(attempts as u64), timed);
}

#[test]
fn metrics_agree_with_summary_aggregates() {
    let trace = BandwidthTrace::generate(TraceId::Trace2, 10.0, 7);
    let s = ConferenceRunner::new(quick(VideoId::Toddler4).build().unwrap()).run(trace);
    let m = &s.metrics;

    // Codec counters: every sender frame was encoded on both streams.
    let frames = m
        .histogram("conference.encode_ms")
        .map(|h| h.count)
        .unwrap_or(0);
    assert!(frames > 60);
    let color_frames = m.counter("codec.color.frames_intra").unwrap_or(0)
        + m.counter("codec.color.frames_inter").unwrap_or(0);
    assert_eq!(color_frames, frames, "codec saw every pipeline frame");
    assert!(m.counter("codec.depth.bits_total").unwrap_or(0) > 0);

    // Transport delivered what the display showed, and its latency
    // histogram mean matches the summary's scalar within float noise.
    let shown = s.records.iter().filter(|r| r.shown_seq.is_some()).count() as u64;
    assert_eq!(m.counter("display.frames_shown"), Some(shown));
    let lat = m
        .histogram("transport.latency_ms")
        .expect("latency histogram");
    assert!(
        (lat.mean - s.transport_latency_ms).abs() < 1.0,
        "histogram mean {} vs summary {}",
        lat.mean,
        s.transport_latency_ms
    );
    assert!(lat.p50 <= lat.p95 && lat.p95 <= lat.p99 && lat.p99 <= lat.max);

    // GCC gauges landed; the splitter published its state (a quiet scene
    // may legitimately take zero line-search steps, so only presence and
    // the paper's [0.5, 0.9] clamp are asserted).
    assert!(m.gauge("transport.gcc.estimate_bps").unwrap_or(0.0) > 1e5);
    assert!(m.counter("splitter.steps").is_some());
    let split = m.gauge("splitter.split").expect("split gauge");
    assert!((0.5..=0.9).contains(&split), "split {split}");

    // The snapshot serialises to stable JSON.
    let j1 = m.to_json();
    let j2 = s.metrics.to_json();
    assert_eq!(j1, j2);
    assert!(j1.contains("\"transport.latency_ms\""));
}

#[test]
fn telemetry_overhead_stays_small() {
    // Instrumentation must not move the needle on the virtual-time
    // results: two identical runs (telemetry is always on) stay
    // deterministic, and the wall-clock stage timings stay in the same
    // range Table 6 reported before the histogram migration.
    let run = || {
        let trace = BandwidthTrace::generate(TraceId::Trace2, 8.0, 13);
        ConferenceRunner::new(quick(VideoId::Dance5).build().unwrap()).run(trace)
    };
    let a = run();
    let b = run();
    assert_eq!(a.bits_sent, b.bits_sent);
    assert_eq!(a.stall_rate, b.stall_rate);
    // Table 6 reads its means from the step histograms, the two scored
    // receiver steps included.
    for name in [
        "conference.capture_ms",
        "conference.reconstruct_ms",
        "conference.render_prep_ms",
    ] {
        let h = a.metrics.histogram(name).unwrap();
        assert!(h.count > 0 && h.mean > 0.0, "{name}");
    }

    // Per-sample recording cost: one 30 fps frame crosses ~10 instrumented
    // stages over a handful of streams, so keeping instrumented throughput
    // within 5% of uninstrumented (< 1.65 ms of a 33 ms frame budget)
    // needs each sample to cost microseconds at most. Assert a generous
    // 2 µs/sample averaged over a million samples (measured cost is tens
    // of nanoseconds — an atomic add on a held handle).
    let reg = MetricsRegistry::new();
    let hist = reg.histogram("overhead.probe_ms");
    let ctr = reg.counter("overhead.probe_count");
    let n = 1_000_000u32;
    let t0 = std::time::Instant::now();
    for i in 0..n {
        hist.record((i % 97) as f64 * 0.01);
        ctr.inc();
    }
    let per_sample_us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
    assert!(
        per_sample_us < 2.0,
        "telemetry sample cost {per_sample_us:.3} µs"
    );
}
