//! Quickstart: run a short LiVo conference replay and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart [-- --seconds 5]
//! ```
//!
//! This exercises the full pipeline end to end: a synthetic `pizza1` scene
//! is captured by a ring of RGB-D cameras, culled against the receiver's
//! Kalman-predicted frustum, tiled into colour + scaled-depth canvases,
//! encoded by the rate-adaptive codec under the bandwidth split, sent over
//! the emulated WebRTC session against the `trace-2` bandwidth trace,
//! decoded, reconstructed and quality-scored at the receiver.

use livo::prelude::*;

fn main() {
    let mut seconds = 5.0f32;
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--seconds") {
        seconds = args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--seconds takes a number");
    }

    // Laptop-friendly scale; raise these to approach the paper's setup.
    let cfg = ConferenceConfig::builder(VideoId::Pizza1)
        .camera_scale(0.12)
        .n_cameras(6)
        .duration_s(seconds)
        .quality_every(15)
        .build()
        .expect("quickstart config is valid");

    println!(
        "LiVo quickstart: video={} cameras={} scale={}x",
        cfg.video, cfg.n_cameras, cfg.camera_scale
    );
    let runner = ConferenceRunner::new(cfg);
    let layout = runner.layout();
    println!(
        "tiled canvas: {}x{} ({} slots of {}x{})",
        layout.canvas_w, layout.canvas_h, layout.n, layout.cam_w, layout.cam_h
    );

    let trace = BandwidthTrace::generate(TraceId::Trace2, seconds + 7.0, 7);
    println!(
        "network: {} (mean {:.1} Mbps)",
        TraceId::Trace2,
        trace.stats().mean
    );

    let s = runner.run(trace);

    println!("\n--- results ---");
    println!("display rate      : {:.1} fps", s.mean_fps);
    println!("stall rate        : {:.1} %", s.stall_rate * 100.0);
    println!(
        "PSSIM geometry    : {:.1} (no-stall {:.1})",
        s.pssim_geometry, s.pssim_geometry_no_stall
    );
    println!(
        "PSSIM colour      : {:.1} (no-stall {:.1})",
        s.pssim_color, s.pssim_color_no_stall
    );
    println!(
        "mean split        : {:.2} of bandwidth to depth",
        s.mean_split
    );
    println!("cull keep fraction: {:.2}", s.mean_keep_fraction);
    println!(
        "goodput           : {:.2} Mbps ({:.0}% of capacity)",
        s.throughput_mbps,
        s.utilization() * 100.0
    );
    println!(
        "transport latency : {:.0} ms (send -> playout, incl. 100 ms jitter buffer)",
        s.transport_latency_ms
    );
    let mean_ms = |step: &str| {
        let h = s.metrics.histogram(&format!("conference.{step}_ms"));
        h.map_or(0.0, |h| h.mean)
    };
    println!(
        "sender stages (ms): capture {:.1} | cull {:.1} | tile {:.1} | encode {:.1}",
        mean_ms("capture"),
        mean_ms("cull"),
        mean_ms("tile"),
        mean_ms("encode")
    );
}
