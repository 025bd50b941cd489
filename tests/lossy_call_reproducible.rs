//! Deterministic recovery: a call over a lossy link must replay the same
//! way every time.
//!
//! The transport is a seeded discrete-time simulation, so 2 % i.i.d.
//! packet loss on the one link of a call — with the NACKs, retransmits and
//! keyframe requests it sets off — has to produce the *same* delivered
//! frame sequence and stall count on every run, and on every worker-pool
//! size, since encode/decode parallelism is pinned bit-exact by the
//! runtime's tests. These tests drive the full conference and pin exactly
//! that.

use livo::prelude::*;
use livo::runtime::WorkerPool;
use std::sync::Arc;

const DURATION_S: f32 = 4.0;

fn lossy_cfg() -> ConferenceConfig {
    let mut session = SessionConfig::default();
    session.link.random_loss = 0.02;
    ConferenceConfig::builder(VideoId::Band2)
        .camera_scale(0.05)
        .n_cameras(2)
        .duration_s(DURATION_S)
        .quality_every(u32::MAX) // skip PSSIM: transport is under test
        .session(session)
        .build()
        .expect("valid lossy config")
}

/// Run the lossy call on a pool of `threads` and return (shown frame
/// sequence, stall count, retransmitted packets).
fn run_on_pool(threads: usize) -> (Vec<u32>, usize, u64) {
    let mut runner = ConferenceRunner::new(lossy_cfg());
    runner.set_worker_pool(Arc::new(WorkerPool::new(threads)));
    let summary = runner.run(BandwidthTrace::constant(10.0, DURATION_S + 2.0));
    let shown: Vec<u32> = summary.records.iter().filter_map(|r| r.shown_seq).collect();
    let stalls = summary
        .records
        .iter()
        .filter(|r| r.shown_seq.is_none())
        .count();
    let retransmits = summary.metrics.counter("transport.retransmits");
    (shown, stalls, retransmits.unwrap_or(0))
}

#[test]
fn lossy_call_is_reproducible_across_runs() {
    let a = run_on_pool(2);
    let b = run_on_pool(2);
    assert!(!a.0.is_empty(), "nothing displayed at all");
    assert!(a.2 > 0, "no packet was retransmitted: the loss never bit");
    assert_eq!(a.0, b.0, "delivered frame sequence differs between runs");
    assert_eq!(a.1, b.1, "stall count differs between runs");
    assert_eq!(a.2, b.2, "retransmit count differs between runs");
}

#[test]
fn lossy_call_is_reproducible_across_pool_sizes() {
    let one = run_on_pool(1);
    let two = run_on_pool(2);
    let four = run_on_pool(4);
    assert_eq!(
        one.0, two.0,
        "delivered frame sequence differs between 1 and 2 threads"
    );
    assert_eq!(
        one.0, four.0,
        "delivered frame sequence differs between 1 and 4 threads"
    );
    assert_eq!(one.1, two.1, "stall count differs between 1 and 2 threads");
    assert_eq!(one.1, four.1, "stall count differs between 1 and 4 threads");
}
