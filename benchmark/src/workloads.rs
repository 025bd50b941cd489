//! The four workloads: what each configures, why, and how its inputs are
//! made from the seed. All share scene `band2`, four cameras, cull and
//! adaptation on, `ScaledY16` depth and a 100 ms jitter target.

use crate::adapters::{self as product, Pool, RgbdFrame};
use crate::call::{self, CallInputs};
use crate::rep::{Rep, RepOptions};
use crate::sfu::{self, SfuInputs};
use std::time::Instant;

const N_CAMERAS: usize = 4;
/// Frames of the pre-rendered capture clip (played forward then backward).
const CLIP_FRAMES: usize = 30;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Steady,
    Lossy,
    Bonded,
    Sfu,
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    kind: Kind,
    pub camera_scale: f32,
    /// Pool size of the extra traced-run rep behind `runtime.pool.speedup`;
    /// the end-to-end numbers of every workload run on one thread.
    pub pool_threads: usize,
    /// Length of one rep in virtual seconds.
    pub virtual_s: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    // Compute-bound: codec2d + tile + reconstruct/render-prep are nearly
    // all of a frame; the 12 Mbps clean link sits at about half the
    // QP-floor rate so rate control, splitter and GCC work in their normal
    // regime while transport does almost nothing.
    Workload {
        name: "call_steady",
        kind: Kind::Steady,
        camera_scale: 0.25,
        pool_threads: 2,
        virtual_s: 6,
    },
    // Transport-bound: 2 % i.i.d. loss on a fading ~5 Mbps link; NACK,
    // retransmit, PLI, the GCC loss term and P-chain recovery decide the
    // outcome; compute is light.
    Workload {
        name: "call_lossy",
        kind: Kind::Lossy,
        camera_scale: 0.125,
        pool_threads: 1,
        virtual_s: 30,
    },
    // The same transport surface through the bonded session: per-leg GCC,
    // scheduler, failover when WiFi dies halfway. Short reps: a run must
    // hold four or more for the fastest-interval estimate to settle.
    Workload {
        name: "call_bonded",
        kind: Kind::Bonded,
        camera_scale: 0.125,
        pool_threads: 1,
        virtual_s: 12,
    },
    // Fan-out-bound: two small cluster encodes per frame, then 96 ×
    // (packetise, pace, link, jitter, feedback).
    Workload {
        name: "sfu_fanout",
        kind: Kind::Sfu,
        camera_scale: 0.08,
        pool_threads: 2,
        virtual_s: 8,
    },
];

const SFU_SUBSCRIBERS: usize = 96;

pub enum Inputs {
    Call(CallInputs),
    Sfu(SfuInputs),
}

/// Set-up: render the capture clip and generate every seeded input. Returns
/// the inputs and the mean wall milliseconds one clip frame took to render.
pub fn prepare(w: &Workload, seed: u64, virtual_s: u64, pool: &Pool) -> (Inputs, f64) {
    let rig = product::rig(N_CAMERAS, w.camera_scale);
    let t0 = Instant::now();
    let clip: Vec<Vec<RgbdFrame>> = (0..CLIP_FRAMES as u32)
        .map(|i| product::render_views(pool, &rig, i))
        .collect();
    let render_ms = t0.elapsed().as_secs_f64() * 1e3 / CLIP_FRAMES as f64;
    let frames = virtual_s * product::FPS;
    let dur = virtual_s as f32 + 5.0;
    let inputs = match w.kind {
        Kind::Sfu => Inputs::Sfu(SfuInputs {
            rig,
            clip,
            subscribers: SFU_SUBSCRIBERS,
            yaw_offset: sfu::yaw_offset(seed),
            seed,
            frames,
        }),
        kind => Inputs::Call(CallInputs {
            rig,
            clip,
            user: product::user_trace(dur, seed),
            link: match kind {
                Kind::Steady => product::LinkPlan::Single {
                    trace: product::trace_constant(12.0, dur),
                    random_loss: 0.0,
                    seed,
                },
                Kind::Lossy => product::LinkPlan::Single {
                    trace: product::trace_mall(0.06, dur, seed),
                    random_loss: 0.02,
                    seed,
                },
                _ => product::bond_wifi_to_lte(virtual_s as f64, seed),
            },
            frames,
        }),
    };
    (inputs, render_ms)
}

pub fn run(inputs: &Inputs, pool: &Pool, threads: usize, opts: RepOptions) -> Rep {
    match inputs {
        Inputs::Call(c) => call::run(c, pool, threads, opts),
        Inputs::Sfu(s) => sfu::run(s, pool, threads, opts),
    }
}
