//! Playout jitter buffer.
//!
//! WebRTC absorbs network jitter by delaying playout; the paper configures
//! a 100 ms target (§4.4, "much of [the 137 ms] is attributable to the
//! jitter buffer"). Frames become ready `target` after their arrival, are
//! released in frame order, and frames that arrive after a newer frame was
//! already released are dropped (late-frame loss, which the pipeline counts
//! as a stall).

use crate::packet::AssembledFrame;
use crate::Micros;
use std::collections::BTreeMap;

/// Fixed-target jitter buffer, one per media stream.
#[derive(Debug)]
pub struct JitterBuffer {
    target: Micros,
    frames: BTreeMap<u64, AssembledFrame>,
    next_playout: u64,
    /// Frames dropped because they arrived behind playout.
    pub late_drops: u64,
}

impl JitterBuffer {
    /// `target` is the playout delay (the paper's 100 ms).
    pub fn new(target: Micros) -> Self {
        JitterBuffer {
            target,
            frames: BTreeMap::new(),
            next_playout: 0,
            late_drops: 0,
        }
    }

    pub fn target(&self) -> Micros {
        self.target
    }

    /// Insert a reassembled frame.
    pub fn push(&mut self, frame: AssembledFrame) {
        if frame.frame_id < self.next_playout {
            self.late_drops += 1;
            return;
        }
        self.frames.insert(frame.frame_id, frame);
    }

    /// Release every frame that is ready at `now`, in frame order. A ready
    /// frame with a smaller id than a previously released frame was already
    /// dropped at push time, so order is strictly increasing.
    pub fn pop_ready(&mut self, now: Micros) -> Vec<AssembledFrame> {
        let mut out = Vec::new();
        while let Some((&id, f)) = self.frames.iter().next() {
            if f.completed_at + self.target <= now {
                let f = self.frames.remove(&id).unwrap();
                self.next_playout = id + 1;
                out.push(f);
            } else {
                break;
            }
        }
        out
    }

    /// When [`Self::pop_ready`] releases its next frame: the oldest
    /// buffered frame gates every newer one.
    pub fn next_ready(&self) -> Option<Micros> {
        self.frames
            .first_key_value()
            .map(|(_, f)| f.completed_at + self.target)
    }

    /// The playout frontier: the id after the last released frame. Frames
    /// below it are late, so the session gives up reassembling them.
    pub fn next_playout(&self) -> u64 {
        self.next_playout
    }

    /// Number of buffered (not yet ready) frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::StreamId;
    use bytes::Bytes;

    fn frame(id: u64, completed_at: Micros) -> AssembledFrame {
        AssembledFrame {
            stream: StreamId::Color,
            frame_id: id,
            data: Bytes::from(vec![id as u8]),
            keyframe: id == 0,
            completed_at,
            send_ts: completed_at.saturating_sub(10_000),
        }
    }

    #[test]
    fn frames_wait_for_target() {
        let mut jb = JitterBuffer::new(100_000);
        jb.push(frame(0, 50_000));
        assert!(jb.pop_ready(100_000).is_empty());
        let out = jb.pop_ready(150_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].frame_id, 0);
    }

    #[test]
    fn frames_release_in_order() {
        let mut jb = JitterBuffer::new(50_000);
        jb.push(frame(1, 10_000));
        jb.push(frame(0, 20_000)); // completed later but older id
        let out = jb.pop_ready(100_000);
        assert_eq!(
            out.iter().map(|f| f.frame_id).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn late_frames_are_dropped() {
        let mut jb = JitterBuffer::new(10_000);
        jb.push(frame(1, 0));
        assert_eq!(jb.pop_ready(20_000).len(), 1);
        assert_eq!(jb.next_playout(), 2);
        // Frame 0 arrives after frame 1 played out.
        jb.push(frame(0, 25_000));
        assert!(jb.pop_ready(100_000).is_empty());
        assert_eq!(jb.late_drops, 1);
    }

    #[test]
    fn steady_stream_adds_constant_latency() {
        let mut jb = JitterBuffer::new(100_000);
        let mut playout_delays = Vec::new();
        for i in 0..30u64 {
            let done = i * 33_333 + 40_000;
            jb.push(frame(i, done));
        }
        let mut t = 0;
        while t < 2_000_000 {
            for f in jb.pop_ready(t) {
                playout_delays.push(t - f.completed_at);
            }
            t += 1_000;
        }
        assert_eq!(playout_delays.len(), 30);
        for d in playout_delays {
            assert!((d as i64 - 100_000).abs() <= 1_000, "playout delay {d}");
        }
    }
}
