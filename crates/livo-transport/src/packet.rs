//! RTP-like packetisation, and the per-stream receive buffer that
//! reassembles frames and plays them out.

use crate::Micros;
use bytes::Bytes;
use std::collections::{BTreeMap, BTreeSet};

/// Which media stream a packet belongs to. LiVo sends two: tiled colour and
/// tiled depth (§3.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StreamId {
    Color,
    Depth,
    /// Control/other (calibration exchange at session setup, §A.1).
    Control,
}

impl StreamId {
    /// `"color"`, `"depth"` or `"control"`.
    pub fn name(self) -> &'static str {
        match self {
            StreamId::Color => "color",
            StreamId::Depth => "depth",
            StreamId::Control => "control",
        }
    }
}

/// One packet. Sequence numbers are per-stream and monotonically
/// increasing; `marker` flags the last packet of a frame (RTP's M bit).
#[derive(Debug, Clone)]
pub struct Packet {
    pub stream: StreamId,
    pub seq: u64,
    pub frame_id: u64,
    /// Departure timestamp — set at packetisation, updated by the pacer
    /// when the packet actually leaves (GCC needs true departure times).
    pub send_ts: Micros,
    /// Packetisation timestamp (for end-to-end latency accounting).
    pub origin_ts: Micros,
    /// Position of this packet within its frame.
    pub frag_index: u32,
    /// Total packets in this frame.
    pub frag_count: u32,
    /// Payload bytes (shared, zero-copy slices of the encoded frame).
    pub payload: Bytes,
    pub marker: bool,
    pub keyframe: bool,
    /// True when this is a NACK-triggered retransmission.
    pub retransmit: bool,
}

impl Packet {
    /// Wire size: payload plus a 28-byte RTP+UDP+IP-ish header.
    pub fn wire_bytes(&self) -> usize {
        self.payload.len() + 28
    }

    pub fn wire_bits(&self) -> u64 {
        self.wire_bytes() as u64 * 8
    }
}

/// Default MTU payload (1200 B is WebRTC's conventional safe payload size).
pub const DEFAULT_MTU: usize = 1200;

/// Splits encoded frames into packets with per-stream sequence numbers.
#[derive(Debug)]
pub struct Packetizer {
    stream: StreamId,
    next_seq: u64,
    mtu: usize,
}

impl Packetizer {
    pub fn new(stream: StreamId) -> Self {
        Packetizer {
            stream,
            next_seq: 0,
            mtu: DEFAULT_MTU,
        }
    }

    pub fn with_mtu(stream: StreamId, mtu: usize) -> Self {
        assert!(mtu > 0);
        Packetizer {
            stream,
            next_seq: 0,
            mtu,
        }
    }

    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Packetise one encoded frame.
    pub fn packetize(
        &mut self,
        frame_id: u64,
        data: Bytes,
        send_ts: Micros,
        keyframe: bool,
    ) -> Vec<Packet> {
        let n = data.len().div_ceil(self.mtu).max(1);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let start = i * self.mtu;
            let end = ((i + 1) * self.mtu).min(data.len());
            out.push(Packet {
                stream: self.stream,
                seq: self.next_seq,
                frame_id,
                send_ts,
                origin_ts: send_ts,
                frag_index: i as u32,
                frag_count: n as u32,
                payload: data.slice(start..end),
                marker: i == n - 1,
                keyframe,
                retransmit: false,
            });
            self.next_seq += 1;
        }
        out
    }
}

/// A fully reassembled frame.
#[derive(Debug, Clone)]
pub struct AssembledFrame {
    pub stream: StreamId,
    pub frame_id: u64,
    pub data: Bytes,
    pub keyframe: bool,
    /// Arrival time of the packet that completed the frame.
    pub completed_at: Micros,
    /// Send timestamp of the frame's packets.
    pub send_ts: Micros,
}

/// Seen-window bound: past this many out-of-order seqs, the older half of
/// the window is given up on.
const SEEN_WINDOW: usize = 20_000;

/// Per-stream receive buffer: reassembly, gap tracking and playout.
///
/// A frame completes once every one of its fragments has arrived, whether
/// or not a newer frame completed first, and plays at
/// `max(arrival, origin_ts + path_delay)`. Complete frames are released in
/// id order; each release moves the one playout frontier past it, and the
/// incomplete frames below the frontier are given up. Until then a
/// retransmit can still complete them: a lost packet has until its frame's
/// playout deadline.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    /// Incomplete frames: frame_id → packets sorted by fragment index.
    pending: BTreeMap<u64, Vec<Packet>>,
    /// Complete frames waiting to play: frame_id → (play_at, frame, its
    /// last seq).
    complete: BTreeMap<u64, (Micros, AssembledFrame, u64)>,
    /// Playout frontier: the id after the last released frame.
    frontier: u64,
    /// The seq after the last released frame's: every seq below it belongs
    /// to a frame playout has passed, so none is worth a NACK.
    nack_floor: u64,
    /// Highest seq seen (for gap detection).
    highest_seq: Option<u64>,
    /// Seqs seen above the contiguity frontier (for gap detection and
    /// NACK de-duplication); empty while the stream has no open gap.
    seen: BTreeSet<u64>,
    /// Every seq at or below this has been seen (or given up on) — gap
    /// scans start above it, so an in-order stream costs O(1) per
    /// `missing_seqs` call instead of walking the whole seen-window.
    contig: Option<u64>,
    /// Incomplete frames given up because playout passed them.
    pub(crate) late_drops: u64,
}

impl FrameBuffer {
    /// Feed one packet that arrived at `arrival`; returns the frame if this
    /// packet completed one. `path_delay` is how long after capture a
    /// frame that completes in time plays.
    pub fn push(
        &mut self,
        pkt: Packet,
        arrival: Micros,
        path_delay: Micros,
    ) -> Option<&AssembledFrame> {
        self.highest_seq = Some(self.highest_seq.map_or(pkt.seq, |h| h.max(pkt.seq)));
        self.mark_seen(pkt.seq);
        if self.passed(pkt.frame_id) {
            return None; // stale: the frame is complete or given up
        }
        let (frame_id, frag_count) = (pkt.frame_id, pkt.frag_count as usize);
        let entry = self.pending.entry(frame_id).or_default();
        // Each fragment goes in at its place, so the frame stays sorted.
        let Err(at) = entry.binary_search_by_key(&pkt.frag_index, |p| p.frag_index) else {
            return None; // duplicate
        };
        entry.insert(at, pkt);
        // Complete = every fragment of the frame has arrived.
        if entry.len() < frag_count {
            return None;
        }
        let packets = self.pending.remove(&frame_id).unwrap();
        let last_seq = packets.last().map_or(0, |p| p.seq);
        let frame = AssembledFrame {
            stream: packets[0].stream,
            frame_id,
            data: join(&packets),
            keyframe: packets[0].keyframe,
            completed_at: arrival,
            send_ts: packets[0].origin_ts,
        };
        let play_at = arrival.max(frame.send_ts + path_delay);
        Some(
            &self
                .complete
                .entry(frame_id)
                .or_insert((play_at, frame, last_seq))
                .1,
        )
    }

    /// Release the oldest complete frame if it is due at `now`. Its
    /// release moves the frontier past it and gives up the incomplete
    /// frames below.
    pub fn pop_ready(&mut self, now: Micros) -> Option<AssembledFrame> {
        let entry = self.complete.first_entry()?;
        if entry.get().0 > now {
            return None;
        }
        let (_, frame, last_seq) = entry.remove();
        self.frontier = frame.frame_id + 1;
        self.nack_floor = last_seq + 1;
        while let Some(stale) = self.pending.first_entry() {
            if *stale.key() >= self.frontier {
                break;
            }
            stale.remove();
            self.late_drops += 1;
        }
        Some(frame)
    }

    /// When [`Self::pop_ready`] releases its next frame: the oldest
    /// complete frame gates every newer one.
    pub fn next_ready(&self) -> Option<Micros> {
        self.complete.first_key_value().map(|(_, f)| f.0)
    }

    /// Number of complete frames waiting to play.
    pub fn depth(&self) -> usize {
        self.complete.len()
    }

    /// Record `seq` as seen and advance the contiguity frontier. An
    /// in-order packet with no gap open moves the frontier alone.
    fn mark_seen(&mut self, seq: u64) {
        let next = self.contig.map_or(0, |c| c + 1);
        if seq < next {
            return; // at or below the frontier: already counted
        }
        if seq == next {
            self.contig = Some(seq);
        } else {
            self.seen.insert(seq);
        }
        self.advance();
        if self.seen.len() > SEEN_WINDOW {
            // A gap that never fills pins the frontier: give up on every
            // gap below the cutoff, or the seqs trimmed from the window
            // would read as missing.
            let cutoff = *self.seen.iter().nth(SEEN_WINDOW / 2).unwrap();
            self.contig = Some(cutoff - 1);
            self.seen = self.seen.split_off(&cutoff);
            self.advance();
        }
    }

    /// Move the frontier over the seen seqs that continue it.
    fn advance(&mut self) {
        while self.seen.first().copied() == Some(self.contig.map_or(0, |c| c + 1)) {
            self.contig = self.seen.pop_first();
        }
    }

    /// Whether frame `frame_id` is complete or behind the playout
    /// frontier, so packets for it are dropped on arrival.
    pub fn passed(&self, frame_id: u64) -> bool {
        frame_id < self.frontier || self.complete.contains_key(&frame_id)
    }

    /// Sequence numbers below the highest seen that have never arrived and
    /// belong to no frame playout has passed — the NACK candidates.
    pub fn missing_seqs(&self, max: usize) -> Vec<u64> {
        let Some(high) = self.highest_seq else {
            return Vec::new();
        };
        let floor = match self.contig {
            Some(c) => c + 1,
            None => self.seen.iter().next().copied().unwrap_or(0),
        }
        .max(self.nack_floor);
        let mut out = Vec::new();
        if floor > high {
            return out;
        }
        // Walk the seen set in order and emit the holes between
        // neighbours (`high` itself is seen, so the walk ends there).
        let mut next = floor;
        for &s in self.seen.range(floor..=high) {
            while next < s {
                out.push(next);
                if out.len() >= max {
                    return out;
                }
                next += 1;
            }
            next = s + 1;
        }
        out
    }
}

/// A frame's payload from its sorted fragments: one slice of the sender's
/// buffer when the fragments are adjacent slices of it, a copy otherwise.
fn join(packets: &[Packet]) -> Bytes {
    let mut data = packets[0].payload.clone();
    for p in &packets[1..] {
        if data.try_unsplit(p.payload.clone()).is_err() {
            let mut buf = Vec::with_capacity(packets.iter().map(|p| p.payload.len()).sum());
            for p in packets {
                buf.extend_from_slice(&p.payload);
            }
            return Bytes::from(buf);
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(n: usize, tag: u8) -> Bytes {
        Bytes::from((0..n).map(|i| (i as u8) ^ tag).collect::<Vec<u8>>())
    }

    /// Feed `pkts` arriving at `at` with no path delay; the frame a packet
    /// completes, if any.
    fn feed(b: &mut FrameBuffer, pkts: &[Packet], at: Micros) -> Option<AssembledFrame> {
        let mut done = None;
        for p in pkts {
            done = done.or(b.push(p.clone(), at, 0).cloned());
        }
        done
    }

    /// Ids of the frames `b` holds incomplete.
    fn open_frames(b: &FrameBuffer) -> Vec<u64> {
        b.pending.keys().copied().collect()
    }

    /// Every frame `b` releases at `now`, in order.
    fn pop_all(b: &mut FrameBuffer, now: Micros) -> Vec<AssembledFrame> {
        std::iter::from_fn(|| b.pop_ready(now)).collect()
    }

    #[test]
    fn packetizer_splits_on_mtu() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 100);
        let pkts = p.packetize(0, frame_bytes(250, 1), 0, true);
        assert_eq!(pkts.len(), 3);
        assert_eq!(pkts[0].payload.len(), 100);
        assert_eq!(pkts[2].payload.len(), 50);
        assert!(pkts[2].marker && !pkts[0].marker);
        assert_eq!(pkts[2].seq, 2);
        // Sequence numbers continue across frames.
        let pkts2 = p.packetize(1, frame_bytes(50, 2), 10, false);
        assert_eq!(pkts2[0].seq, 3);
    }

    #[test]
    fn empty_frame_still_sends_one_marker_packet() {
        let mut p = Packetizer::new(StreamId::Depth);
        let pkts = p.packetize(0, Bytes::new(), 0, false);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].marker);
    }

    #[test]
    fn reassembly_in_order() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let data = frame_bytes(200, 3);
        let pkts = p.packetize(0, data.clone(), 5, true);
        let mut b = FrameBuffer::default();
        let f = feed(&mut b, &pkts, 99).expect("frame completes on last packet");
        assert_eq!(f.data, data);
        assert_eq!(f.frame_id, 0);
        assert!(f.keyframe);
        assert_eq!(f.completed_at, 99);
    }

    #[test]
    fn reassembly_out_of_order() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let data = frame_bytes(300, 4);
        let mut pkts = p.packetize(0, data.clone(), 5, false);
        pkts.reverse();
        let mut b = FrameBuffer::default();
        assert_eq!(feed(&mut b, &pkts, 1).unwrap().data, data);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let pkts = p.packetize(0, frame_bytes(100, 5), 0, false);
        let mut b = FrameBuffer::default();
        assert!(b.push(pkts[0].clone(), 0, 0).is_none());
        assert!(b.push(pkts[0].clone(), 0, 0).is_none());
        let f = b.push(pkts[1].clone(), 0, 0).unwrap();
        assert_eq!(f.data.len(), 100);
    }

    #[test]
    fn missing_seqs_reports_gaps() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let pkts = p.packetize(0, frame_bytes(64 * 5, 6), 0, false);
        let mut b = FrameBuffer::default();
        feed(&mut b, &[pkts[0].clone(), pkts[3].clone()], 0);
        assert_eq!(b.missing_seqs(10), vec![1, 2]);
        assert_eq!(open_frames(&b), vec![0]);
        // Retransmissions fill the gap.
        feed(&mut b, &pkts[1..3], 1);
        assert!(b.missing_seqs(10).is_empty());
        let f = b.push(pkts[4].clone(), 2, 0).unwrap();
        assert_eq!(f.data.len(), 320);
    }

    #[test]
    fn missing_seqs_scans_above_contiguity_frontier() {
        // A long in-order prefix must not be rescanned: gaps are reported
        // relative to the frontier, and retransmits close them.
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let mut b = FrameBuffer::default();
        let mut all = Vec::new();
        for f in 0..50u64 {
            all.extend(p.packetize(f, frame_bytes(64 * 4, f as u8), 0, false));
        }
        feed(&mut b, &all[..100], 0);
        assert!(b.missing_seqs(10).is_empty());
        // Skip seq 100, deliver 101..110: exactly one gap.
        feed(&mut b, &all[101..110], 1);
        assert_eq!(b.missing_seqs(10), vec![100]);
        feed(&mut b, &all[100..101], 2);
        assert!(b.missing_seqs(10).is_empty());
    }

    #[test]
    fn a_newer_complete_frame_leaves_an_older_one_open() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let f0 = p.packetize(0, frame_bytes(128, 7), 0, false);
        let f1 = p.packetize(1, frame_bytes(64, 8), 1, false);
        let mut b = FrameBuffer::default();
        assert!(b.push(f0[0].clone(), 0, 0).is_none()); // frame 0 one packet short
        assert_eq!(b.push(f1[0].clone(), 1, 0).unwrap().frame_id, 1);
        assert_eq!(open_frames(&b), vec![0]);
        // The retransmit of frame 0 still completes it.
        let done = b.push(f0[1].clone(), 2, 0).unwrap();
        assert_eq!(done.frame_id, 0);
        assert_eq!(done.data, frame_bytes(128, 7));
        assert!(open_frames(&b).is_empty());
        let played = pop_all(&mut b, 2);
        assert_eq!(
            played.iter().map(|f| f.frame_id).collect::<Vec<_>>(),
            [0, 1]
        );
    }

    #[test]
    fn the_playout_frontier_gives_up_incomplete_frames() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let f0 = p.packetize(0, frame_bytes(128, 7), 0, false);
        let f1 = p.packetize(1, frame_bytes(128, 8), 1, false);
        let f2 = p.packetize(2, frame_bytes(128, 9), 2, false);
        let mut b = FrameBuffer::default();
        feed(&mut b, &[f0[0].clone(), f2[0].clone()], 0);
        assert_eq!(open_frames(&b), vec![0, 2]);
        // Frame 1 plays: frame 0 is given up, frame 2 stays open.
        feed(&mut b, &f1, 1);
        assert_eq!(pop_all(&mut b, 1).len(), 1);
        assert_eq!(open_frames(&b), vec![2]);
        assert_eq!(b.late_drops, 1);
        assert!(b.passed(0) && b.passed(1) && !b.passed(2));
        assert!(b.push(f0[1].clone(), 1, 0).is_none(), "stale");
        assert!(b.push(f1[0].clone(), 1, 0).is_none(), "stale");
        assert_eq!(open_frames(&b), vec![2]);
        assert_eq!(b.push(f2[1].clone(), 2, 0).unwrap().frame_id, 2);
    }

    #[test]
    fn no_seq_behind_the_playout_frontier_is_a_nack_candidate() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let f0 = p.packetize(0, frame_bytes(192, 7), 0, false);
        let f1 = p.packetize(1, frame_bytes(128, 8), 1, false);
        let f2 = p.packetize(2, frame_bytes(128, 9), 2, false);
        let mut b = FrameBuffer::default();
        // Frame 0 lacks seqs 1 and 2, frame 2 its first packet (seq 5).
        feed(&mut b, &[f0[0].clone(), f1[0].clone(), f1[1].clone()], 0);
        feed(&mut b, &f2[1..], 0);
        assert_eq!(b.missing_seqs(10), vec![1, 2, 5]);
        // Frame 1 plays: frame 0's holes are behind it, frame 2's is not.
        assert_eq!(pop_all(&mut b, 1).len(), 1);
        assert_eq!(b.missing_seqs(10), vec![5]);
    }

    #[test]
    fn a_duplicate_of_an_emitted_frame_opens_nothing() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let f0 = p.packetize(0, frame_bytes(128, 7), 0, false);
        let f1 = p.packetize(1, frame_bytes(128, 8), 1, false);
        let mut b = FrameBuffer::default();
        assert!(feed(&mut b, &f1, 0).is_some());
        b.push(f0[0].clone(), 0, 0);
        // A mirrored copy of frame 1 arrives while frame 0 is still open.
        assert!(feed(&mut b, &f1, 1).is_none());
        assert!(b.passed(1));
        assert_eq!(open_frames(&b), vec![0]);
        // Once frame 1 plays, it is no longer held but still stale.
        assert_eq!(pop_all(&mut b, 1).len(), 1);
        assert!(b.push(f1[0].clone(), 2, 0).is_none());
        assert!(open_frames(&b).is_empty());
    }

    #[test]
    fn frames_wait_for_target() {
        // Captured at 0 on a path of 120 ms (propagation + jitter target),
        // complete at 30 ms: the frame plays at 120 ms, not before.
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let mut b = FrameBuffer::default();
        for pkt in p.packetize(0, frame_bytes(100, 1), 0, true) {
            b.push(pkt, 30_000, 120_000);
        }
        assert_eq!(b.next_ready(), Some(120_000));
        assert!(b.pop_ready(119_999).is_none());
        let f = b.pop_ready(120_000).unwrap();
        assert_eq!((f.frame_id, f.completed_at), (0, 30_000));
    }

    #[test]
    fn frames_release_in_order() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let f0 = p.packetize(0, frame_bytes(64, 1), 0, false);
        let f1 = p.packetize(1, frame_bytes(64, 2), 0, false);
        let mut b = FrameBuffer::default();
        b.push(f1[0].clone(), 10_000, 50_000);
        b.push(f0[0].clone(), 20_000, 50_000); // completed later but older id
        let ids: Vec<u64> = pop_all(&mut b, 100_000)
            .iter()
            .map(|f| f.frame_id)
            .collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn late_frames_are_dropped() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let f0 = p.packetize(0, frame_bytes(128, 1), 0, false);
        let f1 = p.packetize(1, frame_bytes(64, 2), 0, false);
        let mut b = FrameBuffer::default();
        b.push(f0[0].clone(), 5_000, 10_000);
        b.push(f1[0].clone(), 6_000, 10_000);
        assert_eq!(pop_all(&mut b, 20_000).len(), 1);
        assert_eq!(b.late_drops, 1, "frame 0 given up one packet short");
        // Frame 0's last packet arrives after frame 1 played out.
        assert!(b.push(f0[1].clone(), 25_000, 10_000).is_none());
        assert!(pop_all(&mut b, 100_000).is_empty());
        assert_eq!(b.late_drops, 1);
    }

    #[test]
    fn steady_stream_adds_constant_latency() {
        // Arrivals jitter by up to 30 ms; playout stays capture + 140 ms.
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let mut b = FrameBuffer::default();
        for i in 0..30u64 {
            let sent = i * 33_333;
            for pkt in p.packetize(i, frame_bytes(100, i as u8), sent, false) {
                b.push(pkt, sent + 20_000 + i * 7_919 % 30_000, 140_000);
            }
        }
        let mut playout_delays = Vec::new();
        for t in (0..2_000_000).step_by(1_000) {
            for f in pop_all(&mut b, t) {
                playout_delays.push(t - f.send_ts);
            }
        }
        assert_eq!(playout_delays.len(), 30);
        for d in playout_delays {
            assert!((d as i64 - 140_000).abs() <= 1_000, "playout delay {d}");
        }
    }

    #[test]
    fn a_frame_completing_after_its_deadline_plays_on_arrival() {
        // Frame 1 played at its deadline; frame 2's retransmit lands 60 ms
        // after its own, while frame 2 is still above the frontier.
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let f1 = p.packetize(1, frame_bytes(64, 1), 33_333, false);
        let f2 = p.packetize(2, frame_bytes(128, 2), 66_666, false);
        let mut b = FrameBuffer::default();
        b.push(f1[0].clone(), 60_000, 120_000);
        b.push(f2[0].clone(), 90_000, 120_000);
        assert_eq!(pop_all(&mut b, 153_333).len(), 1);
        assert!(pop_all(&mut b, 246_665).is_empty(), "frame 2 incomplete");
        let late = 246_666;
        b.push(f2[1].clone(), late, 120_000);
        assert_eq!(b.next_ready(), Some(late));
        let f = b.pop_ready(late).unwrap();
        assert_eq!((f.frame_id, f.completed_at), (2, late));
        assert_eq!(f.data, frame_bytes(128, 2));
    }

    #[test]
    fn seen_window_trim_gives_up_on_old_gaps() {
        // Only seq 5 is lost. Once the window trims, the gap is given up
        // on; no seq that arrived may be reported missing.
        let mut p = Packetizer::with_mtu(StreamId::Color, 1);
        let pkts = p.packetize(0, frame_bytes(21_000, 1), 0, false);
        let mut b = FrameBuffer::default();
        for pkt in pkts.into_iter().filter(|p| p.seq != 5) {
            b.push(pkt, 0, 0);
        }
        assert_eq!(b.missing_seqs(64), Vec::<u64>::new());
    }

    #[test]
    fn adjacent_fragments_share_the_sender_buffer() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 64);
        let data = frame_bytes(300, 4);
        let mut pkts = p.packetize(0, data.clone(), 5, false);
        pkts.swap(0, 3);
        let mut b = FrameBuffer::default();
        let f = feed(&mut b, &pkts, 1).unwrap();
        assert_eq!(f.data, data);
        assert_eq!(f.data.as_ptr(), data.as_ptr(), "no copy");

        // Fragments from separate buffers come out as one byte-equal copy.
        let mut foreign = p.packetize(1, frame_bytes(200, 5), 6, false);
        let whole: Vec<u8> = foreign.iter().flat_map(|p| p.payload.to_vec()).collect();
        for pkt in &mut foreign {
            pkt.payload = Bytes::from(pkt.payload.to_vec());
        }
        let f = feed(&mut b, &foreign, 2).unwrap();
        assert_eq!(&f.data[..], &whole[..]);
    }

    #[test]
    fn wire_size_includes_header() {
        let mut p = Packetizer::with_mtu(StreamId::Color, 100);
        let pkts = p.packetize(0, frame_bytes(100, 9), 0, false);
        assert_eq!(pkts[0].wire_bytes(), 128);
        assert_eq!(pkts[0].wire_bits(), 1024);
    }
}
