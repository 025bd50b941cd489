//! Loss recovery: NACK retransmission requests.
//!
//! The paper enables WebRTC's negative acknowledgements, Picture Loss
//! Indication and Full Intraframe Request (§A.1). The receiver-side
//! [`NackGenerator`] requests missing sequence numbers on any tick the
//! session finds them eligible, with spaced and bounded retries; the
//! sender-side [`RetransmitBuffer`] answers them from a recent-packet
//! window. A frame still incomplete at its playout deadline is given up;
//! the decode lane that then misses its reference asks for a keyframe
//! through `RtcSession::request_keyframe`.

use crate::packet::Packet;
use crate::Micros;
use std::collections::{BTreeMap, VecDeque};

/// Minimum spacing between requests for the same seq, tuned for a ~40 ms
/// RTT path.
const RETRY_INTERVAL: Micros = 30_000;
/// Requests per missing seq before the receiver stops asking.
const MAX_RETRIES: u32 = 3;

/// Receiver-side NACK scheduling.
#[derive(Debug)]
pub struct NackGenerator {
    /// seq → (times requested, last request time).
    requested: BTreeMap<u64, (u32, Micros)>,
    /// Earliest retry among the seqs of the last [`Self::nacks`] call.
    next_due: Micros,
}

impl NackGenerator {
    pub(crate) fn new() -> Self {
        NackGenerator {
            requested: BTreeMap::new(),
            next_due: Micros::MAX,
        }
    }

    /// Given current gaps, decide which seqs to NACK now.
    pub fn nacks(&mut self, missing: &[u64], now: Micros) -> Vec<u64> {
        let mut out = Vec::new();
        self.next_due = Micros::MAX;
        for &seq in missing {
            let e = self.requested.entry(seq).or_insert((0, 0));
            let due = e.0 == 0 || now.saturating_sub(e.1) >= RETRY_INTERVAL;
            if due && e.0 < MAX_RETRIES {
                e.0 += 1;
                e.1 = now;
                out.push(seq);
            }
            if e.0 < MAX_RETRIES {
                self.next_due = self.next_due.min(e.1 + RETRY_INTERVAL);
            }
        }
        // Garbage-collect entries for seqs no longer missing.
        if self.requested.len() > 10_000 {
            let missing_set: std::collections::BTreeSet<u64> = missing.iter().copied().collect();
            self.requested.retain(|s, _| missing_set.contains(s));
        }
        out
    }

    /// The earliest instant one of the seqs last passed to [`Self::nacks`]
    /// can be requested again: its last request + the retry interval while
    /// retries remain; `Micros::MAX` once all are spent.
    pub fn next_due(&self) -> Micros {
        self.next_due
    }
}

/// Sender-side retransmission window.
#[derive(Debug, Default)]
pub struct RetransmitBuffer {
    packets: VecDeque<Packet>,
    max_packets: usize,
}

impl RetransmitBuffer {
    pub fn new(max_packets: usize) -> Self {
        RetransmitBuffer {
            packets: VecDeque::new(),
            max_packets,
        }
    }

    /// Remember a sent packet. Packets come in sequence order, so the
    /// window stays sorted by seq.
    pub fn store(&mut self, pkt: &Packet) {
        self.packets.push_back(pkt.clone());
        while self.packets.len() > self.max_packets {
            self.packets.pop_front();
        }
    }

    /// Look up packets for a NACK; marks them as retransmissions.
    pub fn lookup(&self, seqs: &[u64]) -> Vec<Packet> {
        seqs.iter()
            .filter_map(|&s| {
                let at = self.packets.binary_search_by_key(&s, |p| p.seq).ok()?;
                let mut p = self.packets[at].clone();
                p.retransmit = true;
                Some(p)
            })
            .collect()
    }

    pub fn len(&self) -> usize {
        self.packets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packetizer, StreamId};
    use bytes::Bytes;

    #[test]
    fn nack_fires_once_then_respects_retry_interval() {
        let mut g = NackGenerator::new();
        assert_eq!(g.nacks(&[5, 6], 0), vec![5, 6]);
        assert!(g.nacks(&[5, 6], 10_000).is_empty(), "too soon to retry");
        assert_eq!(g.nacks(&[5, 6], 31_000), vec![5, 6]);
        assert_eq!(g.next_due(), 61_000);
    }

    #[test]
    fn nack_gives_up_after_max_retries() {
        let mut g = NackGenerator::new();
        assert_eq!(g.nacks(&[9], 0).len(), 1);
        assert_eq!(g.next_due(), RETRY_INTERVAL);
        let mut now = 0;
        for _ in 1..MAX_RETRIES {
            now += RETRY_INTERVAL;
            assert_eq!(g.nacks(&[9], now).len(), 1);
        }
        assert!(g.nacks(&[9], now + RETRY_INTERVAL).is_empty());
        assert!(g.nacks(&[9], 400_000).is_empty());
        assert_eq!(g.next_due(), Micros::MAX, "retries spent");
    }

    #[test]
    fn retransmit_buffer_finds_and_marks() {
        let mut pz = Packetizer::with_mtu(StreamId::Depth, 50);
        let pkts = pz.packetize(0, Bytes::from(vec![0u8; 200]), 0, false);
        let mut rb = RetransmitBuffer::new(16);
        for p in &pkts {
            rb.store(p);
        }
        let found = rb.lookup(&[1, 3, 99]);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|p| p.retransmit));
        assert_eq!(found[0].seq, 1);
    }

    #[test]
    fn retransmit_buffer_evicts_oldest() {
        let mut pz = Packetizer::with_mtu(StreamId::Depth, 10);
        let pkts = pz.packetize(0, Bytes::from(vec![0u8; 100]), 0, false);
        let mut rb = RetransmitBuffer::new(4);
        for p in &pkts {
            rb.store(p);
        }
        assert_eq!(rb.len(), 4);
        assert!(rb.lookup(&[0]).is_empty(), "oldest evicted");
        assert_eq!(rb.lookup(&[9]).len(), 1);
        // Seqs 6..=9 are held: one just below the window, its two ends,
        // one just above, and one far above.
        let seqs: Vec<u64> = rb
            .lookup(&[5, 6, 9, 10, 1_000])
            .iter()
            .map(|p| p.seq)
            .collect();
        assert_eq!(seqs, vec![6, 9]);
    }
}
