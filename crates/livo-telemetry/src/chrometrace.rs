//! Chrome trace-event JSON export of an [`EventTrace`] snapshot.
//!
//! Writes the `{"traceEvents":[...]}` JSON object format consumed by
//! Perfetto (ui.perfetto.dev) and `chrome://tracing`: one *process* per
//! party (sender, SFU, each subscriber), one *thread track* per emitting
//! component within that party, every trace event as a 1 µs complete
//! slice, and flow arrows (`ph: s/t/f`, id = frame sequence) stitching a
//! frame's slices across tracks — so one frame's capture→display path
//! reads as a single arrowed chain through the fan-out.
//!
//! Timestamps are exported verbatim: the simulation's virtual microseconds
//! become trace microseconds, which is exactly what Perfetto expects.

use crate::json;
use crate::trace::{TraceEvent, NO_FRAME};
use std::collections::BTreeMap;

/// Stable thread-track ids: per party, components sorted by name, 1-based.
fn tid_map(events: &[TraceEvent]) -> BTreeMap<(u16, &'static str), u64> {
    let mut per_party: BTreeMap<u16, Vec<&'static str>> = BTreeMap::new();
    for e in events {
        let comps = per_party.entry(e.party).or_default();
        if !comps.contains(&e.component) {
            comps.push(e.component);
        }
    }
    let mut map = BTreeMap::new();
    for (party, mut comps) in per_party {
        comps.sort_unstable();
        for (i, c) in comps.into_iter().enumerate() {
            map.insert((party, c), i as u64 + 1);
        }
    }
    map
}

fn push_event_common(buf: &mut String, name: &str, ph: &str, ts: u64, pid: u16, tid: u64) {
    json::write_str(buf, "name");
    buf.push(':');
    json::write_str(buf, name);
    buf.push_str(",\"ph\":");
    json::write_str(buf, ph);
    buf.push_str(",\"ts\":");
    json::write_u64(buf, ts);
    buf.push_str(",\"pid\":");
    json::write_u64(buf, pid as u64);
    buf.push_str(",\"tid\":");
    json::write_u64(buf, tid);
}

/// Write the full Chrome trace JSON for `events` (any order; re-sorted).
/// `party_name` maps a party id to its display name ("sender",
/// "sub:director-home", …).
pub(crate) fn write_chrome_trace(
    out: &mut String,
    events: &[TraceEvent],
    party_name: &dyn Fn(u16) -> String,
) {
    let mut events: Vec<TraceEvent> = events.to_vec();
    events.sort_by_key(|e| (e.ts_us, e.ord));
    let tids = tid_map(&events);

    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };

    // Metadata: process (party) and thread (component) names.
    let mut seen_pid = Vec::new();
    for (&(party, comp), &tid) in &tids {
        if !seen_pid.contains(&party) {
            seen_pid.push(party);
            sep(out);
            out.push('{');
            push_event_common(out, "process_name", "M", 0, party, 0);
            out.push_str(",\"args\":{\"name\":");
            json::write_str(out, &party_name(party));
            out.push_str("}}");
            sep(out);
            out.push('{');
            push_event_common(out, "process_sort_index", "M", 0, party, 0);
            out.push_str(",\"args\":{\"sort_index\":");
            json::write_u64(out, party as u64);
            out.push_str("}}");
        }
        sep(out);
        out.push('{');
        push_event_common(out, "thread_name", "M", 0, party, tid);
        out.push_str(",\"args\":{\"name\":");
        json::write_str(out, comp);
        out.push_str("}}");
    }

    // Every event as a 1 µs complete slice carrying its payload.
    for e in &events {
        let tid = tids[&(e.party, e.component)];
        sep(out);
        out.push('{');
        push_event_common(out, e.kind, "X", e.ts_us, e.party, tid);
        out.push_str(",\"dur\":1,\"cat\":\"frame\",\"args\":{");
        if e.frame_seq != NO_FRAME {
            out.push_str("\"frame_seq\":");
            json::write_u64(out, e.frame_seq);
            out.push(',');
        }
        out.push_str("\"arg\":");
        out.push_str(&e.arg.to_string());
        out.push_str(",\"ord\":");
        json::write_u64(out, e.ord);
        out.push_str("}}");
    }

    // Flow arrows: one chain per frame, binding to the enclosing slices.
    let mut per_frame: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in &events {
        if e.frame_seq != NO_FRAME {
            per_frame.entry(e.frame_seq).or_default().push(e);
        }
    }
    for (seq, evs) in &per_frame {
        if evs.len() < 2 {
            continue;
        }
        for (i, e) in evs.iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i + 1 == evs.len() {
                "f"
            } else {
                "t"
            };
            let tid = tids[&(e.party, e.component)];
            sep(out);
            out.push('{');
            push_event_common(out, "frame", ph, e.ts_us, e.party, tid);
            out.push_str(",\"cat\":\"frame_flow\",\"id\":");
            json::write_u64(out, *seq);
            if ph == "f" {
                out.push_str(",\"bp\":\"e\"");
            }
            out.push('}');
        }
    }

    out.push_str("]}");
}

/// `write_chrome_trace` into a fresh `String`.
pub fn chrome_trace_json(events: &[TraceEvent], party_name: &dyn Fn(u16) -> String) -> String {
    let mut s = String::new();
    write_chrome_trace(&mut s, events, party_name);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{kind, EventTrace, TraceQuery};

    fn sample_trace() -> EventTrace {
        let t = EventTrace::new(256);
        t.record(100, 3, 0, "pipeline", kind::CAPTURE, 0);
        t.record(150, 3, 0, "codec.color", kind::ENCODE, 40_000);
        t.record(200, 3, 0, "transport.color", kind::SEND, 9);
        t.record(8_000, 3, 2, "transport.color", kind::RECV, 9);
        t.record(8_500, 3, 2, "display", kind::DISPLAY, 0);
        t.record(400, NO_FRAME, 0, "transport.color", kind::GCC, 2_000_000);
        t
    }

    #[test]
    fn export_is_balanced_json_with_tracks_and_flows() {
        let t = sample_trace();
        let j = chrome_trace_json(&t.snapshot(), &|p| {
            if p == 0 {
                "sender".into()
            } else {
                format!("recv{p}")
            }
        });
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.ends_with("]}"));
        // Balanced braces/brackets (cheap structural validity check —
        // no string we emit contains braces).
        let depth = j.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        // Process + thread metadata present.
        assert!(j.contains("\"process_name\""));
        assert!(j.contains("{\"name\":\"sender\"}"));
        assert!(j.contains("{\"name\":\"recv2\"}"));
        assert!(j.contains("\"thread_name\""));
        assert!(j.contains("{\"name\":\"codec.color\"}"));
        // The frame's slices and its flow chain.
        assert!(j.contains("\"name\":\"capture\",\"ph\":\"X\""));
        assert!(j.contains("\"frame_seq\":3"));
        assert!(j.contains("\"ph\":\"s\""));
        assert!(j.contains("\"ph\":\"t\""));
        assert!(j.contains("\"ph\":\"f\""));
        assert!(j.contains("\"bp\":\"e\""));
        // The non-frame GCC tick exports without a flow or frame_seq.
        assert!(j.contains("\"name\":\"gcc_estimate\""));
    }

    #[test]
    fn flow_chain_matches_query_order() {
        let t = sample_trace();
        let snap = t.snapshot();
        let q = TraceQuery::new(snap.clone());
        let path = q.frame(3).unwrap();
        let j = chrome_trace_json(&snap, &|p| format!("p{p}"));
        // Flow start sits at the capture ts, finish at the display ts.
        let start = format!("\"ph\":\"s\",\"ts\":{}", path.events.first().unwrap().ts_us);
        let fin = format!("\"ph\":\"f\",\"ts\":{}", path.events.last().unwrap().ts_us);
        assert!(j.contains(&start), "{j}");
        assert!(j.contains(&fin), "{j}");
    }

    #[test]
    fn single_event_frame_gets_no_flow() {
        let t = EventTrace::new(16);
        t.record(1, 9, 0, "pipeline", kind::CAPTURE, 0);
        let j = chrome_trace_json(&t.snapshot(), &|_| "x".into());
        assert!(!j.contains("\"ph\":\"s\""));
    }
}
