//! `repro diff old.json new.json`: what moved between two `BENCH_*.json`
//! snapshots.
//!
//! Every leaf of a snapshot is one of three kinds. *Virtual* leaves come
//! from the deterministic virtual-time run — bits, counts, stall rates,
//! PSSIM, latencies on the virtual clock — and repeat exactly for a seed on
//! any host, at any pool size and SIMD tier. *Wall* leaves are wall-clock
//! timings. *Host* leaves say where the run happened. A changed virtual
//! leaf is a changed system; a wall leaf is a ratio to read; host leaves
//! are ignored. [`KINDS`] is the one table that decides, and it names leaves
//! rather than suffixes: `summary.transport_latency_ms` and qoe's
//! `frame_age_p50_ms` are virtual-time milliseconds.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leaf {
    Virtual,
    Wall,
    Host,
}

/// The leaves that are not plain virtual time, first match wins; every
/// other leaf is [`Leaf::Virtual`]. Patterns are globs over the leaf's path
/// with array indices dropped (`points[].stall_rate`); `*` matches any run
/// of characters.
const KINDS: [(&str, Leaf); 14] = [
    ("host.*", Leaf::Host),
    // kernels: the dispatch tier; sfu: the pool the host gives.
    ("config.simd_level*", Leaf::Host),
    ("config.threads", Leaf::Host),
    // pipeline: the tier, and the pool's size, task count and task times.
    ("metrics.gauges.kernel.simd_level", Leaf::Host),
    ("metrics.histograms.runtime.pool.task_ms.count", Leaf::Host),
    ("metrics.histograms.runtime.pool.task_ms.*", Leaf::Wall),
    ("metrics.*.runtime.pool.*", Leaf::Host),
    // pipeline: how many samples a timing histogram took is virtual.
    ("metrics.histograms.*.count", Leaf::Virtual),
    ("metrics.gauges.kernel.*", Leaf::Wall),
    ("metrics.histograms.conference.*", Leaf::Wall),
    // sfu: route- and tick-time percentiles.
    ("*route_ms*", Leaf::Wall),
    ("*tick_ms*", Leaf::Wall),
    // kernels: the clock, not the bits.
    ("kernels[].*_ns", Leaf::Wall),
    ("kernels[].speedup", Leaf::Wall),
];

/// The kind of the leaf at `path` (array indices included or not).
fn kind_of(path: &str) -> Leaf {
    let mut bare = String::with_capacity(path.len());
    let mut in_index = false;
    for c in path.chars() {
        match c {
            '[' => in_index = true,
            ']' => in_index = false,
            _ if in_index => continue,
            _ => {}
        }
        bare.push(c);
    }
    KINDS
        .iter()
        .find(|(pattern, _)| glob(pattern.as_bytes(), bare.as_bytes()))
        .map_or(Leaf::Virtual, |&(_, kind)| kind)
}

/// `*` matches any run of bytes, everything else itself.
fn glob(pattern: &[u8], text: &[u8]) -> bool {
    match pattern.split_first() {
        None => text.is_empty(),
        Some((b'*', rest)) => (0..=text.len()).any(|i| glob(rest, &text[i..])),
        Some((c, rest)) => text.first() == Some(c) && glob(rest, &text[1..]),
    }
}

/// Every scalar of a JSON document as `(path, text as written)`, in
/// document order: `a.b` for object members, `a[3]` for array elements.
fn leaves(json: &str) -> Result<Vec<(String, String)>, String> {
    let mut p = Parser {
        s: json.as_bytes(),
        at: 0,
        out: Vec::new(),
    };
    p.value(String::new())?;
    p.ws();
    if p.at != p.s.len() {
        return Err(format!("trailing bytes at {}", p.at));
    }
    Ok(p.out)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
    out: Vec<(String, String)>,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.at) == Some(&c);
        self.at += usize::from(hit);
        hit
    }

    /// The raw text of a string, quotes and escapes kept.
    fn string(&mut self) -> Result<String, String> {
        let start = self.at;
        if !self.eat(b'"') {
            return Err(format!("expected a string at {start}"));
        }
        let start = self.at - 1;
        while let Some(&c) = self.s.get(self.at) {
            self.at += if c == b'\\' { 2 } else { 1 };
            if c == b'"' {
                return Ok(String::from_utf8_lossy(&self.s[start..self.at]).into_owned());
            }
        }
        Err(format!("unterminated string at {start}"))
    }

    fn value(&mut self, path: String) -> Result<(), String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                if self.eat(b'}') {
                    return Ok(());
                }
                loop {
                    let key = self.string()?;
                    let key = &key[1..key.len() - 1];
                    if !self.eat(b':') {
                        return Err(format!("expected ':' at {}", self.at));
                    }
                    let child = if path.is_empty() {
                        key.to_string()
                    } else {
                        format!("{path}.{key}")
                    };
                    self.value(child)?;
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.close(b'}')
            }
            Some(b'[') => {
                self.at += 1;
                if self.eat(b']') {
                    return Ok(());
                }
                for i in 0.. {
                    self.value(format!("{path}[{i}]"))?;
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.close(b']')
            }
            Some(b'"') => {
                let text = self.string()?;
                self.out.push((path, text));
                Ok(())
            }
            Some(_) => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|c| !b",]} \t\r\n".contains(c))
                {
                    self.at += 1;
                }
                let text = String::from_utf8_lossy(&self.s[start..self.at]).into_owned();
                self.out.push((path, text));
                Ok(())
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn close(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(format!("expected '{}' at {}", c as char, self.at))
        }
    }
}

/// The comparison of two snapshots, one line per changed virtual leaf and
/// per wall leaf, and a closing tally. Also returns the changed virtual
/// leaves' count.
fn compare(old: &str, new: &str) -> Result<(String, usize), String> {
    let old = leaves(old)?;
    let new = leaves(new)?;
    let before: BTreeMap<&str, &str> = old.iter().map(|(p, v)| (p.as_str(), v.as_str())).collect();
    let after: BTreeMap<&str, &str> = new.iter().map(|(p, v)| (p.as_str(), v.as_str())).collect();
    // Old order first, then what only the new one has.
    let paths = old.iter().map(|(p, _)| p.as_str()).chain(
        new.iter()
            .map(|(p, _)| p.as_str())
            .filter(|p| !before.contains_key(p)),
    );
    let (mut report, mut changed, mut wall, mut host) = (String::new(), 0, 0, 0);
    for path in paths {
        let (a, b) = (before.get(path).copied(), after.get(path).copied());
        let show = |v: Option<&str>| v.unwrap_or("(absent)").to_string();
        match kind_of(path) {
            Leaf::Host => host += 1,
            Leaf::Wall => {
                wall += 1;
                let ratio = match (
                    a.and_then(|v| v.parse::<f64>().ok()),
                    b.and_then(|v| v.parse::<f64>().ok()),
                ) {
                    (Some(a), Some(b)) if a != 0.0 => format!("{:.2}x", b / a),
                    _ => "-".into(),
                };
                report.push_str(&format!(
                    "  wall     {path}: {} -> {} ({ratio})\n",
                    show(a),
                    show(b)
                ));
            }
            Leaf::Virtual if a != b => {
                changed += 1;
                report.push_str(&format!("  VIRTUAL  {path}: {} -> {}\n", show(a), show(b)));
            }
            Leaf::Virtual => {}
        }
    }
    let total = before.len().max(after.len());
    report.push_str(&format!(
        "{changed} virtual leaves changed; {wall} wall leaves as ratios; {host} host leaves ignored ({total} leaves)\n"
    ));
    Ok((report, changed))
}

/// `repro diff old.json new.json`: exit 0 when no virtual leaf changed, 1
/// when one did, 2 when a file cannot be read or parsed.
pub fn main(args: &[String]) -> i32 {
    let [old, new] = args else {
        eprintln!("usage: repro diff <old.json> <new.json>");
        return 2;
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match read(old).and_then(|o| read(new).and_then(|n| compare(&o, &n))) {
        Ok((report, changed)) => {
            print!("{report}");
            i32::from(changed > 0)
        }
        Err(e) => {
            eprintln!("repro diff: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_walk_objects_and_arrays_in_order() {
        let json = r#"{"schema":"s","a":{"b":1,"c":[{"d":"x\"y"},true]},"e":[],"f":-2.5e3}"#;
        let got = leaves(json).unwrap();
        let want = [
            ("schema", "\"s\""),
            ("a.b", "1"),
            ("a.c[0].d", "\"x\\\"y\""),
            ("a.c[1]", "true"),
            ("f", "-2.5e3"),
        ];
        assert_eq!(got.len(), want.len());
        for ((p, v), (wp, wv)) in got.iter().zip(want) {
            assert_eq!((p.as_str(), v.as_str()), (wp, wv));
        }
        assert!(leaves(r#"{"a":1"#).is_err());
        assert!(leaves(r#"{"a":1} x"#).is_err());
    }

    #[test]
    fn kinds_follow_the_table_not_the_suffix() {
        assert_eq!(kind_of("summary.transport_latency_ms"), Leaf::Virtual);
        assert_eq!(kind_of("points[2].frame_age_p50_ms"), Leaf::Virtual);
        assert_eq!(
            kind_of("metrics.histograms.transport.latency_ms.p50"),
            Leaf::Virtual
        );
        assert_eq!(
            kind_of("metrics.histograms.conference.encode_ms.count"),
            Leaf::Virtual
        );
        assert_eq!(
            kind_of("metrics.histograms.conference.encode_ms.p50"),
            Leaf::Wall
        );
        assert_eq!(kind_of("metrics.gauges.kernel.cull_ns_per_mpx"), Leaf::Wall);
        assert_eq!(kind_of("points[1].shared_route_ms_p50"), Leaf::Wall);
        assert_eq!(kind_of("churn[0].route_ms_p99"), Leaf::Wall);
        assert_eq!(kind_of("points[1].tick_ms_p50"), Leaf::Wall);
        assert_eq!(kind_of("points[1].session_ticks_per_frame"), Leaf::Virtual);
        assert_eq!(kind_of("host.git_rev"), Leaf::Host);
        assert_eq!(kind_of("metrics.counters.runtime.pool.tasks"), Leaf::Host);
        assert_eq!(
            kind_of("metrics.histograms.runtime.pool.task_ms.count"),
            Leaf::Host
        );
        assert_eq!(
            kind_of("metrics.histograms.runtime.pool.task_ms.p50"),
            Leaf::Wall
        );
        assert_eq!(kind_of("kernels[9].fast_bits"), Leaf::Virtual);
        assert_eq!(kind_of("kernels[9].ref_ns"), Leaf::Wall);
    }

    #[test]
    fn only_virtual_changes_count() {
        let old = r#"{"host":{"git_rev":"a"},"points":[{"stall_rate":0,"route_ms_p99":1.0}]}"#;
        let wall_and_host =
            r#"{"host":{"git_rev":"b"},"points":[{"stall_rate":0,"route_ms_p99":2.0}]}"#;
        let (report, changed) = compare(old, wall_and_host).unwrap();
        assert_eq!(changed, 0, "{report}");
        assert!(
            report.contains("points[0].route_ms_p99: 1.0 -> 2.0 (2.00x)"),
            "{report}"
        );
        let moved = r#"{"host":{"git_rev":"a"},"points":[{"stall_rate":0.5,"route_ms_p99":1.0}]}"#;
        assert_eq!(compare(old, moved).unwrap().1, 1);
        // A virtual leaf that appears or disappears is a change too.
        let grew = r#"{"host":{"git_rev":"a"},"points":[{"stall_rate":0,"route_ms_p99":1.0},{"stall_rate":0}]}"#;
        assert_eq!(compare(old, grew).unwrap().1, 1);
        assert_eq!(compare(grew, old).unwrap().1, 1);
    }
}
