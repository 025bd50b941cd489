//! Spans recorded from outside the product, around each public call.
//!
//! Kept in memory for one rep; the per-layer numbers are read from them
//! after the rep and the list is written as Chrome trace JSON at exit.
//! When tracing is off every call is a branch on a bool and nothing else.

use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    /// Frame interval the span falls in: the identifier its spans share.
    pub frame: u32,
    /// Index of the span that caused this one.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span (`begin` → `end`).
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Spans {
    on: bool,
    t0: Instant,
    stack: Vec<u32>,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            stack: Vec::new(),
            list: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, frame: u32) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.list.len() as u32;
        let now = self.ns(Instant::now());
        self.list.push(Span {
            name,
            frame,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop().expect("span stack underflow");
        assert_eq!(top, open.0, "spans must close innermost first");
        self.list[top as usize].end_ns = self.ns(Instant::now());
    }

    /// A span around a call that opens no spans of its own.
    pub fn leaf<R>(&mut self, name: &'static str, frame: u32, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, frame);
        let r = f();
        self.end(open);
        r
    }

    /// A span timed elsewhere (on a pool thread); its cause is the span
    /// open on this thread.
    pub fn add(&mut self, name: &'static str, frame: u32, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.list.push(Span {
            name,
            frame,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Per frame interval, the summed duration of the spans called `name`,
    /// over the intervals in which that layer ran at all.
    pub fn per_frame_ms(&self, name: &str) -> Vec<f64> {
        let mut by_frame = std::collections::BTreeMap::<u32, f64>::new();
        for s in self.list.iter().filter(|s| s.name == name) {
            *by_frame.entry(s.frame).or_default() += s.ms();
        }
        by_frame.into_values().collect()
    }

    /// Duration of every single span called `name`.
    pub fn each_ms(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per frame interval, the self time of the spans called `name`: their
    /// duration minus the part of it their child spans cover.
    pub fn per_frame_self_ms(&self, name: &str) -> Vec<f64> {
        let mut children = std::collections::BTreeMap::<u32, Vec<(u64, u64)>>::new();
        for s in &self.list {
            if s.parent != NO_PARENT && self.list[s.parent as usize].name == name {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut by_frame = std::collections::BTreeMap::<u32, f64>::new();
        for (i, s) in self.list.iter().enumerate().filter(|(_, s)| s.name == name) {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&(i as u32)) {
                kids.sort_unstable();
                let mut edge = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(edge);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        edge = b;
                    }
                }
            }
            *by_frame.entry(s.frame).or_default() += (s.end_ns - s.start_ns - covered) as f64 / 1e6;
        }
        by_frame.into_values().collect()
    }

    /// Chrome trace JSON (`chrome://tracing`, Perfetto): one complete event
    /// per span, frame interval and causing span in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.list.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"frame\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.frame,
                if s.parent == NO_PARENT { -1 } else { s.parent as i64 },
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
