//! Structured event logging: levels and key=value fields, one text line
//! per event on stderr.
//!
//! Replaces the scattered `eprintln!` diagnostics with events that carry a
//! level, a target (the subsystem emitting), a message, and typed fields.
//!
//! Filtering is by level via the `LIVO_LOG` environment variable
//! (`trace|debug|info|warn|error|off`, default `info`), read once. The
//! cheap path is the disabled path: call sites check [`enabled`] (one
//! compare) before formatting anything — the [`log_event!`] macro does this
//! for you.

use std::sync::{Mutex, OnceLock};

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Trace = 0,
    Debug = 1,
    Info = 2,
    Warn = 3,
    Error = 4,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parse a `LIVO_LOG` value. `None` for "off".
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    fn write_text(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => out.push_str(&format!("{v:.3}")),
            Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Value::Str(v) => out.push_str(v),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::$variant(v as $conv) }
        })*
    };
}
value_from!(u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64,
            f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Per-key rate-limiter state for [`Logger::warn_limited`].
struct LimiterState {
    last_emit: std::time::Instant,
    suppressed: u64,
}

/// The logger: a level filter in front of stderr.
pub struct Logger {
    /// Minimum level that passes; `5` means everything is off.
    min_level: u8,
    /// This module's tests read event lines here instead of from stderr.
    captured: Option<Mutex<String>>,
    limiters: Mutex<std::collections::HashMap<&'static str, LimiterState>>,
}

impl Logger {
    fn from_env() -> Logger {
        let min_level = match std::env::var("LIVO_LOG") {
            // Unparsable (including "off") → off.
            Ok(s) => Level::parse(&s).map_or(5, |l| l as u8),
            Err(_) => Level::Info as u8,
        };
        Logger {
            min_level,
            captured: None,
            limiters: Mutex::new(std::collections::HashMap::new()),
        }
    }

    pub fn enabled(&self, level: Level) -> bool {
        level as u8 >= self.min_level
    }

    /// Rate-limited warning: events sharing `key` emit at most once per
    /// `interval` (wall clock); the rest are counted and reported as a
    /// `suppressed=N` field on the next event that passes. Keeps loss
    /// sweeps and PLI storms from flooding stderr while still recording
    /// that the condition kept firing.
    pub fn warn_limited(
        &self,
        key: &'static str,
        interval: std::time::Duration,
        target: &str,
        msg: &str,
        fields: &[(&str, Value)],
    ) {
        if !self.enabled(Level::Warn) {
            return;
        }
        let now = std::time::Instant::now();
        let suppressed = {
            let mut limiters = self.limiters.lock().unwrap();
            match limiters.get_mut(key) {
                None => {
                    limiters.insert(
                        key,
                        LimiterState {
                            last_emit: now,
                            suppressed: 0,
                        },
                    );
                    0
                }
                Some(st) if now.duration_since(st.last_emit) >= interval => {
                    let n = st.suppressed;
                    st.last_emit = now;
                    st.suppressed = 0;
                    n
                }
                Some(st) => {
                    st.suppressed += 1;
                    return;
                }
            }
        };
        if suppressed > 0 {
            let mut with_tail: Vec<(&str, Value)> = fields.to_vec();
            with_tail.push(("suppressed", Value::U64(suppressed)));
            self.log(Level::Warn, target, msg, &with_tail);
        } else {
            self.log(Level::Warn, target, msg, fields);
        }
    }

    /// Emit one event. Prefer [`log_event!`], which checks [`enabled`]
    /// before the arguments are evaluated.
    pub fn log(&self, level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
        if !self.enabled(level) {
            return;
        }
        let mut line = String::with_capacity(64 + msg.len());
        line.push('[');
        line.push_str(level.as_str());
        line.push(' ');
        line.push_str(target);
        line.push_str("] ");
        line.push_str(msg);
        for (k, v) in fields {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            v.write_text(&mut line);
        }
        match &self.captured {
            Some(buf) => {
                let mut buf = buf.lock().unwrap();
                buf.push_str(&line);
                buf.push('\n');
            }
            None => eprintln!("{line}"),
        }
    }
}

/// The process-wide logger (level read from `LIVO_LOG` on first use).
pub fn logger() -> &'static Logger {
    static LOGGER: OnceLock<Logger> = OnceLock::new();
    LOGGER.get_or_init(Logger::from_env)
}

/// Whether events at `level` currently pass the filter.
pub fn enabled(level: Level) -> bool {
    logger().enabled(level)
}

/// Emit through the global logger.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, Value)]) {
    logger().log(level, target, msg, fields);
}

/// Rate-limited warning through the global logger (see
/// [`Logger::warn_limited`]). `interval_ms` is the minimum wall-clock
/// spacing between emitted events sharing `key`.
pub fn warn_limited(
    key: &'static str,
    interval_ms: u64,
    target: &str,
    msg: &str,
    fields: &[(&str, Value)],
) {
    logger().warn_limited(
        key,
        std::time::Duration::from_millis(interval_ms),
        target,
        msg,
        fields,
    );
}

/// Structured event through the global logger; fields are `"key" => value`
/// pairs and nothing is evaluated unless the level is enabled:
///
/// ```
/// use livo_telemetry::{log_event, Level};
/// log_event!(Level::Info, "example", "frame encoded", "seq" => 7u64, "bits" => 1234u64);
/// ```
#[macro_export]
macro_rules! log_event {
    ($level:expr, $target:expr, $msg:expr $(, $k:expr => $v:expr)* $(,)?) => {
        if $crate::log::enabled($level) {
            $crate::log::log(
                $level,
                $target,
                &($msg).to_string(),
                &[$(($k, $crate::log::Value::from($v))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_logger(min: u8) -> Logger {
        Logger {
            min_level: min,
            captured: Some(Mutex::new(String::new())),
            limiters: Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn lines(l: &Logger) -> Vec<String> {
        let text = l.captured.as_ref().unwrap().lock().unwrap();
        text.lines().map(str::to_owned).collect()
    }

    #[test]
    fn level_ordering_and_parse() {
        assert!(Level::Error > Level::Warn);
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nonsense"), None);
    }

    #[test]
    fn filter_blocks_below_min() {
        let l = quiet_logger(Level::Info as u8);
        assert!(!l.enabled(Level::Debug));
        assert!(l.enabled(Level::Info));
        let l = quiet_logger(Level::Error as u8);
        assert!(!l.enabled(Level::Warn));
        let off = quiet_logger(5);
        assert!(!off.enabled(Level::Error));
    }

    #[test]
    fn json_sink_gets_one_line_per_event() {
        let l = quiet_logger(Level::Info as u8);
        l.log(
            Level::Warn,
            "conference",
            "stall",
            &[("slot", Value::from(9u64))],
        );
        l.log(Level::Debug, "conference", "filtered out", &[]);
        assert_eq!(lines(&l), ["[warn conference] stall slot=9"]);
    }

    #[test]
    fn warn_limited_suppresses_and_reports_tail() {
        let l = quiet_logger(Level::Info as u8);
        let interval = std::time::Duration::from_millis(40);
        // Burst: first passes, next three are suppressed.
        for i in 0..4u64 {
            l.warn_limited(
                "test.pli",
                interval,
                "transport",
                "pli sent",
                &[("n", Value::from(i))],
            );
        }
        std::thread::sleep(interval + std::time::Duration::from_millis(5));
        l.warn_limited("test.pli", interval, "transport", "pli sent", &[]);
        assert_eq!(
            lines(&l),
            [
                "[warn transport] pli sent n=0",
                "[warn transport] pli sent suppressed=3"
            ]
        );
    }

    #[test]
    fn warn_limited_keys_are_independent() {
        let l = quiet_logger(Level::Info as u8);
        let interval = std::time::Duration::from_secs(60);
        l.warn_limited("test.a", interval, "t", "a", &[]);
        l.warn_limited("test.b", interval, "t", "b", &[]);
        l.warn_limited("test.a", interval, "t", "a", &[]); // suppressed
        assert_eq!(lines(&l).len(), 2);
    }

    #[test]
    fn warn_limited_is_free_when_warn_disabled() {
        let l = quiet_logger(5);
        // Must not record limiter state (nor panic) while disabled.
        l.warn_limited("test.off", std::time::Duration::from_secs(1), "t", "x", &[]);
        assert!(l.limiters.lock().unwrap().is_empty());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(-2i64), Value::I64(-2));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        let Value::F64(f) = Value::from(1.5f32) else {
            panic!()
        };
        assert_eq!(f, 1.5);
    }

    #[test]
    fn text_values_format() {
        let mut s = String::new();
        Value::from(2.5f64).write_text(&mut s);
        assert_eq!(s, "2.500");
    }
}
