//! Structured leveled logging: one JSON object per line on stderr.
//!
//! The threshold comes from `WA_LOG` (`off`, `error`, `warn`, `info`
//! — the default — `debug`, `trace`) and can be overridden in-process
//! with [`set_max_level`]. A call below the threshold costs one relaxed
//! atomic load. Every emitted line also bumps
//! `wa_log_lines_total{level=...}`, so a scrape can prove a run was
//! error-free without parsing stderr.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::metrics::{counter_with, Counter};
use crate::trace::TraceId;

/// Log severity. `Off` is only meaningful as a threshold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Disables all logging (threshold only).
    Off = 0,
    /// The run is broken or losing data.
    Error = 1,
    /// Degraded but proceeding (deadline drops, refusals).
    Warn = 2,
    /// Lifecycle events: startup, model load, batch flush.
    Info = 3,
    /// Per-request detail: access log lines.
    Debug = 4,
    /// Per-stage firehose.
    Trace = 5,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_env(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

const UNINIT: u8 = u8::MAX;
static MAX_LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

fn max_level() -> u8 {
    let v = MAX_LEVEL.load(Ordering::Relaxed);
    if v != UNINIT {
        return v;
    }
    let level = std::env::var("WA_LOG")
        .ok()
        .and_then(|s| Level::from_env(&s))
        .unwrap_or(Level::Info);
    // Racing first calls may both read the env; they agree on the value.
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
    level as u8
}

/// Overrides the `WA_LOG` threshold for this process (tests, CLIs).
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Sets the threshold to `level` unless `WA_LOG` chose one — a quieter
/// (or louder) default for a test suite or tool that an explicit
/// `WA_LOG` still overrides.
pub fn set_default_max_level(level: Level) {
    if std::env::var_os("WA_LOG").is_none() {
        set_max_level(level);
    }
}

/// Whether a message at `level` would currently be emitted.
pub fn log_enabled(level: Level) -> bool {
    level != Level::Off && (level as u8) <= max_level()
}

/// A typed field value for a structured log line.
pub enum LogValue {
    /// A string (JSON-escaped on output).
    Str(String),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float.
    F64(f64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for LogValue {
    fn from(v: &str) -> LogValue {
        LogValue::Str(v.to_string())
    }
}

impl From<String> for LogValue {
    fn from(v: String) -> LogValue {
        LogValue::Str(v)
    }
}

impl From<&String> for LogValue {
    fn from(v: &String) -> LogValue {
        LogValue::Str(v.clone())
    }
}

impl From<u64> for LogValue {
    fn from(v: u64) -> LogValue {
        LogValue::U64(v)
    }
}

impl From<u32> for LogValue {
    fn from(v: u32) -> LogValue {
        LogValue::U64(v as u64)
    }
}

impl From<usize> for LogValue {
    fn from(v: usize) -> LogValue {
        LogValue::U64(v as u64)
    }
}

impl From<i64> for LogValue {
    fn from(v: i64) -> LogValue {
        LogValue::I64(v)
    }
}

impl From<f64> for LogValue {
    fn from(v: f64) -> LogValue {
        LogValue::F64(v)
    }
}

impl From<bool> for LogValue {
    fn from(v: bool) -> LogValue {
        LogValue::Bool(v)
    }
}

impl From<TraceId> for LogValue {
    fn from(v: TraceId) -> LogValue {
        LogValue::Str(v.to_string())
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn line_counter(level: Level) -> Arc<Counter> {
    static COUNTERS: OnceLock<[Arc<Counter>; 5]> = OnceLock::new();
    let all = COUNTERS.get_or_init(|| {
        let make = |lvl: Level| {
            counter_with(
                "wa_log_lines_total",
                "Structured log lines emitted, by level.",
                &[("level", lvl.as_str())],
            )
        };
        [
            make(Level::Error),
            make(Level::Warn),
            make(Level::Info),
            make(Level::Debug),
            make(Level::Trace),
        ]
    });
    Arc::clone(&all[(level as usize) - 1])
}

/// Emits one structured log line:
/// `{"ts_ms":...,"level":"info","target":"...","msg":"...",<fields>}`.
/// No-op (one relaxed load) below the current threshold.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    if level == Level::Off || !log_enabled(level) {
        return;
    }
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut line = String::with_capacity(128);
    let _ = write!(
        line,
        "{{\"ts_ms\":{ts_ms},\"level\":\"{}\",",
        level.as_str()
    );
    line.push_str("\"target\":");
    push_json_string(&mut line, target);
    line.push_str(",\"msg\":");
    push_json_string(&mut line, msg);
    for (key, value) in fields {
        line.push(',');
        push_json_string(&mut line, key);
        line.push(':');
        match value {
            LogValue::Str(s) => push_json_string(&mut line, s),
            LogValue::U64(v) => {
                let _ = write!(line, "{v}");
            }
            LogValue::I64(v) => {
                let _ = write!(line, "{v}");
            }
            LogValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(line, "{v}");
                } else {
                    line.push_str("null");
                }
            }
            LogValue::Bool(v) => {
                let _ = write!(line, "{v}");
            }
        }
    }
    line.push('}');
    line_counter(level).inc();
    // One write_all per line keeps concurrent lines unspliced.
    line.push('\n');
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// Logs at [`Level::Error`].
pub fn error(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Error, target, msg, fields);
}

/// Logs at [`Level::Warn`].
pub fn warn(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Warn, target, msg, fields);
}

/// Logs at [`Level::Info`].
pub fn info(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Info, target, msg, fields);
}

/// Logs at [`Level::Debug`].
pub fn debug(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Debug, target, msg, fields);
}

/// Logs at [`Level::Trace`].
pub fn trace(target: &str, msg: &str, fields: &[(&str, LogValue)]) {
    log(Level::Trace, target, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_filters_and_counts() {
        set_max_level(Level::Warn);
        assert!(log_enabled(Level::Error));
        assert!(log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        assert!(!log_enabled(Level::Off));

        let warns = line_counter(Level::Warn);
        let infos = line_counter(Level::Info);
        let (w0, i0) = (warns.get(), infos.get());
        warn("wa_obs::test", "something degraded", &[("n", 3u64.into())]);
        info("wa_obs::test", "suppressed", &[]);
        assert_eq!(warns.get(), w0 + 1);
        assert_eq!(infos.get(), i0);
        set_max_level(Level::Info);
    }

    #[test]
    fn json_string_escaping_is_lossless_for_control_chars() {
        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn level_parsing_accepts_common_spellings() {
        assert_eq!(Level::from_env("OFF"), Some(Level::Off));
        assert_eq!(Level::from_env(" warning "), Some(Level::Warn));
        assert_eq!(Level::from_env("Trace"), Some(Level::Trace));
        assert_eq!(Level::from_env("bogus"), None);
    }
}
