//! The benchmark's own tracing: spans recorded around each call the
//! benchmark makes into a layer of the program, kept in memory and
//! written out when the run ends. Off (recording nothing) in the runs
//! that measure end-to-end metrics.

use std::time::Instant;

use wa_tensor::Json;

struct Rec {
    id: usize,
    parent: Option<usize>,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// An in-memory span log. Span ids are indices into the log; spans of
/// one request or batch share its root span as `parent`.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Rec>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records a finished span; returns its id (`None` while disabled).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Rec {
            id,
            parent,
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
        });
        Some(id)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed by name, in ms.
    pub fn self_time_ms(&self) -> Vec<(String, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_name: std::collections::BTreeMap<&str, f64> = Default::default();
        for s in &self.spans {
            *by_name.entry(s.name.as_str()).or_default() +=
                (s.end_us - s.start_us - child_us[s.id]).max(0.0) / 1e3;
        }
        by_name
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::arr(self.spans.iter().map(|s| {
            Json::obj([
                ("id", Json::from(s.id)),
                ("parent", s.parent.map(Json::from).unwrap_or(Json::Null)),
                ("name", Json::from(s.name.as_str())),
                ("start_us", Json::from(s.start_us)),
                ("end_us", Json::from(s.end_us)),
            ])
        }))
    }
}
