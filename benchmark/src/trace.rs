//! Host-time spans recorded by the benchmark around its calls into the
//! simulator. Spans stay in memory; the parent process writes them out
//! as JSONL once the benchmark ends.

use std::time::Instant;

use crate::json::{Json, Obj};

/// One timed interval. Times are microseconds since the recording
/// process started its rep; `parent` is the id of the enclosing span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    pub fn to_json(&self) -> Json {
        Obj::new()
            .with("id", self.id)
            .with("parent", self.parent.map_or(Json::Null, Json::from))
            .with("name", self.name.as_str())
            .with("start_us", self.start_us)
            .with("end_us", self.end_us)
            .into()
    }

    pub fn from_json(v: &Json) -> Option<Span> {
        Some(Span {
            id: v.get("id")?.num()? as usize,
            parent: v.get("parent")?.num().map(|p| p as usize),
            name: v.get("name")?.str()?.to_string(),
            start_us: v.get("start_us")?.num()?,
            end_us: v.get("end_us")?.num()?,
        })
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.at_us(Instant::now())
    }

    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Start a span now; returns its id.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.record(name, parent, start_us, start_us)
    }

    /// End span `id` now; returns its length in milliseconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_us = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end_us;
        span.ms()
    }

    /// Add a span whose bounds were measured elsewhere.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span { id, parent, name: name.to_string(), start_us, end_us });
        id
    }

    /// Lengths in milliseconds of every span called `name`.
    pub fn lengths_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }
}

/// Render spans as JSONL, one per line, tagged with their workload. Ids
/// are shifted by `id_base` so spans of several workloads share one file
/// without clashing.
pub fn to_jsonl(workload: &str, spans: &[Span], id_base: usize) -> String {
    let mut out = String::new();
    for s in spans {
        let line: Json = Obj::new()
            .with("workload", workload)
            .with("id", s.id + id_base)
            .with("parent", s.parent.map_or(Json::Null, |p| Json::from(p + id_base)))
            .with("name", s.name.as_str())
            .with("start_us", s.start_us)
            .with("end_us", s.end_us)
            .into();
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_round_trip_and_shift_ids() {
        let mut t = Tracer::new();
        let root = t.open("root", None);
        let child = t.open("child", Some(root));
        assert!(t.close(child) >= 0.0);
        t.close(root);
        let s = &t.spans[child];
        assert!(s.start_us >= t.spans[root].start_us && s.end_us <= t.spans[root].end_us);
        assert_eq!(Span::from_json(&s.to_json()).as_ref(), Some(s));
        let text = to_jsonl("w", &t.spans, 10);
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines[1].get("parent").unwrap().num(), Some(10.0));
        assert_eq!(lines[1].get("id").unwrap().num(), Some(11.0));
        assert_eq!(t.lengths_ms("child").len(), 1);
    }
}
