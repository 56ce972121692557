//! One rep's measurements, as a child process reports them to the
//! parent on its last line of standard output.

use crate::json::{Json, Obj};
use crate::trace::Span;

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sample {
    /// Host wall seconds of the run: every step plus the finish, set-up
    /// and export excluded.
    pub wall_s: f64,
    /// Host wall seconds of set-up.
    pub setup_s: f64,
    /// Process CPU seconds over the run.
    pub cpu_s: f64,
    /// Resident set before set-up, kB.
    pub rss_base_kb: f64,
    /// Peak resident set at the end of the run, kB.
    pub hwm_kb: f64,
    /// One-minute host load average when the rep started.
    pub loadavg: f64,
    /// Simulated committed instructions.
    pub sim_instr: f64,
    /// Simulated nodes (0 for the sweep).
    pub nodes: f64,
    /// Nodes × epochs stepped.
    pub node_epochs: f64,
    /// Simulated requests offered, retries included.
    pub requests: f64,
    pub finish_ms: f64,
    /// Host milliseconds of each unit of engine work: fleet epochs, or
    /// the sweep's cap points.
    pub epoch_ms: Vec<f64>,
    /// Hash of the rendered report.
    pub digest: String,
    /// Hash of the merged observability (metrics + events JSONL); empty
    /// when the run had none.
    pub obs_digest: String,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
    /// Per-layer counts, probes and shares measured in this rep.
    pub layer: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl Sample {
    /// Record a correctness check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.layer.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.layer.iter().find(|(k, _)| k == name).map_or(0.0, |(_, v)| *v)
    }

    pub fn to_json(&self) -> Json {
        let layer = Json::Obj(self.layer.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect());
        Obj::new()
            .with("wall_s", self.wall_s)
            .with("setup_s", self.setup_s)
            .with("cpu_s", self.cpu_s)
            .with("rss_base_kb", self.rss_base_kb)
            .with("hwm_kb", self.hwm_kb)
            .with("loadavg", self.loadavg)
            .with("sim_instr", self.sim_instr)
            .with("nodes", self.nodes)
            .with("node_epochs", self.node_epochs)
            .with("requests", self.requests)
            .with("finish_ms", self.finish_ms)
            .with("epoch_ms", self.epoch_ms.clone())
            .with("digest", self.digest.as_str())
            .with("obs_digest", self.obs_digest.as_str())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("notes", self.notes.clone())
            .with("layer", layer)
            .with("spans", Json::Arr(self.spans.iter().map(Span::to_json).collect()))
            .into()
    }

    pub fn from_json(v: &Json) -> Option<Sample> {
        let num = |k: &str| v.get(k).and_then(Json::num);
        let text = |k: &str| v.get(k).and_then(Json::str).map(str::to_string);
        Some(Sample {
            wall_s: num("wall_s")?,
            setup_s: num("setup_s")?,
            cpu_s: num("cpu_s")?,
            rss_base_kb: num("rss_base_kb")?,
            hwm_kb: num("hwm_kb")?,
            loadavg: num("loadavg")?,
            sim_instr: num("sim_instr")?,
            nodes: num("nodes")?,
            node_epochs: num("node_epochs")?,
            requests: num("requests")?,
            finish_ms: num("finish_ms")?,
            epoch_ms: v.get("epoch_ms")?.nums(),
            digest: text("digest")?,
            obs_digest: text("obs_digest")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            notes: v
                .get("notes")?
                .arr()
                .iter()
                .filter_map(|n| n.str().map(str::to_string))
                .collect(),
            layer: v
                .get("layer")?
                .entries()
                .iter()
                .filter_map(|(k, x)| Some((k.clone(), x.num()?)))
                .collect(),
            spans: v.get("spans")?.arr().iter().filter_map(Span::from_json).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_through_json() {
        let mut s = Sample { wall_s: 1.25, digest: "00ff".into(), ..Sample::default() };
        s.epoch_ms = vec![0.5, 0.75];
        s.set("mem.l2_misses", 42.0);
        s.check(true, || unreachable!());
        s.check(false, || "books do not close".into());
        s.spans.push(Span { id: 0, parent: None, name: "rep".into(), start_us: 0.0, end_us: 9.0 });
        let back = Sample::from_json(&Json::parse(&s.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(back.get("mem.l2_misses"), 42.0);
        assert_eq!(back.get("absent"), 0.0);
    }
}
