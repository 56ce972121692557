//! `--compare PARENT.json CHANGE.json`: one row per workload and metric
//! of two results files, with both medians, their quartiles and a
//! verdict. End-to-end bounds come from `BENCHMARK.json` in the working
//! directory; per-layer counts compare exactly, and per-layer host times
//! and probes carry no bound, so they are shown without a verdict.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Kind, PER_LAYER};
use crate::stats::{median, quartiles, verdict, Better};

struct Bound {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .arr()
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.str()?.to_string(),
                unit: m.get("unit")?.str()?.to_string(),
                better: Better::parse(m.get("better")?.str()?)?,
                bound: m.get("bound")?.num()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

fn cell(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    format!("{:.6} [{q1:.6}, {q3:.6}]", median(xs))
}

/// One printed row: the change's verdict against the parent.
pub fn row(
    workload: &str,
    metric: &str,
    unit: &str,
    parent: &[f64],
    change: &[f64],
    judge: Option<(Better, f64)>,
) -> String {
    let v =
        judge.map_or("no bound", |(better, bound)| verdict(parent, change, better, bound).name());
    format!("{workload:<14} {metric:<26} {unit:<9} {:>40}  {:>40}  {v}", cell(parent), cell(change))
}

pub fn run(args: &[String]) -> ExitCode {
    let [parent_path, change_path] = args else {
        eprintln!("usage: benchmark --compare PARENT.json CHANGE.json");
        return ExitCode::from(2);
    };
    let loaded =
        (|| Ok::<_, String>((read("BENCHMARK.json")?, read(parent_path)?, read(change_path)?)))();
    let (spec, parent, change) = match loaded {
        Ok(files) => files,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let bounds = match bounds(&spec) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<26} {:<9} {:>40}  {:>40}  verdict",
        "workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]"
    );
    let empty = Json::Obj(Vec::new());
    for (name, p) in parent.get("workloads").unwrap_or(&empty).entries() {
        let Some(c) = change.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        let samples = |w: &Json, k: &str| w.get("samples").and_then(|s| s.get(k)).map(Json::nums);
        for b in &bounds {
            if let (Some(ps), Some(cs)) = (samples(p, &b.name), samples(c, &b.name)) {
                println!("{}", row(name, &b.name, &b.unit, &ps, &cs, Some((b.better, b.bound))));
            }
        }
        let value = |w: &Json, k: &str| w.get("layer").and_then(|l| l.get(k)).and_then(Json::num);
        for l in &PER_LAYER {
            if let (Some(pv), Some(cv)) = (value(p, l.name), value(c, l.name)) {
                let judge = (l.kind == Kind::Count).then_some((l.better, 0.0));
                println!("{}", row(name, l.name, l.unit, &[pv], &[cv], judge));
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_show_medians_quartiles_and_the_verdict() {
        let r = row(
            "fleet_dc",
            "sim_minstr_per_s",
            "Minstr/s",
            &[100.0, 101.0, 99.0],
            &[80.0, 81.0, 79.0],
            Some((Better::Higher, 0.1)),
        );
        assert!(r.contains("100.000000 [99.000000, 101.000000]"), "{r}");
        assert!(r.ends_with("worse"), "{r}");
        let r = row("fleet_dc", "tick.ns", "ns", &[5.0], &[6.0], None);
        assert!(r.ends_with("no bound"), "{r}");
    }

    #[test]
    fn bounds_are_read_from_the_spec() {
        let spec = Json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        let b = bounds(&spec).unwrap();
        assert_eq!((b[0].name.as_str(), b[0].better, b[0].bound), ("setup_s", Better::Lower, 0.25));
        assert!(bounds(&Json::parse(r#"{"end_to_end": [{"name": "x"}]}"#).unwrap()).is_err());
    }
}
