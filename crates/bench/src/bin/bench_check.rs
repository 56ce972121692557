//! `bench_check` — validate the committed `BENCH_*.json` trajectory files.
//!
//! Usage: `cargo run -p capsim-bench --bin bench_check -- FILE...`
//!
//! Each file must parse as a JSON object of string / number / bool values
//! plus, at most one level deep, arrays of such flat objects (the shape
//! of the fleet scaling curve — the only nesting our bench bins emit).
//! Files whose names match a known artifact must carry that artifact's
//! required keys:
//!
//! * `BENCH_hotpath*`: `accesses_per_sec`, `machine_loads_per_sec`,
//!   `ticks_per_sec` — all positive numbers,
//! * `BENCH_fleet*`: `nodes`, `speedup` positive; `deterministic` must be
//!   `true`; `curve` must be a non-empty array of scaling points, each
//!   with positive `nodes`, `threads` and
//!   `node_epochs_per_sec` and a bool `parallel`; serial points
//!   (`parallel: false`) also need positive `heap_bytes_per_node` and
//!   `heap_bytes_per_node_after_run`; `speedup` must be within 0.01 of
//!   the fastest parallel over the fastest serial row at `nodes` nodes
//!   (1.0 when either is missing),
//! * `BENCH_obs*`: `loads_per_sec_obs_off`, `loads_per_sec_obs_on`,
//!   `overhead_pct`, `within_budget` — and `within_budget` must be true,
//! * `BENCH_chaos*`: `soak_scenarios_per_sec` positive,
//!   `guardrail_overhead_pct` numeric, `invariant_violations` exactly 0,
//!   `within_budget` true,
//! * `BENCH_policy*`: `deterministic` true (RL training replayed to the
//!   same Q-table digest), `invariant_violations` exactly 0 (every
//!   backend survived scripted chaos), `frontier` a non-empty array of
//!   per-policy points, each with a non-empty `policy` string and
//!   positive `energy_j` and `avg_freq_mhz`,
//! * `BENCH_traffic*`: `deterministic` true (emergency replay identical
//!   across thread twins), `invariant_violations` exactly 0,
//!   positive `throughput_rps`, `p99_ms` and `energy_j`; `ladder` a
//!   non-empty array of cap rungs with positive `budget_w_per_node` and
//!   `p99_ms`; `frontier` a non-empty array of per-policy points — one
//!   of which must be the `"slo"` backend — each with a non-empty
//!   `policy` string, positive `energy_j` and numeric `slo_viol_per_kj`;
//!   `retry_storm` a non-empty array of closed-loop points with positive
//!   `retries` and numeric `failover`; `backpressure` a non-empty array
//!   of per-mode points — one of which must be the `"aimd_brownout"`
//!   (robustness stack) row — each with a non-empty `mode` string,
//!   positive `energy_j` and numeric `slo_viol_per_kj` and
//!   `rate_multiplier`.
//!
//! Unknown `BENCH_*` files only need to parse. Exits non-zero listing
//! every problem found, so CI catches a bin that wrote garbage.

use std::collections::BTreeMap;

/// The value shapes our hand-rolled bench JSON actually contains.
#[derive(Debug, PartialEq)]
enum Val {
    Num(f64),
    Bool(bool),
    Str(String),
    /// An array of flat objects — the fleet scaling curve. Arrays never
    /// nest further.
    Arr(Vec<BTreeMap<String, Val>>),
}

fn skip_ws(s: &[char], mut i: usize) -> usize {
    while i < s.len() && s[i].is_whitespace() {
        i += 1;
    }
    i
}

fn parse_string(s: &[char], mut i: usize) -> Result<(String, usize), String> {
    if s.get(i) != Some(&'"') {
        return Err(format!("expected '\"' at offset {i}"));
    }
    i += 1;
    let mut out = String::new();
    while let Some(&c) = s.get(i) {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => {
                let esc = *s.get(i + 1).ok_or("dangling escape")?;
                out.push(match esc {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                i += 2;
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    Err("unterminated string".into())
}

/// Parse one scalar / array value starting at `i`. `depth` guards the
/// one level of nesting we allow: arrays of flat objects at the top
/// level only.
fn parse_value(s: &[char], mut i: usize, depth: u32) -> Result<(Val, usize), String> {
    match s.get(i) {
        Some(&'"') => {
            let (v, next) = parse_string(s, i)?;
            Ok((Val::Str(v), next))
        }
        Some(&'t') if s[i..].starts_with(&['t', 'r', 'u', 'e']) => Ok((Val::Bool(true), i + 4)),
        Some(&'f') if s[i..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            Ok((Val::Bool(false), i + 5))
        }
        Some(&'[') if depth == 0 => {
            let mut items = Vec::new();
            i = skip_ws(s, i + 1);
            if s.get(i) == Some(&']') {
                return Ok((Val::Arr(items), i + 1));
            }
            loop {
                let (obj, next) = parse_object(s, i, depth + 1)?;
                items.push(obj);
                i = skip_ws(s, next);
                match s.get(i) {
                    Some(&',') => i = skip_ws(s, i + 1),
                    Some(&']') => return Ok((Val::Arr(items), i + 1)),
                    other => return Err(format!("expected ',' or ']' in array, got {other:?}")),
                }
            }
        }
        Some(&'[') => Err("nested arrays are not a bench shape".into()),
        Some(&c) if c == '-' || c.is_ascii_digit() => {
            let start = i;
            while i < s.len()
                && (s[i].is_ascii_digit() || matches!(s[i], '-' | '+' | '.' | 'e' | 'E'))
            {
                i += 1;
            }
            let lit: String = s[start..i].iter().collect();
            Ok((Val::Num(lit.parse::<f64>().map_err(|_| format!("bad number {lit:?}"))?), i))
        }
        other => Err(format!("unexpected value start {other:?}")),
    }
}

/// Parse one `{...}` object starting at `i`; returns the map and the
/// position just past the closing brace.
fn parse_object(
    s: &[char],
    mut i: usize,
    depth: u32,
) -> Result<(BTreeMap<String, Val>, usize), String> {
    let mut map = BTreeMap::new();
    i = skip_ws(s, i);
    if s.get(i) != Some(&'{') {
        return Err(format!("expected '{{' at offset {i}"));
    }
    i = skip_ws(s, i + 1);
    if s.get(i) == Some(&'}') {
        return Ok((map, i + 1));
    }
    loop {
        let (key, next) = parse_string(s, i)?;
        i = skip_ws(s, next);
        if s.get(i) != Some(&':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i = skip_ws(s, i + 1);
        let (val, next) = parse_value(s, i, depth)?;
        i = next;
        if map.insert(key.clone(), val).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        i = skip_ws(s, i);
        match s.get(i) {
            Some(&',') => i = skip_ws(s, i + 1),
            Some(&'}') => return Ok((map, i + 1)),
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

/// Parse a whole bench JSON document (a flat object, with the fleet
/// curve's one allowed level of array nesting). Returns a description of
/// the first syntax problem on malformed input.
fn parse_flat_object(text: &str) -> Result<BTreeMap<String, Val>, String> {
    let s: Vec<char> = text.chars().collect();
    let (map, i) = parse_object(&s, 0, 0)?;
    if skip_ws(&s, i) != s.len() {
        return Err("trailing content after object".into());
    }
    Ok(map)
}

/// Check one file; push human-readable problems into `errors`.
fn check_file(path: &str, errors: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("{path}: unreadable: {e}"));
            return;
        }
    };
    let map = match parse_flat_object(&text) {
        Ok(m) => m,
        Err(e) => {
            errors.push(format!("{path}: parse error: {e}"));
            return;
        }
    };
    let name = path.rsplit('/').next().unwrap_or(path);
    let require_pos_num = |key: &str, errors: &mut Vec<String>| match map.get(key) {
        Some(Val::Num(v)) if *v > 0.0 => {}
        Some(Val::Num(v)) => errors.push(format!("{path}: {key} must be positive, got {v}")),
        Some(other) => errors.push(format!("{path}: {key} must be a number, got {other:?}")),
        None => errors.push(format!("{path}: missing required key {key:?}")),
    };
    let require_num = |key: &str, errors: &mut Vec<String>| match map.get(key) {
        Some(Val::Num(_)) => {}
        Some(other) => errors.push(format!("{path}: {key} must be a number, got {other:?}")),
        None => errors.push(format!("{path}: missing required key {key:?}")),
    };
    if name.starts_with("BENCH_hotpath") {
        for key in ["accesses_per_sec", "machine_loads_per_sec", "ticks_per_sec"] {
            require_pos_num(key, errors);
        }
    } else if name.starts_with("BENCH_fleet") {
        require_pos_num("nodes", errors);
        require_pos_num("speedup", errors);
        match map.get("deterministic") {
            Some(Val::Bool(true)) => {}
            Some(Val::Bool(false)) => {
                errors.push(format!("{path}: deterministic is false — fleet determinism broken"))
            }
            Some(other) => {
                errors.push(format!("{path}: deterministic must be a bool, got {other:?}"))
            }
            None => errors.push(format!("{path}: missing required key \"deterministic\"")),
        }
        match map.get("curve") {
            Some(Val::Arr(points)) if points.is_empty() => {
                errors.push(format!("{path}: curve must not be empty"))
            }
            Some(Val::Arr(points)) => {
                for (i, point) in points.iter().enumerate() {
                    let heap: &[&str] = match point.get("parallel") {
                        Some(Val::Bool(false)) => {
                            &["heap_bytes_per_node", "heap_bytes_per_node_after_run"]
                        }
                        Some(Val::Bool(true)) => &[],
                        other => {
                            errors.push(format!(
                                "{path}: curve[{i}].parallel must be a bool, got {other:?}"
                            ));
                            &[]
                        }
                    };
                    for &key in ["nodes", "threads", "node_epochs_per_sec"].iter().chain(heap) {
                        match point.get(key) {
                            Some(Val::Num(v)) if *v > 0.0 => {}
                            Some(other) => errors.push(format!(
                                "{path}: curve[{i}].{key} must be a positive number, got {other:?}"
                            )),
                            None => errors
                                .push(format!("{path}: curve[{i}] missing required key {key:?}")),
                        }
                    }
                }
            }
            Some(other) => errors
                .push(format!("{path}: curve must be an array of scaling points, got {other:?}")),
            None => errors.push(format!("{path}: missing required key \"curve\"")),
        }
        if let (Some(Val::Num(nodes)), Some(Val::Num(speedup)), Some(Val::Arr(points))) =
            (map.get("nodes"), map.get("speedup"), map.get("curve"))
        {
            let best = |parallel: bool| {
                points
                    .iter()
                    .filter(|p| {
                        p.get("nodes") == Some(&Val::Num(*nodes))
                            && p.get("parallel") == Some(&Val::Bool(parallel))
                    })
                    .filter_map(|p| match p.get("node_epochs_per_sec") {
                        Some(Val::Num(rate)) => Some(*rate),
                        _ => None,
                    })
                    .fold(0.0, f64::max)
            };
            let (parallel, serial) = (best(true), best(false));
            let want = if parallel > 0.0 && serial > 0.0 { parallel / serial } else { 1.0 };
            if (speedup - want).abs() > 0.01 {
                errors.push(format!(
                    "{path}: speedup {speedup} is not the {nodes}-node curve's \
                     parallel ÷ serial rate {want:.2}"
                ));
            }
        }
    } else if name.starts_with("BENCH_obs") {
        require_pos_num("loads_per_sec_obs_off", errors);
        require_pos_num("loads_per_sec_obs_on", errors);
        require_num("overhead_pct", errors);
        match map.get("within_budget") {
            Some(Val::Bool(true)) => {}
            Some(Val::Bool(false)) => {
                errors.push(format!("{path}: within_budget is false — obs overhead over budget"))
            }
            Some(other) => {
                errors.push(format!("{path}: within_budget must be a bool, got {other:?}"))
            }
            None => errors.push(format!("{path}: missing required key \"within_budget\"")),
        }
    } else if name.starts_with("BENCH_chaos") {
        require_pos_num("soak_scenarios_per_sec", errors);
        require_num("guardrail_overhead_pct", errors);
        match map.get("invariant_violations") {
            Some(Val::Num(v)) if *v == 0.0 => {}
            Some(Val::Num(v)) => errors
                .push(format!("{path}: invariant_violations must be 0, got {v} — chaos run red")),
            Some(other) => {
                errors.push(format!("{path}: invariant_violations must be a number, got {other:?}"))
            }
            None => errors.push(format!("{path}: missing required key \"invariant_violations\"")),
        }
        match map.get("within_budget") {
            Some(Val::Bool(true)) => {}
            Some(Val::Bool(false)) => errors
                .push(format!("{path}: within_budget is false — guardrail overhead over budget")),
            Some(other) => {
                errors.push(format!("{path}: within_budget must be a bool, got {other:?}"))
            }
            None => errors.push(format!("{path}: missing required key \"within_budget\"")),
        }
    } else if name.starts_with("BENCH_policy") {
        match map.get("deterministic") {
            Some(Val::Bool(true)) => {}
            Some(Val::Bool(false)) => {
                errors.push(format!("{path}: deterministic is false — RL training replay diverged"))
            }
            Some(other) => {
                errors.push(format!("{path}: deterministic must be a bool, got {other:?}"))
            }
            None => errors.push(format!("{path}: missing required key \"deterministic\"")),
        }
        match map.get("invariant_violations") {
            Some(Val::Num(v)) if *v == 0.0 => {}
            Some(Val::Num(v)) => errors.push(format!(
                "{path}: invariant_violations must be 0, got {v} — a policy broke chaos invariants"
            )),
            Some(other) => {
                errors.push(format!("{path}: invariant_violations must be a number, got {other:?}"))
            }
            None => errors.push(format!("{path}: missing required key \"invariant_violations\"")),
        }
        match map.get("frontier") {
            Some(Val::Arr(points)) if points.is_empty() => {
                errors.push(format!("{path}: frontier must not be empty"))
            }
            Some(Val::Arr(points)) => {
                for (i, point) in points.iter().enumerate() {
                    match point.get("policy") {
                        Some(Val::Str(s)) if !s.is_empty() => {}
                        Some(other) => errors.push(format!(
                            "{path}: frontier[{i}].policy must be a non-empty string, got {other:?}"
                        )),
                        None => errors
                            .push(format!("{path}: frontier[{i}] missing required key \"policy\"")),
                    }
                    for key in ["energy_j", "avg_freq_mhz"] {
                        match point.get(key) {
                            Some(Val::Num(v)) if *v > 0.0 => {}
                            Some(other) => errors.push(format!(
                                "{path}: frontier[{i}].{key} must be a positive number, got {other:?}"
                            )),
                            None => errors
                                .push(format!("{path}: frontier[{i}] missing required key {key:?}")),
                        }
                    }
                }
            }
            Some(other) => errors.push(format!(
                "{path}: frontier must be an array of per-policy points, got {other:?}"
            )),
            None => errors.push(format!("{path}: missing required key \"frontier\"")),
        }
    } else if name.starts_with("BENCH_traffic") {
        for key in ["throughput_rps", "p99_ms", "energy_j"] {
            require_pos_num(key, errors);
        }
        match map.get("deterministic") {
            Some(Val::Bool(true)) => {}
            Some(Val::Bool(false)) => {
                errors.push(format!("{path}: deterministic is false — emergency replay diverged"))
            }
            Some(other) => {
                errors.push(format!("{path}: deterministic must be a bool, got {other:?}"))
            }
            None => errors.push(format!("{path}: missing required key \"deterministic\"")),
        }
        match map.get("invariant_violations") {
            Some(Val::Num(v)) if *v == 0.0 => {}
            Some(Val::Num(v)) => errors.push(format!(
                "{path}: invariant_violations must be 0, got {v} — emergency broke invariants"
            )),
            Some(other) => {
                errors.push(format!("{path}: invariant_violations must be a number, got {other:?}"))
            }
            None => errors.push(format!("{path}: missing required key \"invariant_violations\"")),
        }
        match map.get("ladder") {
            Some(Val::Arr(points)) if points.is_empty() => {
                errors.push(format!("{path}: ladder must not be empty"))
            }
            Some(Val::Arr(points)) => {
                for (i, point) in points.iter().enumerate() {
                    for key in ["budget_w_per_node", "p99_ms"] {
                        match point.get(key) {
                            Some(Val::Num(v)) if *v > 0.0 => {}
                            Some(other) => errors.push(format!(
                                "{path}: ladder[{i}].{key} must be a positive number, got {other:?}"
                            )),
                            None => errors
                                .push(format!("{path}: ladder[{i}] missing required key {key:?}")),
                        }
                    }
                }
            }
            Some(other) => {
                errors.push(format!("{path}: ladder must be an array of cap rungs, got {other:?}"))
            }
            None => errors.push(format!("{path}: missing required key \"ladder\"")),
        }
        match map.get("frontier") {
            Some(Val::Arr(points)) if points.is_empty() => {
                errors.push(format!("{path}: frontier must not be empty"))
            }
            Some(Val::Arr(points)) => {
                for (i, point) in points.iter().enumerate() {
                    match point.get("policy") {
                        Some(Val::Str(s)) if !s.is_empty() => {}
                        Some(other) => errors.push(format!(
                            "{path}: frontier[{i}].policy must be a non-empty string, got {other:?}"
                        )),
                        None => errors
                            .push(format!("{path}: frontier[{i}] missing required key \"policy\"")),
                    }
                    match point.get("energy_j") {
                        Some(Val::Num(v)) if *v > 0.0 => {}
                        Some(other) => errors.push(format!(
                            "{path}: frontier[{i}].energy_j must be a positive number, got {other:?}"
                        )),
                        None => errors.push(format!(
                            "{path}: frontier[{i}] missing required key \"energy_j\""
                        )),
                    }
                    match point.get("slo_viol_per_kj") {
                        Some(Val::Num(_)) => {}
                        Some(other) => errors.push(format!(
                            "{path}: frontier[{i}].slo_viol_per_kj must be a number, got {other:?}"
                        )),
                        None => errors.push(format!(
                            "{path}: frontier[{i}] missing required key \"slo_viol_per_kj\""
                        )),
                    }
                }
                let has_slo = points
                    .iter()
                    .any(|p| matches!(p.get("policy"), Some(Val::Str(s)) if s == "slo"));
                if !has_slo {
                    errors.push(format!(
                        "{path}: frontier must include the \"slo\" (tail-aware) policy row"
                    ));
                }
            }
            Some(other) => errors.push(format!(
                "{path}: frontier must be an array of per-policy points, got {other:?}"
            )),
            None => errors.push(format!("{path}: missing required key \"frontier\"")),
        }
        match map.get("retry_storm") {
            Some(Val::Arr(points)) if points.is_empty() => {
                errors.push(format!("{path}: retry_storm must not be empty"))
            }
            Some(Val::Arr(points)) => {
                for (i, point) in points.iter().enumerate() {
                    match point.get("retries") {
                        Some(Val::Num(v)) if *v > 0.0 => {}
                        Some(other) => errors.push(format!(
                            "{path}: retry_storm[{i}].retries must be a positive number, got {other:?}"
                        )),
                        None => errors.push(format!(
                            "{path}: retry_storm[{i}] missing required key \"retries\""
                        )),
                    }
                    match point.get("failover") {
                        Some(Val::Num(_)) => {}
                        Some(other) => errors.push(format!(
                            "{path}: retry_storm[{i}].failover must be a number, got {other:?}"
                        )),
                        None => errors.push(format!(
                            "{path}: retry_storm[{i}] missing required key \"failover\""
                        )),
                    }
                }
            }
            Some(other) => errors.push(format!(
                "{path}: retry_storm must be an array of closed-loop points, got {other:?}"
            )),
            None => errors.push(format!("{path}: missing required key \"retry_storm\"")),
        }
        match map.get("backpressure") {
            Some(Val::Arr(points)) if points.is_empty() => {
                errors.push(format!("{path}: backpressure must not be empty"))
            }
            Some(Val::Arr(points)) => {
                for (i, point) in points.iter().enumerate() {
                    match point.get("mode") {
                        Some(Val::Str(s)) if !s.is_empty() => {}
                        Some(other) => errors.push(format!(
                            "{path}: backpressure[{i}].mode must be a non-empty string, got {other:?}"
                        )),
                        None => errors.push(format!(
                            "{path}: backpressure[{i}] missing required key \"mode\""
                        )),
                    }
                    match point.get("energy_j") {
                        Some(Val::Num(v)) if *v > 0.0 => {}
                        Some(other) => errors.push(format!(
                            "{path}: backpressure[{i}].energy_j must be a positive number, got {other:?}"
                        )),
                        None => errors.push(format!(
                            "{path}: backpressure[{i}] missing required key \"energy_j\""
                        )),
                    }
                    for key in ["slo_viol_per_kj", "rate_multiplier"] {
                        match point.get(key) {
                            Some(Val::Num(_)) => {}
                            Some(other) => errors.push(format!(
                                "{path}: backpressure[{i}].{key} must be a number, got {other:?}"
                            )),
                            None => errors.push(format!(
                                "{path}: backpressure[{i}] missing required key {key:?}"
                            )),
                        }
                    }
                }
                let has_stack = points
                    .iter()
                    .any(|p| matches!(p.get("mode"), Some(Val::Str(s)) if s == "aimd_brownout"));
                if !has_stack {
                    errors.push(format!(
                        "{path}: backpressure must include the \"aimd_brownout\" \
                         (robustness stack) row"
                    ));
                }
            }
            Some(other) => errors.push(format!(
                "{path}: backpressure must be an array of per-mode points, got {other:?}"
            )),
            None => errors.push(format!("{path}: missing required key \"backpressure\"")),
        }
    }
}

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: bench_check FILE...");
        std::process::exit(2);
    }
    let mut errors = Vec::new();
    for f in &files {
        check_file(f, &mut errors);
    }
    if errors.is_empty() {
        println!("bench_check: {} file(s) ok", files.len());
    } else {
        for e in &errors {
            eprintln!("bench_check: {e}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_our_bench_shapes() {
        let m = parse_flat_object(
            "{\n  \"a\": 1.5,\n  \"b\": true,\n  \"c\": \"full\",\n  \"d\": -3\n}\n",
        )
        .unwrap();
        assert_eq!(m.get("a"), Some(&Val::Num(1.5)));
        assert_eq!(m.get("b"), Some(&Val::Bool(true)));
        assert_eq!(m.get("c"), Some(&Val::Str("full".into())));
        assert_eq!(m.get("d"), Some(&Val::Num(-3.0)));
        assert!(parse_flat_object("{}").unwrap().is_empty());

        // The fleet scaling curve: an array of flat objects.
        let m = parse_flat_object(
            "{\"curve\": [{\"nodes\": 256, \"rate\": 1.5}, {\"nodes\": 1000, \"rate\": 2.0}], \
             \"after\": true}",
        )
        .unwrap();
        let Some(Val::Arr(points)) = m.get("curve") else { panic!("curve parses as array") };
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].get("nodes"), Some(&Val::Num(1000.0)));
        assert_eq!(m.get("after"), Some(&Val::Bool(true)));
        let m = parse_flat_object("{\"curve\": []}").unwrap();
        assert_eq!(m.get("curve"), Some(&Val::Arr(vec![])));
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_flat_object("").is_err());
        assert!(parse_flat_object("{\"a\": }").is_err());
        assert!(parse_flat_object("{\"a\": 1,}").is_err());
        assert!(parse_flat_object("{\"a\": 1} junk").is_err());
        assert!(parse_flat_object("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse_flat_object("{\"a\": [1, 2]}").is_err(), "arrays hold objects only");
        assert!(parse_flat_object("{\"a\": [{\"b\": [{}]}]}").is_err(), "no nested arrays");
        assert!(parse_flat_object("{\"a\": [{\"b\": 1}").is_err());
    }

    #[test]
    fn known_artifacts_need_their_keys() {
        let dir = std::env::temp_dir().join("capsim_bench_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let obs = dir.join("BENCH_obs.json");
        std::fs::write(&obs, "{\"loads_per_sec_obs_off\": 1}").unwrap();
        let mut errors = Vec::new();
        check_file(obs.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("within_budget")));

        let chaos = dir.join("BENCH_chaos.json");
        std::fs::write(
            &chaos,
            "{\"soak_scenarios_per_sec\": 2.5, \"guardrail_overhead_pct\": 0.4, \
             \"invariant_violations\": 1, \"within_budget\": true}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(chaos.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("invariant_violations")), "{errors:?}");

        let fleet = dir.join("BENCH_fleet.json");
        std::fs::write(
            &fleet,
            "{\"nodes\": 10000, \"speedup\": 1.0, \"deterministic\": true, \
             \"curve\": [{\"nodes\": 256, \"threads\": 1, \
             \"parallel\": false, \"node_epochs_per_sec\": 250.0, \
             \"heap_bytes_per_node\": 11000.5, \"heap_bytes_per_node_after_run\": 13000.0}, \
             {\"nodes\": 256, \"threads\": 2, \"parallel\": true, \
             \"node_epochs_per_sec\": 260.0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(fleet.to_str().unwrap(), &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        std::fs::write(
            &fleet,
            "{\"nodes\": 10000, \"speedup\": 1.0, \"deterministic\": true, \
             \"curve\": [{\"nodes\": 256, \"threads\": 0, \
             \"parallel\": false, \"node_epochs_per_sec\": 250.0, \
             \"heap_bytes_per_node\": 0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(fleet.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("curve[0].threads")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("curve[0].heap_bytes_per_node ")), "{errors:?}");
        assert!(
            errors
                .iter()
                .any(|e| e.contains("missing required key \"heap_bytes_per_node_after_run\"")),
            "{errors:?}"
        );
        std::fs::write(
            &fleet,
            "{\"nodes\": 10000, \"speedup\": 1.0, \"deterministic\": true, \
             \"curve\": [{\"nodes\": 256, \"threads\": 1, \
             \"node_epochs_per_sec\": 250.0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(fleet.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("curve[0].parallel")), "{errors:?}");
        // The speedup of a record whose parallel rate came from another
        // fleet size: 1598.1 (1k nodes) ÷ 760.5 (10k nodes) = 2.10, where
        // the 10k-node rows give 1548.4 ÷ 760.5 = 2.04.
        let mixed = "{\"nodes\": 10000, \"speedup\": 2.10, \"deterministic\": true, \
             \"curve\": [{\"nodes\": 10000, \"threads\": 1, \"parallel\": false, \
             \"node_epochs_per_sec\": 760.5, \"heap_bytes_per_node\": 11235.9, \
             \"heap_bytes_per_node_after_run\": 13275.4}, \
             {\"nodes\": 1000, \"threads\": 2, \"parallel\": true, \
             \"node_epochs_per_sec\": 1598.1}, \
             {\"nodes\": 10000, \"threads\": 2, \"parallel\": true, \
             \"node_epochs_per_sec\": 1548.4}]}";
        std::fs::write(&fleet, mixed).unwrap();
        let mut errors = Vec::new();
        check_file(fleet.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("speedup 2.1 ")), "{errors:?}");
        std::fs::write(&fleet, mixed.replace("2.10", "2.04")).unwrap();
        let mut errors = Vec::new();
        check_file(fleet.to_str().unwrap(), &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        std::fs::write(&fleet, "{\"nodes\": 1, \"speedup\": 1.0, \"deterministic\": false}")
            .unwrap();
        let mut errors = Vec::new();
        check_file(fleet.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("deterministic is false")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("curve")), "{errors:?}");

        let policy = dir.join("BENCH_policy.json");
        std::fs::write(
            &policy,
            "{\"deterministic\": true, \"invariant_violations\": 0, \
             \"frontier\": [{\"policy\": \"ladder\", \"energy_j\": 1.5, \
             \"avg_freq_mhz\": 2000.0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(policy.to_str().unwrap(), &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        std::fs::write(
            &policy,
            "{\"deterministic\": false, \"invariant_violations\": 2, \
             \"frontier\": [{\"policy\": \"rl\", \"energy_j\": -1, \"avg_freq_mhz\": 2000.0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(policy.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("deterministic is false")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("invariant_violations")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("frontier[0].energy_j")), "{errors:?}");
        std::fs::write(&policy, "{\"deterministic\": true, \"invariant_violations\": 0}").unwrap();
        let mut errors = Vec::new();
        check_file(policy.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("frontier")), "{errors:?}");

        let traffic = dir.join("BENCH_traffic.json");
        std::fs::write(
            &traffic,
            "{\"throughput_rps\": 5e6, \"p99_ms\": 1.87, \"energy_j\": 17.5, \
             \"deterministic\": true, \"invariant_violations\": 0, \
             \"ladder\": [{\"budget_w_per_node\": 118, \"p99_ms\": 1.88}], \
             \"frontier\": [{\"policy\": \"governor\", \"energy_j\": 5.8, \
             \"slo_viol_per_kj\": 161285.0}, {\"policy\": \"slo\", \"energy_j\": 5.7, \
             \"slo_viol_per_kj\": 150001.0}], \
             \"retry_storm\": [{\"retries\": 120, \"failover\": 43}], \
             \"backpressure\": [{\"mode\": \"retry_only\", \"energy_j\": 5.8, \
             \"slo_viol_per_kj\": 161285.0, \"rate_multiplier\": 1.0}, \
             {\"mode\": \"aimd_brownout\", \"energy_j\": 5.5, \
             \"slo_viol_per_kj\": 98000.0, \"rate_multiplier\": 0.25}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(traffic.to_str().unwrap(), &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        std::fs::write(
            &traffic,
            "{\"throughput_rps\": 5e6, \"p99_ms\": 1.87, \"energy_j\": 17.5, \
             \"deterministic\": false, \"invariant_violations\": 3, \
             \"ladder\": [], \
             \"frontier\": [{\"policy\": \"\", \"energy_j\": 5.8}], \
             \"retry_storm\": [{\"retries\": 0}], \
             \"backpressure\": [{\"mode\": \"retry_only\", \"energy_j\": -2, \
             \"slo_viol_per_kj\": 161285.0}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(traffic.to_str().unwrap(), &mut errors);
        assert!(errors.iter().any(|e| e.contains("deterministic is false")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("invariant_violations")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("ladder must not be empty")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("frontier[0].policy")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("slo_viol_per_kj")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("must include the \"slo\"")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("retry_storm[0].retries")), "{errors:?}");
        assert!(
            errors.iter().any(|e| e.contains("retry_storm[0]") && e.contains("failover")),
            "{errors:?}"
        );
        assert!(errors.iter().any(|e| e.contains("backpressure[0].energy_j")), "{errors:?}");
        assert!(
            errors.iter().any(|e| e.contains("backpressure[0]") && e.contains("rate_multiplier")),
            "{errors:?}"
        );
        assert!(
            errors.iter().any(|e| e.contains("must include the \"aimd_brownout\"")),
            "{errors:?}"
        );
        std::fs::write(
            &traffic,
            "{\"throughput_rps\": 5e6, \"p99_ms\": 1.87, \"energy_j\": 17.5, \
             \"deterministic\": true, \"invariant_violations\": 0, \
             \"ladder\": [{\"budget_w_per_node\": 118, \"p99_ms\": 1.88}], \
             \"frontier\": [{\"policy\": \"slo\", \"energy_j\": 5.7, \
             \"slo_viol_per_kj\": 150001.0}], \
             \"retry_storm\": [{\"retries\": 120, \"failover\": 43}]}",
        )
        .unwrap();
        let mut errors = Vec::new();
        check_file(traffic.to_str().unwrap(), &mut errors);
        assert!(
            errors.iter().any(|e| e.contains("missing required key \"backpressure\"")),
            "{errors:?}"
        );

        let unknown = dir.join("BENCH_custom.json");
        std::fs::write(&unknown, "{\"anything\": 1}").unwrap();
        let mut errors = Vec::new();
        check_file(unknown.to_str().unwrap(), &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
    }
}
