//! The CI perf gate.
//!
//! `bench_smoke` (see `src/bin/bench_smoke.rs`) replays the seeded
//! serving scenario sweep, renders it in the checked-in baseline's form
//! (`serving_smoke::render_baseline_json`, one scenario row per line),
//! and hands both texts to [`gate`]. Every gated number is priced by the
//! paper's cost and device models and is seed-deterministic, and the
//! renderer prints each number in its shortest round-trip form, so the
//! gate compares bytes: a one-ulp `p99_secs` drift, one extra drop in a
//! `tenant_drops` entry, a renamed member and a reordered row all fail,
//! and each mismatch line names its scenario.
//!
//! Any mismatch means the models or the sweep changed and the baseline
//! needs a refresh in the same change. The gate holds no host-timed
//! member: the simulator's speed is judged by the repository benchmark
//! (`perfbench/`), from repeated long runs.
//!
//! The module also holds the dependency-free JSON reader ([`parse`])
//! that checks the Perfetto trace before `bench_smoke` writes it.
//!
//! The documents involved — the per-run report (`agnn-serve-report/v7`),
//! the sweep artifact (`agnn-bench-serving/v9`) and the checked-in
//! baseline (`agnn-bench-serving-baseline/v8`) — are specified
//! field-by-field, with the refresh rules, in `docs/SCHEMAS.md`.

use std::collections::BTreeMap;

/// A parsed JSON value. Objects keep insertion order irrelevant — lookups
/// go through a sorted map.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`, ample for gate metrics).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", char::from(byte), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected '{word}' at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("malformed number '{text}' at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole unescaped run in one go. Byte-wise
                // scanning is UTF-8-safe ('"' and '\\' never appear in
                // continuation bytes), and pushing the run as a chunk
                // keeps parsing O(n) — per-char `from_utf8` on the tail
                // made string-heavy documents (the Perfetto trace is
                // megabytes of short strings) quadratic.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Gates the `run` document against `baseline`, both in the baseline form
/// (one scenario row per line), byte for byte (see the
/// [module docs](self)). Returns nothing when the bytes are equal;
/// otherwise each baseline-only line as `- …` and each run-only line as
/// `+ …`, or, when both hold the same lines in a different order or
/// count, one line saying so.
pub fn gate(baseline: &str, run: &str) -> Vec<String> {
    if baseline == run {
        return Vec::new();
    }
    let (base, run): (Vec<&str>, Vec<&str>) =
        (baseline.split('\n').collect(), run.split('\n').collect());
    let mut out: Vec<String> = base
        .iter()
        .filter(|line| !run.contains(line))
        .map(|line| format!("- {line}"))
        .collect();
    out.extend(
        run.iter()
            .filter(|line| !base.contains(line))
            .map(|line| format!("+ {line}")),
    );
    if out.is_empty() {
        let first = base.iter().zip(&run).position(|(b, r)| b != r);
        let line = first.unwrap_or(base.len().min(run.len())) + 1;
        out.push(format!(
            "the run holds the baseline's lines in a different order or count \
             (first difference at line {line})"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc =
            parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\nyA", "d": null}, "e": true}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2],
            Json::Num(-300.0)
        );
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\nyA")
        );
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parse_round_trips_a_serve_report() {
        use agnn_graph::datasets::Dataset;
        use agnn_serve::sim::{simulate, ServeConfig};
        use agnn_serve::tenant::TenantSpec;
        let report = simulate(
            vec![TenantSpec::new("feed", Dataset::Movie, 5.0)],
            ServeConfig {
                seed: 1,
                total_requests: 100,
                boards: 2,
                ..ServeConfig::default()
            },
        );
        let doc = parse(&report.to_json()).expect("report JSON parses");
        assert_eq!(
            doc.get("completed"),
            Some(&Json::Num(report.completed() as f64))
        );
        assert_eq!(
            doc.get("boards").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
    }

    /// The sweep in the baseline form, one scenario row per line: the
    /// document the gate meets in CI. It gates clean against itself.
    fn sweep_baseline() -> String {
        let text = crate::serving_smoke::render_baseline_json(&crate::serving_smoke::run_sweep());
        assert_eq!(gate(&text, &text), Vec::<String>::new());
        text
    }

    /// The scenario named on `line`.
    fn scenario(line: &str) -> &str {
        let at = line.find("\"name\":\"").expect("a scenario row") + 8;
        line[at..].split('"').next().unwrap()
    }

    /// `text` with its lines edited (line `i + 1` holds row `i`; the
    /// trailing newline survives).
    fn edit_lines(text: &str, edit: impl FnOnce(&mut Vec<String>)) -> String {
        let mut lines: Vec<String> = text.split('\n').map(String::from).collect();
        edit(&mut lines);
        lines.join("\n")
    }

    /// `text` with a `step`-unit (integers) or `step`-ulp (floats) nudge
    /// to the first value of `key`, and the line that value sits on
    /// before and after the nudge.
    fn nudge(text: &str, key: &str, step: i64) -> (String, String, String) {
        let tag = format!("\"{key}\":");
        let i = text.split('\n').position(|l| l.contains(&tag)).expect(key);
        let old = text.split('\n').nth(i).unwrap().to_string();
        let at = old.find(&tag).unwrap() + tag.len();
        let len = old[at..]
            .find(|c: char| !matches!(c, '0'..='9' | '.' | 'e' | 'E' | '-' | '+'))
            .unwrap();
        let value = &old[at..at + len];
        let nudged = if value.contains(['.', 'e', 'E']) {
            let bits = value.parse::<f64>().unwrap().to_bits();
            f64::from_bits(bits.checked_add_signed(step).unwrap()).to_string()
        } else {
            let units = value.parse::<u64>().unwrap();
            units.checked_add_signed(step).unwrap().to_string()
        };
        let new = format!("{}{nudged}{}", &old[..at], &old[at + len..]);
        let run = edit_lines(text, |l| l[i].clone_from(&new));
        (run, old, new)
    }

    /// Asserts a `step` nudge of each of `keys` fails with exactly the old
    /// and the new line, which name the nudged scenario.
    fn assert_nudges_fail(text: &str, keys: &[&str], step: i64) {
        for key in keys {
            let (run, old, new) = nudge(text, key, step);
            assert_eq!(gate(text, &run), [format!("- {old}"), format!("+ {new}")]);
            assert_eq!(scenario(&old), scenario(&new), "{key}");
        }
    }

    #[test]
    fn gate_fails_one_ulp_beyond_the_baseline() {
        // Every member is exact: one ulp beyond fails.
        assert_nudges_fail(&sweep_baseline(), &["p99_secs"], 1);
    }

    #[test]
    fn gate_fails_on_missing_scenarios_and_notes_improvements() {
        let text = sweep_baseline();
        let missing = text.split('\n').nth(4).unwrap().to_string();
        let run = edit_lines(&text, |l| drop(l.remove(4)));
        assert_eq!(gate(&text, &run), [format!("- {missing}")]);
        // An improvement is a mismatch too, named so the refreshed baseline
        // records it rather than letting the numbers drift silently.
        assert_nudges_fail(&text, &["p99_secs"], -1);
    }

    #[test]
    fn gate_fails_on_scenarios_absent_from_the_baseline() {
        let text = sweep_baseline();
        let mut extra = String::new();
        let run = edit_lines(&text, |l| {
            extra = l[1].replacen(scenario(&l[1]), "extra", 1);
            l.insert(2, extra.clone());
        });
        assert_eq!(gate(&text, &run), [format!("+ {extra}")]);
        assert_eq!(scenario(&extra), "extra");
    }

    #[test]
    fn gate_fails_when_reconfigurations_regress() {
        assert_nudges_fail(&sweep_baseline(), &["reconfigs"], 1);
    }

    #[test]
    fn gate_fails_when_host_upload_bytes_regress() {
        assert_nudges_fail(&sweep_baseline(), &["host_upload_bytes"], 1);
    }

    #[test]
    fn gate_fails_when_the_victim_tail_regresses() {
        assert_nudges_fail(&sweep_baseline(), &["victim_p99_secs"], 1);
    }

    #[test]
    fn gate_fails_when_a_tenant_starts_dropping() {
        assert_nudges_fail(&sweep_baseline(), &["victim-feed"], 1);
    }

    #[test]
    fn gate_fails_when_the_goodput_tail_regresses() {
        assert_nudges_fail(&sweep_baseline(), &["victim_goodput_p99_secs"], 1);
    }

    #[test]
    fn gate_fails_when_the_waste_ledger_regresses() {
        assert_nudges_fail(&sweep_baseline(), &["wasted_work_bytes", "wasted_secs"], 1);
    }

    #[test]
    fn cache_gates_are_inverted_floors() {
        // The cache members are higher-is-better. A one-ulp drop fails, as
        // under an inverted floor; being exact, the gate fails a rise too.
        let text = sweep_baseline();
        for step in [-1, 1] {
            assert_nudges_fail(&text, &["hit_rate", "recompute_secs_saved"], step);
        }
    }

    #[test]
    fn exact_gate_names_every_mismatch() {
        // The row-set and row-shape problems the per-member tests above do
        // not cover: a reordered row and a duplicated row (the same lines
        // in a different order or count), and a renamed member.
        let text = sweep_baseline();
        for (run, line) in [
            (edit_lines(&text, |l| l.swap(2, 3)), 3),
            (edit_lines(&text, |l| l.insert(5, l[5].clone())), 7),
        ] {
            assert_eq!(
                gate(&text, &run),
                [format!(
                    "the run holds the baseline's lines in a different order or count \
                     (first difference at line {line})"
                )]
            );
        }
        let old = text.split('\n').nth(1).unwrap().to_string();
        let new = old.replacen("\"reconfigs\"", "\"reconfigs_v2\"", 1);
        let run = edit_lines(&text, |l| l[1].clone_from(&new));
        assert_eq!(gate(&text, &run), [format!("- {old}"), format!("+ {new}")]);
        assert_eq!(scenario(&old), scenario(&new));
    }

    #[test]
    fn gate_names_a_v7_baseline_with_the_speed_member() {
        // A baseline written before the gate went exact carries the old
        // schema tag and the host-timed `sim_events_per_sec` on its rows:
        // every such line is named, so it cannot pass against a current run.
        let run = sweep_baseline();
        let rows = run.lines().count() - 2;
        let old = edit_lines(&run, |l| {
            l[0] = l[0].replacen("baseline/v8", "baseline/v7", 1);
            for line in &mut l[1..=rows] {
                let end = line.rfind('}').unwrap();
                line.insert_str(end, ",\"sim_events_per_sec\":6282663.3");
            }
        });
        let mismatches = gate(&old, &run);
        assert_eq!(mismatches.len(), 2 * (rows + 1));
        let removed: Vec<&String> = mismatches.iter().filter(|m| m.starts_with("- ")).collect();
        assert!(removed[0].contains("baseline/v7"), "{removed:?}");
        for (i, line) in run.split('\n').skip(1).take(rows).enumerate() {
            assert!(removed[i + 1].contains("sim_events_per_sec"));
            assert_eq!(scenario(removed[i + 1]), scenario(line));
            assert!(mismatches.contains(&format!("+ {line}")));
        }
    }

    #[test]
    fn gate_rejects_documents_without_the_schema() {
        // Anything but the baseline's bytes fails, every baseline line
        // named as missing.
        let text = sweep_baseline();
        for run in ["null", r#"{"scenarios": [{"p99_secs": 1.0}]}"#] {
            let mismatches = gate(&text, run);
            let removed = mismatches.iter().filter(|m| m.starts_with("- ")).count();
            assert_eq!(removed, text.split('\n').count(), "{mismatches:?}");
            assert_eq!(mismatches.last(), Some(&format!("+ {run}")));
        }
    }
}
