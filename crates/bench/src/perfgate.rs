//! The CI perf gate.
//!
//! `bench_smoke` (see `src/bin/bench_smoke.rs`) replays the seeded
//! serving scenario sweep, renders it in the checked-in baseline's form
//! (`serving_smoke::render_baseline_json`), and hands both documents,
//! parsed by this module's dependency-free JSON reader, to [`gate`].
//! Every gated number is priced by the paper's cost and device models
//! and is seed-deterministic, so the gate is exact:
//!
//! - the top-level members other than `scenarios` (schema tag, seed)
//!   are equal;
//! - both documents list the same scenario names, in the same order,
//!   with no duplicates;
//! - every row member is equal as a [`Json`] value, nested objects
//!   compared member by member — a one-ulp `p99_secs` drift, one extra
//!   drop in a `tenant_drops` entry and a member present on one side
//!   only all fail.
//!
//! Any mismatch means the models or the sweep changed and the baseline
//! needs a refresh in the same change. The gate holds no host-timed
//! member: the simulator's speed is judged by the repository benchmark
//! (`perfbench/`), from repeated long runs.
//!
//! The documents involved — the per-run report (`agnn-serve-report/v7`),
//! the sweep artifact (`agnn-bench-serving/v9`) and the checked-in
//! baseline (`agnn-bench-serving-baseline/v8`) — are specified
//! field-by-field, with the refresh rules, in `docs/SCHEMAS.md`.

use std::collections::BTreeMap;

/// A parsed JSON value. Objects keep insertion order irrelevant — lookups
/// go through a sorted map, which is all the gate needs.
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

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
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

/// One `scenarios` row of a gate document: its name and its members.
type Row<'a> = (&'a str, &'a BTreeMap<String, Json>);

/// The `scenarios` rows of a gate document, in document order.
fn rows(doc: &Json) -> Result<Vec<Row<'_>>, String> {
    doc.get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("document has no 'scenarios' array")?
        .iter()
        .map(|row| {
            let members = row.as_obj().ok_or("scenario row is not an object")?;
            let name = members
                .get("name")
                .and_then(Json::as_str)
                .ok_or("scenario row missing 'name'")?;
            Ok((name, members))
        })
        .collect()
}

/// The first row of each name.
fn by_name<'a>(rows: &[Row<'a>]) -> BTreeMap<&'a str, &'a BTreeMap<String, Json>> {
    let mut map = BTreeMap::new();
    for (name, row) in rows {
        map.entry(*name).or_insert(*row);
    }
    map
}

/// The keys of `base`, then the keys only `run` has.
fn union<'a>(
    base: &'a BTreeMap<String, Json>,
    run: &'a BTreeMap<String, Json>,
) -> impl Iterator<Item = &'a String> {
    base.keys()
        .chain(run.keys().filter(|key| !base.contains_key(*key)))
}

/// Pushes one message per difference between the values at `path`,
/// descending into objects so a message names the deepest member that
/// differs.
fn diff(path: &str, base: Option<&Json>, run: Option<&Json>, out: &mut Vec<String>) {
    match (base, run) {
        (Some(Json::Obj(b)), Some(Json::Obj(r))) => {
            for key in union(b, r) {
                diff(&format!("{path}.{key}"), b.get(key), r.get(key), out);
            }
        }
        (Some(b), Some(r)) if b != r => {
            // Numbers print in the renderers' shortest round-trip form.
            let show = |v: &Json| v.as_f64().map_or(format!("{v:?}"), |x| x.to_string());
            out.push(format!("{path}: run {}, baseline {}", show(r), show(b)));
        }
        (Some(_), None) => out.push(format!("{path}: in the baseline only")),
        (None, Some(_)) => out.push(format!("{path}: in the run only")),
        _ => {}
    }
}

/// Gates the `run` document against `baseline`, both in the baseline
/// form, exactly (see the [module docs](self)). Returns one message per
/// mismatch, each naming the scenario and member (or the row-set
/// problem); the run passes when the list is empty.
///
/// # Errors
///
/// Returns an error when either document lacks the gate schema (an
/// object with a `scenarios` array of named rows).
pub fn gate(baseline: &Json, run: &Json) -> Result<Vec<String>, String> {
    let (Some(base_doc), Some(run_doc)) = (baseline.as_obj(), run.as_obj()) else {
        return Err("gate documents must be JSON objects".to_string());
    };
    let (base_rows, run_rows) = (rows(baseline)?, rows(run)?);
    let mut out = Vec::new();
    for key in union(base_doc, run_doc).filter(|key| *key != "scenarios") {
        diff(key, base_doc.get(key), run_doc.get(key), &mut out);
    }

    // The row set: the same names, in the same order, no duplicates.
    let (base_map, run_map) = (by_name(&base_rows), by_name(&run_rows));
    for (side, rows) in [("baseline", &base_rows), ("run", &run_rows)] {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in rows.iter().filter(|(name, _)| !seen.insert(*name)) {
            out.push(format!(
                "scenario '{name}' appears more than once in the {side}"
            ));
        }
    }
    for (name, _) in &base_rows {
        if !run_map.contains_key(name) {
            out.push(format!("scenario '{name}' is missing from the run"));
        }
    }
    for (name, _) in &run_rows {
        if !base_map.contains_key(name) {
            out.push(format!(
                "scenario '{name}' is not in the baseline — refresh it with --write-baseline"
            ));
        }
    }
    let base_order = base_rows
        .iter()
        .filter(|(name, _)| run_map.contains_key(name));
    let run_order = run_rows
        .iter()
        .filter(|(name, _)| base_map.contains_key(name));
    if let Some(((b, _), (r, _))) = base_order.zip(run_order).find(|((b, _), (r, _))| b != r) {
        out.push(format!(
            "scenario order differs: the run lists '{r}' where the baseline lists '{b}'"
        ));
    }

    // The members of every row both sides carry, in baseline order.
    for (name, base_row) in &base_rows {
        let Some(run_row) = run_map.get(name) else {
            continue;
        };
        for key in union(base_row, run_row) {
            diff(
                &format!("'{name}' {key}"),
                base_row.get(key),
                run_row.get(key),
                &mut out,
            );
        }
    }
    Ok(out)
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
            ServeConfig::builder()
                .seed(1)
                .total_requests(100)
                .boards(2)
                .build()
                .expect("test config is valid"),
        );
        let doc = parse(&report.to_json()).expect("report JSON parses");
        assert_eq!(
            doc.get("completed").and_then(Json::as_f64),
            Some(report.completed() as f64)
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
    /// document shape the gate meets in CI.
    fn sweep_baseline() -> (String, Json) {
        let text = crate::serving_smoke::render_baseline_json(&crate::serving_smoke::run_sweep());
        let doc = parse(&text).unwrap();
        let clean = gate(&doc, &doc).unwrap();
        assert!(clean.is_empty(), "{clean:?}");
        (text, doc)
    }

    /// The name of row `i` of `doc`.
    fn row_name(doc: &Json, i: usize) -> String {
        rows(doc).unwrap()[i].0.to_string()
    }

    /// `text` with the first value of `key` replaced by `f(old value)`, and
    /// the name of the row that value sits in.
    fn replace_first(text: &str, key: &str, f: impl Fn(&str) -> String) -> (Json, String) {
        let at = text.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
        let len = text[at..]
            .find(|c: char| !matches!(c, '0'..='9' | '.' | 'e' | 'E' | '-' | '+'))
            .unwrap();
        let row_at = text[..at].rfind("\"name\":\"").unwrap() + 8;
        let row = text[row_at..].split('"').next().unwrap().to_string();
        let edited = format!(
            "{}{}{}",
            &text[..at],
            f(&text[at..at + len]),
            &text[at + len..]
        );
        (parse(&edited).unwrap(), row)
    }

    /// A `step`-unit (integers) or `step`-ulp (floats) nudge to the first
    /// value of `key`, and the message prefix expected to name it.
    fn nudge(text: &str, key: &str, member: &str, step: i64) -> (Json, String) {
        let (run, row) = replace_first(text, key, |old| {
            if old.contains(['.', 'e', 'E']) {
                let bits = old.parse::<f64>().unwrap().to_bits();
                f64::from_bits(bits.checked_add_signed(step).unwrap()).to_string()
            } else {
                (old.parse::<u64>()
                    .unwrap()
                    .checked_add_signed(step)
                    .unwrap())
                .to_string()
            }
        });
        (run, format!("'{row}' {member}:"))
    }

    /// `text` with its lines edited (line `i + 1` holds row `i`).
    fn edit_lines(text: &str, edit: impl FnOnce(&mut Vec<String>)) -> Json {
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        edit(&mut lines);
        parse(&lines.join("\n")).unwrap()
    }

    /// Asserts the gate fails `run` and that each of `expected` is part of
    /// some mismatch message.
    fn assert_named(baseline: &Json, run: &Json, expected: &[String]) {
        let mismatches = gate(baseline, run).unwrap();
        assert!(!mismatches.is_empty(), "the gate passed");
        for e in expected {
            assert!(
                mismatches.iter().any(|m| m.contains(e.as_str())),
                "{e:?} not named in {mismatches:?}"
            );
        }
    }

    /// Asserts a one-unit or one-ulp rise of each `(key, member)` fails and
    /// is named with its row.
    fn assert_rises_fail(members: &[(&str, &str)]) {
        let (text, baseline) = sweep_baseline();
        for (key, member) in members {
            let (run, expected) = nudge(&text, key, member, 1);
            assert_named(&baseline, &run, &[expected]);
        }
    }

    #[test]
    fn gate_fails_one_ulp_beyond_the_baseline() {
        // Every member is exact: one ulp beyond fails.
        let (text, baseline) = sweep_baseline();
        let (run, expected) = nudge(&text, "p99_secs", "p99_secs", 1);
        assert_named(&baseline, &run, &[expected]);
    }

    #[test]
    fn gate_fails_on_missing_scenarios_and_notes_improvements() {
        let (text, baseline) = sweep_baseline();
        let run = edit_lines(&text, |l| drop(l.remove(4)));
        let missing = format!("'{}' is missing from the run", row_name(&baseline, 3));
        assert_named(&baseline, &run, &[missing]);
        // An improvement is a mismatch too, named so the refreshed baseline
        // records it rather than letting the numbers drift silently.
        let (run, expected) = nudge(&text, "p99_secs", "p99_secs", -1);
        assert_named(&baseline, &run, &[expected]);
    }

    #[test]
    fn gate_fails_on_scenarios_absent_from_the_baseline() {
        let (text, baseline) = sweep_baseline();
        let first = row_name(&baseline, 0);
        let run = edit_lines(&text, |l| l.insert(2, l[1].replacen(&first, "extra", 1)));
        assert_named(
            &baseline,
            &run,
            &["'extra' is not in the baseline".to_string()],
        );
    }

    #[test]
    fn gate_fails_when_reconfigurations_regress() {
        assert_rises_fail(&[("reconfigs", "reconfigs")]);
    }

    #[test]
    fn gate_fails_when_host_upload_bytes_regress() {
        assert_rises_fail(&[("host_upload_bytes", "host_upload_bytes")]);
    }

    #[test]
    fn gate_fails_when_the_victim_tail_regresses() {
        assert_rises_fail(&[("victim_p99_secs", "victim_p99_secs")]);
    }

    #[test]
    fn gate_fails_when_a_tenant_starts_dropping() {
        assert_rises_fail(&[("victim-feed", "tenant_drops.victim-feed")]);
    }

    #[test]
    fn gate_fails_when_the_goodput_tail_regresses() {
        assert_rises_fail(&[("victim_goodput_p99_secs", "victim_goodput_p99_secs")]);
    }

    #[test]
    fn gate_fails_when_the_waste_ledger_regresses() {
        assert_rises_fail(&[
            ("wasted_work_bytes", "wasted_work_bytes"),
            ("wasted_secs", "wasted_secs"),
        ]);
    }

    #[test]
    fn cache_gates_are_inverted_floors() {
        // The cache members are higher-is-better. A one-ulp drop fails, as
        // under an inverted floor; being exact, the gate fails a rise too.
        let (text, baseline) = sweep_baseline();
        for key in ["hit_rate", "recompute_secs_saved"] {
            for step in [-1, 1] {
                let (run, expected) = nudge(&text, key, key, step);
                assert_named(&baseline, &run, &[expected]);
            }
        }
    }

    #[test]
    fn exact_gate_names_every_mismatch() {
        // The row-set and row-shape problems the per-member tests above do
        // not cover: a reordered row, a duplicated row, and a member on one
        // side only.
        let (text, baseline) = sweep_baseline();
        let name = |i: usize| row_name(&baseline, i);
        let cases = [
            (
                edit_lines(&text, |l| l.swap(2, 3)),
                vec![format!(
                    "the run lists '{}' where the baseline lists '{}'",
                    name(2),
                    name(1)
                )],
            ),
            (
                edit_lines(&text, |l| l.insert(5, l[5].clone())),
                vec![format!("'{}' appears more than once in the run", name(4))],
            ),
            (
                edit_lines(&text, |l| {
                    l[1] = l[1].replacen("\"reconfigs\"", "\"reconfigs_v2\"", 1);
                }),
                vec![
                    format!("'{}' reconfigs: in the baseline only", name(0)),
                    format!("'{}' reconfigs_v2: in the run only", name(0)),
                ],
            ),
        ];
        for (run, expected) in cases {
            assert_named(&baseline, &run, &expected);
        }
    }

    #[test]
    fn gate_names_a_v7_baseline_with_the_speed_member() {
        // A baseline written before the gate went exact carries the old
        // schema tag and the host-timed `sim_events_per_sec` on its rows:
        // both are named, so it cannot pass against a current run.
        let (text, run) = sweep_baseline();
        let rows = text.lines().count() - 2;
        let old = edit_lines(&text, |l| {
            l[0] = l[0].replacen("baseline/v8", "baseline/v7", 1);
            for line in &mut l[1..=rows] {
                let end = line.rfind('}').unwrap();
                line.insert_str(end, ",\"sim_events_per_sec\":6282663.3");
            }
        });
        let mut expected = vec!["schema: run".to_string()];
        expected.extend((0..rows).map(|i| {
            format!(
                "'{}' sim_events_per_sec: in the baseline only",
                row_name(&run, i)
            )
        }));
        assert_named(&old, &run, &expected);
    }

    #[test]
    fn gate_rejects_documents_without_the_schema() {
        assert!(gate(&Json::Null, &Json::Null).is_err());
        let nameless = parse(r#"{"scenarios": [{"p99_secs": 1.0}]}"#).unwrap();
        assert!(gate(&nameless, &nameless).is_err());
    }
}
