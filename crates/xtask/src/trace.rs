//! `xtask trace-check` — validates an ndjson trace exported by
//! `maly-obs` (`MALY_OBS_OUT` / the CLI's `--trace-out`).
//!
//! The checks mirror what a trace consumer relies on:
//!
//! * every non-empty line is a braced JSON object with a known
//!   `"type"` (`span`, `counter`, `gauge`, `hist`, `stats`) and the
//!   fields that type promises;
//! * span ids are unique and positive, every `parent` reference names a
//!   span present in the file, and a child's `[start_ns, end_ns]`
//!   interval nests inside its parent's (the exporter writes spans at
//!   guard drop, so a well-formed program cannot violate this);
//! * the counter, gauge, and histogram sections are each sorted by
//!   name, and a `stats` record's metric maps have sorted keys — the
//!   shape the exporter and the `server_stats` query both promise;
//! * at least one span is present — a spanless "trace" means the
//!   producer never enabled collection, which is the usual wiring bug
//!   this command exists to catch.
//!
//! Like `bench-check`, the parser is deliberately narrow: it reads the
//! line-per-record JSON `maly-obs` writes, not arbitrary JSON.

use std::collections::HashMap;
use std::fmt::Write as _;

/// What one trace file contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Number of span records.
    pub spans: usize,
    /// Number of counter records.
    pub counters: usize,
    /// Number of gauge records.
    pub gauges: usize,
    /// Number of histogram records.
    pub hists: usize,
    /// Number of `stats` snapshot records (the `server_stats` response
    /// body retagged for the trace stream).
    pub stats: usize,
    /// Number of root spans (no parent).
    pub roots: usize,
}

impl TraceSummary {
    /// Renders the one-line human summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace-check: OK — {} span(s) ({} root(s)), {} counter(s), {} gauge(s), \
             {} histogram(s), {} stats record(s)",
            self.spans, self.roots, self.counters, self.gauges, self.hists, self.stats
        );
        out
    }
}

/// Extracts a string field; tolerates optional whitespace after the
/// colon (the obs exporter writes compact `"key":"value"` records).
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = line[start..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extracts a numeric field (`"key":123`), or `None` when missing or
/// explicitly `null`.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = line[start..].trim_start();
    if rest.starts_with("null") {
        return None;
    }
    let digits: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    digits.parse().ok()
}

/// Keys of the depth-1 JSON object named `section` on this line, in
/// source order; `None` when the section is absent or not an object.
fn object_keys(line: &str, section: &str) -> Option<Vec<String>> {
    let tag = format!("\"{section}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = line[start..].trim_start().strip_prefix('{')?;
    let mut keys = Vec::new();
    let mut depth = 1usize;
    let mut chars = rest.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
            }
            '{' | '[' => depth += 1,
            '"' => {
                let mut s = String::new();
                let mut escaped = false;
                for c2 in chars.by_ref() {
                    if escaped {
                        s.push(c2);
                        escaped = false;
                    } else if c2 == '\\' {
                        escaped = true;
                    } else if c2 == '"' {
                        break;
                    } else {
                        s.push(c2);
                    }
                }
                // A depth-1 string immediately followed by ':' is a key
                // (value strings are followed by ',' or '}').
                if depth == 1 {
                    let mut ahead = chars.clone();
                    let is_key = loop {
                        match ahead.next() {
                            Some(' ') => continue,
                            Some(':') => break true,
                            _ => break false,
                        }
                    };
                    if is_key {
                        keys.push(s);
                    }
                }
            }
            _ => {}
        }
    }
    Some(keys)
}

/// Errors when a metric section's records are not sorted by name; the
/// exporter writes each section name-sorted, so an unsorted section
/// means a hand-edited or corrupted trace.
fn check_section_order(
    line: &str,
    n: usize,
    section: &str,
    last: &mut Option<String>,
) -> Result<(), String> {
    let name = str_field(line, "name").unwrap_or_default().to_string();
    if let Some(prev) = last {
        if prev.as_str() > name.as_str() {
            return Err(format!(
                "line {n}: {section} records are not sorted by name (`{name}` follows `{prev}`)"
            ));
        }
    }
    *last = Some(name);
    Ok(())
}

/// Errors when the named sub-object's keys are present but unsorted.
fn check_sorted_keys(line: &str, n: usize, section: &str) -> Result<(), String> {
    let Some(keys) = object_keys(line, section) else {
        return Ok(());
    };
    for pair in keys.windows(2) {
        if pair[0] > pair[1] {
            return Err(format!(
                "line {n}: stats `{section}` keys are not sorted (`{}` follows `{}`)",
                pair[1], pair[0]
            ));
        }
    }
    Ok(())
}

#[derive(Debug, Clone, Copy)]
struct SpanLine {
    line: usize,
    parent: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// Validates a trace's text.
///
/// # Errors
///
/// Returns a message naming the first offending line (or structural
/// problem) when the trace is malformed.
pub fn check_trace(text: &str) -> Result<TraceSummary, String> {
    let mut spans: HashMap<u64, SpanLine> = HashMap::new();
    let mut summary = TraceSummary {
        spans: 0,
        counters: 0,
        gauges: 0,
        hists: 0,
        stats: 0,
        roots: 0,
    };
    // Per-section previous name, for the sorted-by-name shape check.
    let mut last_counter: Option<String> = None;
    let mut last_gauge: Option<String> = None;
    let mut last_hist: Option<String> = None;
    for (idx, line) in text.lines().enumerate() {
        let n = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        if !(line.starts_with('{') && line.ends_with('}')) {
            return Err(format!("line {n}: not a braced JSON object"));
        }
        match str_field(line, "type") {
            Some("span") => {
                let id = num_field(line, "id")
                    .ok_or_else(|| format!("line {n}: span without numeric `id`"))?;
                if id < 1.0 || id.fract() != 0.0 {
                    return Err(format!("line {n}: span id {id} is not a positive integer"));
                }
                let id = id as u64;
                if str_field(line, "name").is_none_or(str::is_empty) {
                    return Err(format!("line {n}: span without a `name`"));
                }
                let start_ns = num_field(line, "start_ns")
                    .ok_or_else(|| format!("line {n}: span without `start_ns`"))?
                    as u64;
                let end_ns = num_field(line, "end_ns")
                    .ok_or_else(|| format!("line {n}: span without `end_ns`"))?
                    as u64;
                if end_ns < start_ns {
                    return Err(format!("line {n}: span {id} ends before it starts"));
                }
                if !line.contains("\"parent\":") {
                    return Err(format!("line {n}: span without a `parent` field"));
                }
                let parent = num_field(line, "parent").map(|p| p as u64);
                if parent.is_none() {
                    summary.roots += 1;
                }
                let record = SpanLine {
                    line: n,
                    parent,
                    start_ns,
                    end_ns,
                };
                if spans.insert(id, record).is_some() {
                    return Err(format!("line {n}: duplicate span id {id}"));
                }
                summary.spans += 1;
            }
            Some("counter") => {
                if str_field(line, "name").is_none_or(str::is_empty)
                    || num_field(line, "value").is_none()
                    || !matches!(str_field(line, "kind"), Some("work" | "diag"))
                {
                    return Err(format!(
                        "line {n}: counter record needs `name`, numeric `value`, \
                         and `kind` of work|diag"
                    ));
                }
                check_section_order(line, n, "counter", &mut last_counter)?;
                summary.counters += 1;
            }
            Some("gauge") => {
                if str_field(line, "name").is_none_or(str::is_empty)
                    || num_field(line, "value").is_none()
                {
                    return Err(format!(
                        "line {n}: gauge record needs `name` and numeric `value`"
                    ));
                }
                check_section_order(line, n, "gauge", &mut last_gauge)?;
                summary.gauges += 1;
            }
            Some("hist") => {
                if str_field(line, "name").is_none_or(str::is_empty)
                    || num_field(line, "count").is_none()
                    || !line.contains("\"buckets\":[")
                {
                    return Err(format!(
                        "line {n}: hist record needs `name`, numeric `count`, and `buckets`"
                    ));
                }
                // Every histogram is quarter-octave, tagged `hires`.
                // Pre-gauge traces omit the tag and still validate.
                if let Some(res) = str_field(line, "resolution") {
                    if res != "hires" {
                        return Err(format!(
                            "line {n}: hist record has unknown resolution `{res}`"
                        ));
                    }
                }
                check_section_order(line, n, "hist", &mut last_hist)?;
                summary.hists += 1;
            }
            Some("stats") => {
                if !line.contains("\"work\":") {
                    return Err(format!("line {n}: stats record needs a `work` object"));
                }
                for section in ["work", "diag", "gauges", "latency"] {
                    check_sorted_keys(line, n, section)?;
                }
                summary.stats += 1;
            }
            Some(other) => return Err(format!("line {n}: unknown record type `{other}`")),
            None => return Err(format!("line {n}: record without a `type` field")),
        }
    }
    if summary.spans == 0 {
        return Err("trace holds no span records — was obs enabled in the producer?".to_string());
    }
    for (id, span) in &spans {
        let Some(parent_id) = span.parent else {
            continue;
        };
        let Some(parent) = spans.get(&parent_id) else {
            return Err(format!(
                "line {}: span {id} names parent {parent_id}, which is not in the trace",
                span.line
            ));
        };
        if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
            return Err(format!(
                "line {}: span {id} [{}, {}] does not nest inside parent {parent_id} [{}, {}]",
                span.line, span.start_ns, span.end_ns, parent.start_ns, parent.end_ns
            ));
        }
    }
    Ok(summary)
}

/// File-level entry point.
///
/// # Errors
///
/// Returns a message on unreadable files or malformed traces; the
/// caller turns the message into a non-zero exit.
pub fn run_trace_check(path: &str) -> Result<TraceSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    check_trace(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        "{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"par.chunk\",",
        "\"thread\":1,\"start_ns\":120,\"end_ns\":300}\n",
        "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"cli.sweep\",",
        "\"thread\":0,\"start_ns\":100,\"end_ns\":400}\n",
        "{\"type\":\"counter\",\"kind\":\"work\",\"name\":\"adaptive.mesh_evals\",\"value\":518}\n",
        "{\"type\":\"counter\",\"kind\":\"diag\",\"name\":\"serve.refused\",\"value\":0}\n",
        "{\"type\":\"gauge\",\"name\":\"serve.inflight\",\"value\":0}\n",
        "{\"type\":\"gauge\",\"name\":\"serve.queue_depth\",\"value\":-1}\n",
        "{\"type\":\"hist\",\"name\":\"par.chunk_ns\",\"resolution\":\"hires\",\"count\":1,",
        "\"total_ns\":180,\"buckets\":[0,0,1]}\n",
        "{\"type\":\"hist\",\"name\":\"serve.request_ns\",\"resolution\":\"hires\",\"count\":2,",
        "\"total_ns\":2400,\"buckets\":[0,0,2]}\n",
        "{\"type\":\"stats\",\"work\":{\"model.queries\":3,\"serve.request_lines\":3},",
        "\"diag\":{\"serve.refused\":0},",
        "\"gauges\":{\"serve.inflight\":0,\"serve.queue_depth\":0},",
        "\"latency\":{\"model.eval_ns\":{\"count\":3,\"p50_ns\":900.0},",
        "\"serve.request_ns\":{\"count\":3,\"p50_ns\":1200.0,\"p999_ns\":1530.0}}}\n",
    );

    #[test]
    fn good_trace_passes() {
        let summary = check_trace(GOOD).expect("valid trace");
        assert_eq!(
            summary,
            TraceSummary {
                spans: 2,
                counters: 2,
                gauges: 2,
                hists: 2,
                stats: 1,
                roots: 1
            }
        );
    }

    #[test]
    fn unparsable_line_fails() {
        let bad = format!("{GOOD}not json\n");
        assert!(check_trace(&bad).expect_err("fails").contains("line 10"));
    }

    #[test]
    fn dangling_parent_fails() {
        let bad = concat!(
            "{\"type\":\"span\",\"id\":7,\"parent\":99,\"name\":\"x\",",
            "\"thread\":0,\"start_ns\":0,\"end_ns\":1}\n",
        );
        assert!(check_trace(bad)
            .expect_err("fails")
            .contains("parent 99, which is not in the trace"));
    }

    #[test]
    fn non_nesting_child_fails() {
        let bad = concat!(
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"outer\",",
            "\"thread\":0,\"start_ns\":100,\"end_ns\":200}\n",
            "{\"type\":\"span\",\"id\":2,\"parent\":1,\"name\":\"inner\",",
            "\"thread\":0,\"start_ns\":150,\"end_ns\":250}\n",
        );
        assert!(check_trace(bad)
            .expect_err("fails")
            .contains("does not nest"));
    }

    #[test]
    fn duplicate_span_id_fails() {
        let bad = concat!(
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"a\",",
            "\"thread\":0,\"start_ns\":0,\"end_ns\":1}\n",
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"b\",",
            "\"thread\":0,\"start_ns\":0,\"end_ns\":1}\n",
        );
        assert!(check_trace(bad)
            .expect_err("fails")
            .contains("duplicate span id"));
    }

    #[test]
    fn spanless_trace_fails() {
        let bad = "{\"type\":\"counter\",\"kind\":\"work\",\"name\":\"n\",\"value\":1}\n";
        assert!(check_trace(bad)
            .expect_err("fails")
            .contains("no span records"));
    }

    #[test]
    fn unknown_type_fails() {
        let bad = format!("{GOOD}{{\"type\":\"mystery\"}}\n");
        assert!(check_trace(&bad)
            .expect_err("fails")
            .contains("unknown record type"));
    }

    /// Stale pre-gauge traces carry hist records without a
    /// `resolution` tag; they must keep validating.
    #[test]
    fn stale_hist_without_resolution_passes() {
        let stale = concat!(
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"cli.sweep\",",
            "\"thread\":0,\"start_ns\":0,\"end_ns\":9}\n",
            "{\"type\":\"hist\",\"name\":\"par.chunk_ns\",\"count\":1,\"total_ns\":180,",
            "\"buckets\":[0,0,1]}\n",
        );
        let summary = check_trace(stale).expect("stale trace still valid");
        assert_eq!(summary.hists, 1);
    }

    /// Every histogram is quarter-octave; a `log2` tag names the
    /// octave-per-bucket layout, whose bucket bounds no longer exist.
    #[test]
    fn unknown_hist_resolution_fails() {
        for res in ["base10", "log2"] {
            let bad = format!(
                "{GOOD}{{\"type\":\"hist\",\"name\":\"z.last_ns\",\"resolution\":\"{res}\",\
                 \"count\":1,\"total_ns\":1,\"buckets\":[1]}}\n"
            );
            assert!(check_trace(&bad)
                .expect_err("fails")
                .contains(&format!("unknown resolution `{res}`")));
        }
    }

    #[test]
    fn gauge_without_value_fails() {
        let bad = format!("{GOOD}{}", "{\"type\":\"gauge\",\"name\":\"z.depth\"}\n");
        assert!(check_trace(&bad)
            .expect_err("fails")
            .contains("gauge record needs"));
    }

    #[test]
    fn unsorted_gauge_section_fails() {
        let bad = format!(
            "{GOOD}{}",
            "{\"type\":\"gauge\",\"name\":\"a.depth\",\"value\":1}\n"
        );
        assert!(check_trace(&bad)
            .expect_err("fails")
            .contains("not sorted by name"));
    }

    #[test]
    fn stats_without_work_fails() {
        let bad = format!(
            "{GOOD}{}",
            "{\"type\":\"stats\",\"diag\":{\"serve.refused\":0}}\n"
        );
        assert!(check_trace(&bad)
            .expect_err("fails")
            .contains("needs a `work` object"));
    }

    #[test]
    fn stats_with_unsorted_keys_fails() {
        let bad = format!(
            "{GOOD}{}",
            "{\"type\":\"stats\",\"work\":{\"serve.request_lines\":3,\"model.queries\":3}}\n"
        );
        assert!(check_trace(&bad)
            .expect_err("fails")
            .contains("`work` keys are not sorted"));
    }
}
