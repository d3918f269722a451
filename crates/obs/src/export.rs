//! ndjson trace export.
//!
//! One JSON object per line, in four sections: completed spans in
//! completion order (so every child line precedes its parent's line),
//! then counters, gauges, and histograms, each sorted by name. The
//! sorted metric sections are reproducible across runs and thread
//! counts for work counters; span lines, gauge levels, and histogram
//! contents carry wall-clock state and are inherently run-specific.
//! `xtask trace-check` validates the format (every line parses, span
//! parents exist and enclose their children, metric sections are
//! name-sorted).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::metrics::{counters_snapshot, gauges_snapshot, histograms_snapshot};
use crate::span::finished_spans;

/// Minimal JSON string escaping for span/metric names.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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
    out
}

/// Renders the full observability state — completed spans, counters,
/// histograms — as ndjson (one JSON object per line, trailing newline).
#[must_use]
pub fn export_ndjson() -> String {
    let mut out = String::new();
    for s in finished_spans() {
        let _ = write!(out, "{{\"type\":\"span\",\"id\":{},", s.id);
        match s.parent {
            Some(p) => {
                let _ = write!(out, "\"parent\":{p},");
            }
            None => out.push_str("\"parent\":null,"),
        }
        let _ = writeln!(
            out,
            "\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            escape(s.name),
            s.thread,
            s.start_ns,
            s.end_ns
        );
    }
    for c in counters_snapshot() {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"kind\":\"{}\",\"name\":\"{}\",\"value\":{}}}",
            c.kind.as_str(),
            escape(c.name),
            c.value
        );
    }
    for g in gauges_snapshot() {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            escape(g.name),
            g.value
        );
    }
    for h in histograms_snapshot() {
        let _ = write!(
            out,
            "{{\"type\":\"hist\",\"name\":\"{}\",\"resolution\":\"hires\",\"count\":{},\"total_ns\":{},\"buckets\":[",
            escape(h.name),
            h.count,
            h.total_ns
        );
        for (i, b) in h.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]}\n");
    }
    out
}

/// Writes [`export_ndjson`] to `path`.
///
/// # Errors
/// Propagates the underlying filesystem error.
pub fn write_trace(path: &Path) -> std::io::Result<()> {
    std::fs::write(path, export_ndjson())
}

/// Writes the trace to the path named by [`crate::OBS_OUT_ENV_VAR`],
/// if set. Binaries call this once on exit; it is a no-op (returning
/// `Ok(None)`) when the variable is unset or empty.
///
/// # Errors
/// Propagates the underlying filesystem error.
pub fn write_trace_if_requested() -> std::io::Result<Option<PathBuf>> {
    match std::env::var(crate::OBS_OUT_ENV_VAR) {
        Ok(raw) if !raw.trim().is_empty() => {
            let path = PathBuf::from(raw.trim());
            write_trace(&path)?;
            Ok(Some(path))
        }
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, Counter, Gauge, Histogram};

    static EXPORT_COUNTER: Counter = Counter::work("test.export.counter");
    static EXPORT_GAUGE: Gauge = Gauge::new("test.export.gauge");
    static EXPORT_HIST: Histogram = Histogram::new("test.export.hist_ns");

    #[test]
    fn export_lines_are_well_formed() {
        let _guard = crate::test_lock::hold();
        crate::set_enabled(true);
        {
            let _outer = span("test.export.outer");
            let _inner = span("test.export.inner");
        }
        EXPORT_COUNTER.add(7);
        EXPORT_GAUGE.reset();
        EXPORT_GAUGE.add(2);
        EXPORT_GAUGE.decr();
        EXPORT_HIST.record_ns(500);
        let text = export_ndjson();
        crate::set_enabled(false);
        assert!(!text.is_empty());
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "line {line}");
            assert!(line.contains("\"type\":\""), "line {line}");
        }
        // The child completes (and therefore exports) before its parent.
        let inner_pos = text
            .lines()
            .position(|l| l.contains("test.export.inner"))
            .expect("inner span exported");
        let outer_pos = text
            .lines()
            .position(|l| l.contains("\"name\":\"test.export.outer\""))
            .expect("outer span exported");
        assert!(inner_pos < outer_pos);
        assert!(text.contains("\"name\":\"test.export.counter\""));
        assert!(text.contains("\"kind\":\"work\""));
        assert!(text.contains("{\"type\":\"gauge\",\"name\":\"test.export.gauge\",\"value\":1}"));
        assert!(text.contains("\"name\":\"test.export.hist_ns\",\"resolution\":\"hires\""));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("plain.name"), "plain.name");
    }
}
