//! Pluggable report sinks: human-readable table, JSON-lines, no-op.

use crate::report::Report;
use std::ffi::OsString;
use std::io::{self, Write};

/// Destination for a finished [`Report`].
pub trait Sink {
    /// Write one finished report to the destination.
    fn emit(&mut self, report: &Report) -> io::Result<()>;
}

/// Renders [`Report::to_table`] to any writer (typically stdout).
pub struct TableSink<W: Write>(pub W);

impl<W: Write> Sink for TableSink<W> {
    fn emit(&mut self, report: &Report) -> io::Result<()> {
        self.0.write_all(report.to_table().as_bytes())
    }
}

/// Writes [`Report::to_json_lines`] to any writer (typically a
/// `BENCH_*.jsonl` file).
pub struct JsonLinesSink<W: Write>(pub W);

impl<W: Write> Sink for JsonLinesSink<W> {
    fn emit(&mut self, report: &Report) -> io::Result<()> {
        self.0.write_all(report.to_json_lines().as_bytes())
    }
}

/// Discards the report.
pub struct NoopSink;

impl Sink for NoopSink {
    fn emit(&mut self, _report: &Report) -> io::Result<()> {
        Ok(())
    }
}

/// Sink selected by the environment, for the bench binaries:
///
/// - `PMG_TELEMETRY=off` (or unset / empty) → [`NoopSink`];
/// - `PMG_TELEMETRY=table` → [`TableSink`] on stdout;
/// - `PMG_TELEMETRY=json` → [`JsonLinesSink`] on the file named by
///   `PMG_TELEMETRY_FILE` (stdout when unset);
/// - anything else → an [`io::ErrorKind::InvalidInput`] error naming the
///   variable, so a misspelt mode does not silently report nothing.
///
/// Callers that want collection on should also call
/// [`crate::set_enabled`]`(true)` when this returns a non-noop sink.
pub fn sink_from_env() -> io::Result<Box<dyn Sink>> {
    let mode = std::env::var_os("PMG_TELEMETRY").map(|v| v.to_string_lossy().into_owned());
    let file = std::env::var_os("PMG_TELEMETRY_FILE");
    sink_for(mode.as_deref(), file)
}

fn sink_for(mode: Option<&str>, file: Option<OsString>) -> io::Result<Box<dyn Sink>> {
    match mode {
        None | Some("" | "off") => Ok(Box::new(NoopSink)),
        Some("table") => Ok(Box::new(TableSink(io::stdout()))),
        Some("json") => match file {
            Some(path) => Ok(Box::new(JsonLinesSink(std::fs::File::create(path)?))),
            None => Ok(Box::new(JsonLinesSink(io::stdout()))),
        },
        Some(other) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("PMG_TELEMETRY={other}: expected off|table|json"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::PhaseRecord;

    fn tiny_report() -> Report {
        Report {
            phases: vec![PhaseRecord {
                path: "solve".into(),
                total_s: 0.5,
                count: 2,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn telemetry_switch_rejects_unrecognised_modes() {
        for mode in [None, Some(""), Some("off"), Some("table"), Some("json")] {
            assert!(sink_for(mode, None).is_ok(), "{mode:?}");
        }
        let err = sink_for(Some("jsno"), None).err().expect("typo rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(msg.contains("PMG_TELEMETRY=jsno") && msg.contains("off|table|json"));
    }

    #[test]
    fn table_sink_writes_table() {
        let mut buf = Vec::new();
        TableSink(&mut buf).emit(&tiny_report()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("solve"));
        assert!(text.contains("count"));
    }

    #[test]
    fn json_sink_roundtrips() {
        let mut buf = Vec::new();
        JsonLinesSink(&mut buf).emit(&tiny_report()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(Report::from_json_lines(&text).unwrap(), tiny_report());
    }

    #[test]
    fn noop_sink_accepts_anything() {
        NoopSink.emit(&tiny_report()).unwrap();
    }
}
