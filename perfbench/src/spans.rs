//! In-memory span log of the traced run, written out once at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed region: a call into the runtime or a replayed layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Start and end, ns since the log's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Scheduler tick (= step id) the span belongs to.
    pub step: u64,
}

/// Append-only span storage with a fixed epoch.
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog { epoch: Instant::now(), spans: Vec::new() }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, step: u64) -> u32 {
        let start_ns = self.at(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, step });
        (self.spans.len() - 1) as u32
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: u32) {
        let end = self.at(Instant::now());
        self.spans[id as usize].end_ns = end;
    }

    /// Records a finished span that started at `start` and lasted `ns`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        step: u64,
        start: Instant,
        ns: u64,
    ) -> u32 {
        let start_ns = self.at(start);
        self.spans.push(Span { name, start_ns, end_ns: start_ns + ns, parent, step });
        (self.spans.len() - 1) as u32
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{}}}",
                s.name, s.start_ns, s.end_ns, s.step
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut log = SpanLog::new();
        let tick = log.open("tick", None, 4);
        let t = Instant::now();
        let child = log.record("ingest", Some(tick), 4, t, 1_000);
        log.close(tick);
        let spans = &log.spans;
        assert_eq!(spans[child as usize].parent, Some(tick));
        assert!(spans[tick as usize].end_ns >= spans[tick as usize].start_ns);
        assert_eq!(spans[child as usize].end_ns - spans[child as usize].start_ns, 1_000);
        let json = log.to_json();
        assert!(json.contains("\"name\":\"ingest\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
    }
}
