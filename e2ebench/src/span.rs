//! In-memory spans for the traced run.
//!
//! A span is a named interval around one call into a layer, with the
//! span that caused it and the workload's id for the unit of work (pass,
//! cell, repetition, sweep). Spans stay in memory while the run measures
//! and are written as JSON lines when it ends. A layer's number is its
//! spans' *self* time: duration minus the time covered by child spans.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Spans`] list.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    tag: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The span list of one run. When tracing is off every method is a
/// no-op that reads no clock.
pub struct Spans {
    on: bool,
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, tag: u64) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.ns(Instant::now());
        self.list.push(Span {
            name,
            parent,
            tag,
            start_ns: now,
            end_ns: now,
        });
        Some(self.list.len() - 1)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.list[id].end_ns = self.ns(Instant::now());
        }
    }

    /// Records a finished span measured by the caller.
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        tag: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.list.push(Span {
            name,
            parent,
            tag,
            start_ns,
            end_ns,
        });
        Some(self.list.len() - 1)
    }

    /// Self time of every span, in ns, indexed like the list.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.list
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// `(tag, self ns)` of every span named `name`, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<(u64, u64)> {
        self.list
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(s, ns)| (s.tag, ns))
            .collect()
    }

    /// `(tag, start ns, end ns)` of every span named `name`.
    pub fn intervals(&self, name: &str) -> Vec<(u64, u64, u64)> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.tag, s.start_ns, s.end_ns))
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for ((id, s), self_ns) in self.list.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.tag, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        let t0 = Instant::now();
        let parent = spans.leaf("cell", None, 7, t0, t0 + Duration::from_nanos(1000));
        spans.leaf("decode", parent, 7, t0, t0 + Duration::from_nanos(300));
        spans.leaf("decode", parent, 7, t0, t0 + Duration::from_nanos(200));
        assert_eq!(spans.self_times("cell"), vec![(7, 500)]);
        assert_eq!(spans.self_times("decode").len(), 2);
    }

    #[test]
    fn off_records_nothing() {
        let mut spans = Spans::new(false);
        assert!(spans.open("x", None, 0).is_none());
        assert!(spans.self_times("x").is_empty());
    }
}
