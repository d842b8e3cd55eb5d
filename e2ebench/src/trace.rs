//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, written out when the run ends.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the span that caused this one, in the same log.
    pub parent: Option<usize>,
    /// Ops of one request share an id.
    pub op: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end - self.start) as f64 / 1e3
    }
}

/// One thread's spans, and counts noted at the same boundaries; logs
/// are merged with [`SpanLog::append`].
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub counts: Vec<(&'static str, f64)>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    /// Every value noted under `name`.
    pub fn noted(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.1)
            .collect()
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.counts.extend(other.counts);
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its children cover.
    fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start - covered) as f64 / 1e3
            })
            .collect()
    }

    /// Per span name: (count, median duration us, median self time us).
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let selfs = self.self_times_us();
        let mut by: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = by.entry(s.name).or_default();
            e.0.push(s.us());
            e.1.push(own);
        }
        by.into_iter()
            .map(|(k, (d, o))| (k, (d.len(), median(&d), median(&o))))
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": {:?}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op\": {}}}",
                s.name, s.start, s.end, parent, s.op
            )?;
        }
        out.flush()
    }
}
