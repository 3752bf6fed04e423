//! Spans, samples and counters of a traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (name, start, end, parent span, request id), a sample for each
//! per-request value a call returns (simulation ns, restored bytes), and
//! counters for totals. Everything is kept in memory and written once,
//! when the run ends, as a tab-separated file:
//!
//! ```text
//! # header text
//! S <id> <parent|-> <request|-> <name> <start_ns> <end_ns>
//! V <name> <value>
//! C <name> <value>
//! ```
//!
//! Times are nanoseconds since the tracer was created.

use std::collections::BTreeMap;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The contents of a trace: what [`Tracer`] records and
/// [`TraceData::read`] parses back.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceData {
    pub header: Vec<String>,
    pub spans: Vec<Span>,
    pub samples: BTreeMap<String, Vec<f64>>,
    pub counters: BTreeMap<String, f64>,
}

impl TraceData {
    /// Durations (ns) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64)
            .collect()
    }

    /// Summed duration (ns) of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, b| a + b)
    }

    /// Summed duration (ns) of the spans whose parent is a span called
    /// `parent`: the calls a replay made, without the replay's own
    /// bookkeeping between them.
    pub fn child_total(&self, parent: &str) -> f64 {
        let ids: std::collections::BTreeSet<u32> = self
            .spans
            .iter()
            .filter(|s| s.name == parent)
            .map(|s| s.id)
            .collect();
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| ids.contains(&p)))
            .fold(0.0, |a, s| a + s.dur() as f64)
    }

    /// The samples recorded under `name` (empty if none).
    pub fn sample(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Counter `name` (0 if never set).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Writes the trace in the format of the module docs.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for h in &self.header {
            writeln!(w, "# {h}")?;
        }
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                w,
                "S\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                opt(s.parent.map(u64::from)),
                opt(s.request),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        for (name, values) in &self.samples {
            for v in values {
                writeln!(w, "V\t{name}\t{v}")?;
            }
        }
        for (name, v) in &self.counters {
            writeln!(w, "C\t{name}\t{v}")?;
        }
        w.flush()
    }

    /// Parses a file written by [`write`](Self::write).
    pub fn read(path: &Path) -> Result<Self, String> {
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut data = TraceData::default();
        for (no, line) in std::io::BufReader::new(file).lines().enumerate() {
            let line = line.map_err(|e| e.to_string())?;
            let bad = || format!("{}:{}: malformed line", path.display(), no + 1);
            if let Some(h) = line.strip_prefix("# ") {
                data.header.push(h.to_string());
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let opt = |s: &str| if s == "-" { Ok(None) } else { num(s).map(Some) };
            let float = |s: &str| s.parse::<f64>().map_err(|_| bad());
            match f.as_slice() {
                ["S", id, parent, req, name, start, end] => data.spans.push(Span {
                    id: u32::try_from(num(id)?).map_err(|_| bad())?,
                    parent: opt(parent)?
                        .map(u32::try_from)
                        .transpose()
                        .map_err(|_| bad())?,
                    request: opt(req)?,
                    name: (*name).to_string(),
                    start_ns: num(start)?,
                    end_ns: num(end)?,
                }),
                ["V", name, v] => data
                    .samples
                    .entry((*name).to_string())
                    .or_default()
                    .push(float(v)?),
                ["C", name, v] => {
                    data.counters.insert((*name).to_string(), float(v)?);
                }
                [""] => {}
                _ => return Err(bad()),
            }
        }
        Ok(data)
    }
}

/// Records spans, samples and counters in memory. A disabled tracer
/// records nothing, so the untraced phases can share code with the
/// traced ones at the cost of a branch.
pub struct Tracer {
    on: bool,
    t0: Instant,
    data: TraceData,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            data: TraceData::default(),
        }
    }

    /// Whether this tracer records.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Records a span that ran from `start` to `end`; returns its id
    /// (for children), or `None` when disabled.
    pub fn span(
        &mut self,
        name: &str,
        parent: Option<u32>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let id = self.data.spans.len() as u32;
        self.data.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
        Some(id)
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<u32>,
        request: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.span(name, parent, request, start, Instant::now());
        r
    }

    /// Opens a span that ends at [`end`](Self::end); returns its id,
    /// or `None` when disabled.
    pub fn begin(&mut self, name: &str, parent: Option<u32>, request: Option<u64>) -> Option<u32> {
        let now = Instant::now();
        self.span(name, parent, request, now, now)
    }

    /// Closes span `id` (opened by [`begin`](Self::begin)) now.
    pub fn end(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let ns = Instant::now().saturating_duration_since(self.t0).as_nanos() as u64;
            self.data.spans[id as usize].end_ns = ns;
        }
    }

    /// Appends a per-request sample.
    pub fn sample(&mut self, name: &str, value: f64) {
        if self.on {
            self.data
                .samples
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }

    /// Adds `value` to counter `name`.
    pub fn count(&mut self, name: &str, value: f64) {
        if self.on {
            *self.data.counters.entry(name.to_string()).or_default() += value;
        }
    }

    /// Sets counter `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        if self.on {
            self.data.counters.insert(name.to_string(), value);
        }
    }

    /// Consumes the tracer, adding `header` lines.
    pub fn finish(mut self, header: Vec<String>) -> TraceData {
        self.data.header = header;
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_file_round_trips() {
        let mut t = Tracer::new(true);
        let now = Instant::now();
        let root = t.begin("pool.pass", None, None);
        t.span("pool.batch", root, Some(7), now, now);
        t.end(root);
        t.sample("engine.sim_ns", 12.5);
        t.count("pool.requests", 64.0);
        t.count("pool.requests", 64.0);
        let data = t.finish(vec!["workload city".into()]);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.tsv");
        data.write(&path).unwrap();
        let back = TraceData::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, data);
        assert_eq!(back.counter("pool.requests"), 128.0);
        assert_eq!(back.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.time("x", None, None, || 3), 3);
        t.count("c", 1.0);
        assert_eq!(t.finish(Vec::new()), TraceData::default());
    }
}
