//! Bench-side tracing: spans recorded around the benchmark's calls into
//! each workspace crate, kept in memory and written out at the end.
//!
//! A span's name is `<layer>.<what>`, where the layer is the crate the
//! wrapped public function belongs to (`bench` for the benchmark's own
//! glue). Self time is the span's duration minus the time its child
//! spans cover. While the tracer is off, [`Tracer::span`] only runs its
//! closure: no clock is read and nothing is recorded.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the span file; later spans still count in the totals.
const KEEP: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    pub trace: u64,
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration per call in the given unit (`1e3` for µs, `1e6`
    /// for ms); 0 when the span never ran.
    pub fn mean(&self, unit_ns: f64) -> f64 {
        crate::util::ratio(self.total_ns as f64, self.calls as f64 * unit_ns)
    }
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    stack: Vec<Open>,
    trace: u64,
    next_id: u64,
    root_ns: u64,
    kept: Vec<SpanRecord>,
    dropped: u64,
    /// Per span name; a short list searched by pointer first, since
    /// names are string literals and the lookup runs on every close.
    totals: Vec<(&'static str, Totals)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            stack: Vec::new(),
            trace: 0,
            next_id: 0,
            root_ns: 0,
            kept: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    /// Switches recording on or off; only between root spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracer toggled inside a span");
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`. A span opened with no
    /// enclosing span starts a new trace.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        if self.stack.is_empty() {
            self.trace += 1;
        }
        self.next_id += 1;
        let id = self.next_id;
        let start_ns = self.now();
        self.stack.push(Open {
            name,
            id,
            start_ns,
            child_ns: 0,
        });
        let out = f(self);
        let end_ns = self.now();
        let open = self.stack.pop().expect("spans close in order");
        let duration = end_ns - open.start_ns;
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += duration;
                p.id
            }
            None => {
                self.root_ns += duration;
                0
            }
        };
        let totals = self.entry(open.name);
        totals.calls += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(open.child_ns);
        if self.kept.len() < KEEP {
            self.kept.push(SpanRecord {
                trace: self.trace,
                id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        out
    }

    fn entry(&mut self, name: &'static str) -> &mut Totals {
        let at = self
            .totals
            .iter()
            .position(|(n, _)| std::ptr::eq(*n, name))
            .or_else(|| self.totals.iter().position(|(n, _)| *n == name))
            .unwrap_or_else(|| {
                self.totals.push((name, Totals::default()));
                self.totals.len() - 1
            });
        &mut self.totals[at].1
    }

    /// Totals of the spans called `name` (zero when none ran).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Re-attributes `ns` of self time measured *inside* the `from`
    /// spans by the program's own recorder (e.g. the engine's per-step
    /// observe time inside a session ingest) to the pseudo-span `to`.
    /// Moves at most the self time `from` has; returns what it moved.
    pub fn transfer(&mut self, from: &'static str, to: &'static str, calls: u64, ns: u64) -> u64 {
        let moved = {
            let source = self.entry(from);
            let moved = ns.min(source.self_ns);
            source.self_ns -= moved;
            moved
        };
        let target = self.entry(to);
        target.calls += calls;
        target.total_ns += moved;
        target.self_ns += moved;
        moved
    }

    /// Total duration of all root spans.
    pub fn root_ns(&self) -> u64 {
        self.root_ns
    }

    /// Self time per layer (the span-name prefix before the first dot).
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut layers = BTreeMap::new();
        for (name, t) in &self.totals {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_insert(0) += t.self_ns;
        }
        layers
    }

    /// Writes the kept spans as JSON lines after one header line.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.kept {
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(
            out,
            "{{\"spans_kept\":{},\"spans_dropped\":{}}}",
            self.kept.len(),
            self.dropped
        )?;
        out.flush()
    }
}
