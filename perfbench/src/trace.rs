//! Span recorder for the traced run.
//!
//! Spans are opened by the benchmark itself around each public call into a
//! layer of the workspace, so the program under test is unchanged between
//! traced and untraced runs.  Every call happens on the benchmark's main
//! thread, which keeps nesting strictly stack-shaped: a span's children
//! never overlap, and its self time is its duration minus the sum of its
//! children's durations.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the span that wraps one whole timed pass (or monitor round).
pub const PASS: &str = "pass";

#[derive(Debug)]
pub struct SpanRecord {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

impl SpanRecord {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: Cell<bool>,
    pass: Cell<u32>,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: Cell::new(false),
            pass: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    /// Tags the spans recorded from now on with pass `id`.
    pub fn set_pass(&self, id: u32) {
        self.pass.set(id);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span called `name` when tracing is on; otherwise
    /// just runs `f`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRecord {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                pass: self.pass.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<SpanRecord>> {
        self.spans.borrow()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            )?;
        }
        out.flush()
    }
}

/// Per-pass layer attribution of a finished trace.
pub struct LayerTimes {
    /// Layer name → self seconds of that layer in each traced pass.
    pub self_s: BTreeMap<&'static str, Vec<f64>>,
    /// Share of each traced pass's time covered by layer spans.
    pub coverage: Vec<f64>,
}

/// Sums each layer's self time per pass and the coverage of every
/// [`PASS`] span by its descendants.
pub fn layer_times(spans: &[SpanRecord]) -> LayerTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut passes: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    let mut coverage = Vec::new();
    for (id, s) in spans.iter().enumerate() {
        let self_ns = s.duration_ns() - child_ns[id];
        if s.name == PASS {
            coverage.push(1.0 - self_ns as f64 / s.duration_ns().max(1) as f64);
            passes.entry(s.pass).or_default();
        } else {
            *passes.entry(s.pass).or_default().entry(s.name).or_default() += self_ns;
        }
    }
    let mut self_s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for layers in passes.values() {
        for (&name, &ns) in layers {
            self_s.entry(name).or_default().push(ns as f64 / 1e9);
        }
    }
    LayerTimes { self_s, coverage }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRecord {
                name: PASS,
                start_ns: 0,
                end_ns: 100,
                parent: None,
                pass: 1,
            },
            SpanRecord {
                name: "a",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                pass: 1,
            },
            SpanRecord {
                name: "b",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                pass: 1,
            },
            SpanRecord {
                name: "b",
                start_ns: 60,
                end_ns: 90,
                parent: Some(0),
                pass: 1,
            },
        ];
        let t = layer_times(&spans);
        assert_eq!(t.self_s["a"], vec![30e-9]);
        assert_eq!(t.self_s["b"], vec![40e-9]);
        assert!((t.coverage[0] - 0.7).abs() < 1e-12);
    }
}
