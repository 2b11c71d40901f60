//! In-memory span recording for the traced pass.
//!
//! Every call the traced driver makes into a layer is wrapped in a span
//! (name, start, end, parent). Per-layer totals are kept for every span;
//! the spans themselves are kept only while [`Recorder::keep`] is set and
//! below [`MAX_KEPT`], so a long pass stays small in memory. The kept spans
//! are written out once, at the end of the pass.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Upper bound on spans kept in memory for the spans file.
const MAX_KEPT: usize = 200_000;

/// A layer boundary the traced driver times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SyntheticTrace::next_op`, batched over one core's functional warmup.
    NextOp,
    /// `MemoryController::step`, including the DRAM calls it makes.
    CtrlStep,
    /// `MemoryController::next_event` (the skip-ahead query).
    NextEvent,
    /// A DRAM cycle's `Core::step` micro-steps (one item each), including
    /// their nested `Llc::access` spans.
    CoreStep,
    /// `Llc::access`, made through the benchmark's memory bridge.
    LlcAccess,
    /// `DramChannel::check` during command-log replay.
    DramCheck,
    /// `DramChannel::earliest_issue` during command-log replay.
    DramEarliest,
    /// `DramChannel::issue` during command-log replay.
    DramIssue,
}

const LAYERS: [Layer; 8] = [
    Layer::NextOp,
    Layer::CtrlStep,
    Layer::NextEvent,
    Layer::CoreStep,
    Layer::LlcAccess,
    Layer::DramCheck,
    Layer::DramEarliest,
    Layer::DramIssue,
];

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::NextOp => "workloads.next_op",
            Layer::CtrlStep => "core.ctrl_step",
            Layer::NextEvent => "core.next_event",
            Layer::CoreStep => "cpu.core_step",
            Layer::LlcAccess => "cpu.llc_access",
            Layer::DramCheck => "dram.check",
            Layer::DramEarliest => "dram.earliest_issue",
            Layer::DramIssue => "dram.issue",
        }
    }
}

/// Count and summed duration of one layer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans recorded (or items, for batched spans).
    pub count: u64,
    /// Summed span duration, nanoseconds.
    pub ns: u64,
}

impl Total {
    /// Mean nanoseconds per span (per item for batched spans).
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.count.max(1) as f64
    }
}

/// An open span, closed by [`Recorder::exit`].
#[must_use]
pub struct Open {
    layer: Layer,
    id: u64,
    start: Instant,
}

struct Span {
    trace: u32,
    id: u64,
    parent: Option<u64>,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder for one traced pass.
pub struct Recorder {
    origin: Instant,
    totals: [Total; LAYERS.len()],
    stack: Vec<u64>,
    next_id: u64,
    traces: Vec<String>,
    spans: Vec<Span>,
    /// Whether closed spans are currently kept for the spans file.
    pub keep: bool,
}

impl Recorder {
    /// An empty recorder; span times are relative to now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            totals: [Total::default(); LAYERS.len()],
            stack: Vec::with_capacity(4),
            next_id: 1,
            traces: Vec::new(),
            spans: Vec::new(),
            keep: false,
        }
    }

    /// Starts a new trace (one simulated cell): spans recorded from now on
    /// carry its label.
    pub fn begin_trace(&mut self, label: String) {
        self.traces.push(label);
    }

    /// Opens a span; the innermost open span becomes its parent.
    pub fn enter(&mut self, layer: Layer) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(id);
        Open {
            layer,
            id,
            start: Instant::now(),
        }
    }

    /// Closes a span opened by [`Recorder::enter`].
    pub fn exit(&mut self, open: Open) {
        self.exit_items(open, 1);
    }

    /// Closes a span that covered `items` calls into its layer.
    pub fn exit_items(&mut self, open: Open, items: u64) {
        let end = Instant::now();
        self.stack.pop();
        self.add(open.layer, items, end - open.start);
        if self.keep && self.spans.len() < MAX_KEPT {
            self.spans.push(Span {
                trace: self.traces.len().saturating_sub(1) as u32,
                id: open.id,
                parent: self.stack.last().copied(),
                layer: open.layer,
                start_ns: (open.start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
    }

    /// Adds `items` items taking `elapsed` in total to a layer's totals
    /// (batched timing, where a span per item would cost more than the
    /// item).
    pub fn add(&mut self, layer: Layer, items: u64, elapsed: std::time::Duration) {
        let t = &mut self.totals[layer as usize];
        t.count += items;
        t.ns += elapsed.as_nanos() as u64;
    }

    /// A layer's totals so far.
    pub fn total(&self, layer: Layer) -> Total {
        self.totals[layer as usize]
    }

    /// Writes the kept spans as JSON lines, one span per line, then one
    /// line per layer with its totals.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.traces.get(s.trace as usize).map_or("", String::as_str),
                s.id,
                parent,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        for layer in LAYERS {
            let t = self.total(layer);
            writeln!(
                out,
                "{{\"total\":\"{}\",\"count\":{},\"ns\":{}}}",
                layer.name(),
                t.count,
                t.ns
            )?;
        }
        out.flush()
    }
}
