//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a layer
//! of the program, never inside the program. Each pass opens a root span;
//! layer spans are its children. A span's layer is its name up to the
//! first `.` (`unfold.enumerate` belongs to `unfold`). Spans stay in
//! memory and are written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span every pass opens.
pub const PASS: &str = "pass";

/// One recorded interval, nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Pass id, shared by every span of one pass.
    pub pass: u32,
    /// Index of the parent span; `None` for a pass root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A pass the recorder saw: its id, whether it was a probe of layers off
/// the workload's path, and its wall time. Untraced passes are timed too.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassInfo {
    pub id: u32,
    pub traced: bool,
    pub probe: bool,
    pub wall_s: f64,
}

pub struct Tracer {
    origin: Instant,
    traced: bool,
    spans: Vec<Span>,
    passes: Vec<PassInfo>,
    /// Open pass: (id, root span index when traced, start).
    open: Option<(u32, Option<usize>, Instant)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            traced: false,
            spans: Vec::new(),
            passes: Vec::new(),
            open: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a pass. `traced` turns span recording on for it.
    pub fn begin_pass(&mut self, traced: bool) {
        assert!(self.open.is_none(), "passes do not nest");
        self.traced = traced;
        let id = self.passes.len() as u32;
        let root = traced.then(|| {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name: PASS,
                pass: id,
                parent: None,
                start_ns,
                end_ns: start_ns,
            });
            self.spans.len() - 1
        });
        self.open = Some((id, root, Instant::now()));
    }

    /// Close the open pass and return its wall time in seconds.
    pub fn end_pass(&mut self, probe: bool) -> PassInfo {
        let (id, root, start) = self.open.take().expect("no open pass");
        let wall_s = start.elapsed().as_secs_f64();
        if let Some(i) = root {
            self.spans[i].end_ns = self.now_ns();
        }
        self.traced = false;
        let info = PassInfo {
            id,
            traced: root.is_some(),
            probe,
            wall_s,
        };
        self.passes.push(info);
        info
    }

    /// Run `f`, recording it as a child of the open pass when traced.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let (pass, root, _) = self.open.expect("spans belong to a pass");
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            pass,
            parent: root,
            start_ns,
            end_ns,
        });
        out
    }

    /// Summed duration per span name within `pass`, pass root excluded.
    pub fn sums_by_name(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.pass == pass && s.parent.is_some())
        {
            *out.entry(s.name).or_insert(0.0) += s.secs();
        }
        out
    }

    /// Self time per layer within `pass`: each span's duration minus the
    /// part its children cover. The pass root's self time is reported
    /// under [`PASS`]: the wall-clock no layer span accounts for.
    pub fn self_time_by_layer(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let idx: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].pass == pass)
            .collect();
        let mut out = BTreeMap::new();
        for &i in &idx {
            let s = &self.spans[i];
            let children: f64 = idx
                .iter()
                .map(|&j| &self.spans[j])
                .filter(|c| c.parent == Some(i))
                .map(Span::secs)
                .sum();
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += (s.secs() - children).max(0.0);
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let probe = self.passes.get(s.pass as usize).is_some_and(|p| p.probe);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"pass\":{},\"probe\":{probe},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.pass, s.start_ns, s.end_ns
            );
        }
        out
    }
}
