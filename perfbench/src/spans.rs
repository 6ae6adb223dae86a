//! The benchmark's own spans around each call it makes into a layer of
//! the program. Spans live in memory and are written out at exit; the
//! program itself carries no extra tracing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `alib.round_trip.query`.
    pub name: &'static str,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Request the span served (a wire sequence number or action index;
    /// 0 when none).
    pub req: u64,
}

/// Per-thread span recorder; a disabled one records nothing and costs a
/// branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder timing against `epoch` (shared by all threads of a run).
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn run<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let r = f();
        self.exit();
        r
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Summed self time per span name, in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = by.entry(s.name).or_insert((0u64, 0u64));
        e.0 += t;
        e.1 += 1;
    }
    by
}

/// Share of root span `root` covered by the self time of its
/// descendants: how much of a timed window the layer spans account for.
pub fn coverage(spans: &[Span], root: usize) -> f64 {
    let selfs = self_times(spans);
    let dur = (spans[root].end_ns - spans[root].start_ns).max(1);
    let mut inside = vec![false; spans.len()];
    let mut covered = 0u64;
    for i in root + 1..spans.len() {
        if let Some(p) = spans[i].parent {
            if p == root || inside[p] {
                inside[i] = true;
                covered += selfs[i];
            }
        }
    }
    covered as f64 / dur as f64
}

/// Writes spans as JSON lines, one thread's spans tagged with `thread`.
pub fn write_jsonl(out: &mut impl Write, thread: &str, spans: &[Span]) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"thread\":\"{thread}\",\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 60, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 10, 30]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["a"], (30, 1));
        assert!((coverage(&spans, 0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.run("x", 1, || 5), 5);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true, Instant::now());
        t.enter("outer", 0);
        t.run("inner", 7, || ());
        t.exit();
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
    }
}
