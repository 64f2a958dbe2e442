//! In-memory spans for the traced run.
//!
//! A span records its name, an optional tag (the architecture for the
//! per-arch simulator spans), the request it belongs to, its start and
//! end, and the span that was open when it began. Spans stay in memory
//! and are written out once, at the end of the run. A span's self time
//! is its duration minus the part of it that its children cover.
//!
//! A disabled tracer runs the same calls without reading the clock, so
//! the traced and untraced passes differ only by the tracing itself.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.compute`.
    pub name: &'static str,
    /// Qualifier aggregated separately as `name.tag` (empty for none).
    pub tag: &'static str,
    /// The request (job, hit or training run) the span belongs to.
    pub request: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Per-name totals over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Summed duration.
    pub total_ns: u64,
}

impl Totals {
    /// Mean self time per span, in units of `ns_per_unit` nanoseconds
    /// (0 without spans).
    pub fn mean_self(&self, ns_per_unit: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.count as f64 / ns_per_unit
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
            open: Vec::with_capacity(16),
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[index].end_ns = end;
        result
    }

    /// Adds `value` to the counter `name` (recorded only when enabled).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// A counter's value (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Totals per span name, and per `name.tag` for tagged spans.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&children) {
            let own = self_time_ns((span.start_ns, span.end_ns), kids);
            let mut add = |key: String| {
                let t = out.entry(key).or_default();
                t.count += 1;
                t.self_ns += own;
                t.total_ns += span.end_ns - span.start_ns;
            };
            add(span.name.to_string());
            if !span.tag.is_empty() {
                add(format!("{}.{}", span.name, span.tag));
            }
        }
        out
    }

    /// The spans as JSON lines, one object per span in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tag, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of a span over `span = (start, end)`: its duration minus
/// the union of its children's intervals, each clipped to the span.
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_disjoint_children() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (30, 50)]), 70);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips() {
        // Overlapping children cover [10, 40) once.
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (20, 40)]), 70);
        // A nested grandchild interval inside a child adds nothing.
        assert_eq!(self_time_ns((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children reaching outside the span are clipped to it.
        assert_eq!(self_time_ns((50, 100), &[(0, 60), (90, 150)]), 30);
        // Fully covered.
        assert_eq!(self_time_ns((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn spans_nest_and_total_by_name_and_tag() {
        let mut t = Tracer::new(true);
        t.span("job", "", 7, |t| {
            t.span("sim.compute", "tc", 7, |_| std::hint::black_box(1 + 1));
            t.span("sim.compute", "tb-stc", 7, |_| ());
            t.count("sim.blocks", 3.0);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        let totals = t.totals();
        assert_eq!(totals["sim.compute"].count, 2);
        assert_eq!(totals["sim.compute.tc"].count, 1);
        assert_eq!(totals["sim.compute.tb-stc"].count, 1);
        let job = totals["job"];
        assert!(job.self_ns <= job.total_ns);
        assert_eq!(t.counter("sim.blocks"), 3.0);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("job", "", 1, |t| t.span("inner", "", 1, |_| 42));
        t.count("sim.blocks", 1.0);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
        assert!(t.totals().is_empty());
        assert_eq!(t.counter("sim.blocks"), 0.0);
    }
}
