//! Spans the benchmark opens around each public call it makes into the
//! stack. A span records its name, start, end, parent span and op id; spans
//! stay in memory and are written out when the run ends. A layer's self
//! time is its span's duration minus the part of that interval its child
//! spans cover.
//!
//! The benchmark cannot open spans inside one `Server::run` or
//! `Engine::run_on` call. There it adds child spans from the host
//! durations the program returns (`plan_wall_ns`, `exec_wall_ns`), laid end
//! to end from the parent's start and clipped to its end.

use isp_json::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span covers.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
}

/// In-memory span recorder. Disabled tracers only run the wrapped call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Tag the spans opened from now on with op `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_with(name, f, |_| Vec::new())
    }

    /// Run `f` inside a span called `name`, then add the child spans
    /// `parts(&result)` names with their host durations.
    pub fn span_with<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        parts: impl FnOnce(&T) -> Vec<(&'static str, u64)>,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        let end_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans[index].end_ns = end_ns;
        let mut at = spans[index].start_ns;
        for (part, dur_ns) in parts(&result) {
            let end = (at + dur_ns).min(end_ns);
            spans.push(Span {
                name: part,
                start_ns: at,
                end_ns: end,
                parent: Some(index),
                op: self.op.get(),
            });
            at = end;
        }
        result
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self seconds per span name.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self_seconds(&self.spans.borrow())
    }

    /// Every span as JSON, for writing out at exit.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.borrow();
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    Json::obj()
                        .set("name", s.name)
                        .set("start_ns", s.start_ns)
                        .set("end_ns", s.end_ns)
                        .set(
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        )
                        .set("op", s.op)
                })
                .collect(),
        )
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals clipped to it.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
    }
    out
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
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("op", 0, 100, None),
            span("compile", 10, 40, Some(0)),
            span("plan", 30, 50, Some(0)), // overlaps compile by 10
            span("decode", 15, 25, Some(1)),
            span("run", 60, 100, Some(0)),
        ];
        let s = self_seconds(&spans);
        assert!((s["op"] - 20e-9).abs() < 1e-15);
        assert!((s["compile"] - 20e-9).abs() < 1e-15);
        assert!((s["plan"] - 20e-9).abs() < 1e-15);
        assert!((s["decode"] - 10e-9).abs() < 1e-15);
        assert!((s["run"] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn reported_parts_are_laid_end_to_end_and_clipped() {
        let t = Tracer::new(true);
        t.set_op(7);
        t.span_with(
            "serve",
            || std::thread::sleep(std::time::Duration::from_millis(2)),
            |_| vec![("plan", 1_000), ("exec", u64::MAX / 4)],
        );
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].start_ns, spans[0].start_ns);
        assert_eq!(spans[1].end_ns, spans[0].start_ns + 1_000);
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        assert_eq!(spans[2].end_ns, spans[0].end_ns);
        assert!(spans.iter().all(|s| s.op == 7));
        let own = self_seconds(&spans);
        assert_eq!(own["serve"], 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 5), 5);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn nesting_sets_parents() {
        let t = Tracer::new(true);
        t.span("outer", || t.span("inner", || ()));
        let spans = t.spans.borrow();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
    }
}
