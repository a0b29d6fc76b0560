//! Spans recorded from outside the crates: one around each call into a
//! crate's public function, kept in memory and written out when the run
//! ends. Tracing inside the crates is a later change (ROADMAP item 5).

use pim_exp::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// One timed interval. `name` is `<layer>/<function>`; `parent` indexes the
/// span that was open when this one started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Index into the workload's cell list (`u32::MAX` = not cell-specific).
    pub cell: u32,
    /// How many calls this span stands for. Program steps run millions of
    /// times per rep, so they are folded into one span per scheduler run
    /// whose length is the summed step time.
    pub calls: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn layer(&self) -> &str {
        self.name.split('/').next().unwrap_or(self.name)
    }
}

/// Not cell-specific.
pub const NO_CELL: u32 = u32::MAX;

/// The span recorder. When `on` is false every method is a plain call, so
/// the untraced reps pay one branch per boundary.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, cell: u32, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                cell,
                calls: 1,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        result
    }

    /// Records `calls` calls that together took `total_ns` as one child of
    /// the span opened last (see [`Span::calls`]). Call it while the parent
    /// is still open.
    pub fn folded(&self, name: &'static str, cell: u32, total_ns: u64, calls: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.borrow().last().copied();
        let start_ns = parent.map_or_else(|| self.now_ns(), |p| self.spans.borrow()[p].start_ns);
        self.spans.borrow_mut().push(Span {
            name,
            start_ns,
            end_ns: start_ns + total_ns,
            parent,
            cell,
            calls,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span: its length minus the part of it that its direct
/// children cover. Children may overlap each other (parallel workers) and
/// may stick out of the parent (a folded span is placed at the parent's
/// start); both are clipped, so self time is never negative.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Total length in seconds of the spans whose name is `name`.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::seconds).sum()
}

/// Total self time in seconds of the spans whose name is `name`.
pub fn total_self_s(spans: &[Span], name: &str) -> f64 {
    let own = self_ns(spans);
    spans.iter().zip(own).filter(|(s, _)| s.name == name).map(|(_, ns)| ns as f64 * 1e-9).sum()
}

/// The trace file: the cell labels and every span.
pub fn to_json(workload: &str, cells: &[String], spans: &[Span]) -> Json {
    let own = self_ns(spans);
    Json::Obj(vec![
        ("workload".into(), Json::str(workload)),
        ("cells".into(), Json::Arr(cells.iter().map(Json::str).collect())),
        (
            "spans".into(),
            Json::Arr(
                spans
                    .iter()
                    .zip(own)
                    .map(|(s, self_ns)| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(s.name)),
                            ("layer".into(), Json::str(s.layer())),
                            ("start_ns".into(), Json::u64(s.start_ns)),
                            ("end_ns".into(), Json::u64(s.end_ns)),
                            ("self_ns".into(), Json::u64(self_ns)),
                            ("parent".into(), s.parent.map_or(Json::Null, |p| Json::u64(p as u64))),
                            (
                                "cell".into(),
                                if s.cell == NO_CELL {
                                    Json::Null
                                } else {
                                    Json::u64(u64::from(s.cell))
                                },
                            ),
                            ("calls".into(), Json::u64(s.calls)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, cell: NO_CELL, calls: 1 }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = [
            span("a/run", 0, 100, None),
            span("b/step", 10, 30, Some(0)),
            span("b/step", 50, 70, Some(0)),
            span("c/leaf", 12, 20, Some(1)),
        ];
        assert_eq!(self_ns(&spans), vec![60, 12, 20, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span("a/run", 100, 200, None),
            // Two workers overlapping on 120..150.
            span("b/w0", 110, 150, Some(0)),
            span("b/w1", 120, 160, Some(0)),
            // Sticks out of the parent on both ends.
            span("b/w2", 190, 260, Some(0)),
            span("b/w3", 40, 105, Some(0)),
            // Entirely inside an earlier sibling.
            span("b/w4", 125, 130, Some(0)),
        ];
        // Covered: 100..105, 110..160, 190..200 = 65.
        assert_eq!(self_ns(&spans)[0], 35);
    }

    #[test]
    fn a_folded_span_covers_its_summed_time() {
        let tracer = Tracer::new(true);
        tracer.span("pim-sim/Scheduler::run", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tracer.folded("pim-workloads/step", 3, 500_000, 1000);
        });
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].calls, 1000);
        let own = self_ns(&spans);
        assert_eq!(own[0], (spans[0].end_ns - spans[0].start_ns) - 500_000);
        assert_eq!(spans[0].layer(), "pim-sim");
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x/y", 0, || 7), 7);
        tracer.folded("x/z", 0, 10, 1);
        assert!(tracer.into_spans().is_empty());
    }
}
