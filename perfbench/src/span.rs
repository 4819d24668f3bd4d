//! Host-time spans recorded by the benchmark around each call it makes
//! into a layer's public API.
//!
//! Spans live in memory and are written out once the run ends. A span's
//! self time is its duration minus the part covered by its children;
//! children run one after another, so self plus children equals the
//! parent's duration exactly, in integer nanoseconds.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Position in the recorder (ids start at 0, in start order).
    pub id: usize,
    /// The enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// What was called, as `<phase>.<call>` (e.g. `setup.reference.buchberger`).
    pub name: String,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started; `start_ns` while open.
    pub end_ns: u64,
    /// Workload the span belongs to.
    pub workload: &'static str,
    /// Identifier shared by every span of one benchmark run.
    pub run_id: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. A disabled recorder only runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for one run of `workload`; records nothing unless `enabled`.
    pub fn new(enabled: bool, workload: &'static str, run_id: u64) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            workload,
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            workload: self.workload,
            run_id: self.run_id,
        });
        self.open.push(id);
        let out = f(self);
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close in stack order");
        self.spans[id].end_ns = end_ns;
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| s.duration_ns() as i128).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration_ns() as i128;
        }
    }
    own
}

/// Total self time, in seconds, of the spans called exactly `name`.
pub fn self_secs(spans: &[Span], name: &str) -> f64 {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == name)
        .fold(0.0, |acc, (_, &ns)| acc + ns as f64 / 1e9)
}

/// Total self time, in seconds, of the spans whose name starts with `prefix`.
pub fn self_secs_prefixed(spans: &[Span], prefix: &str) -> f64 {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name.starts_with(prefix))
        .fold(0.0, |acc, (_, &ns)| acc + ns as f64 / 1e9)
}

/// Check that the spans form one tree: a single root, every child inside
/// its parent and after its earlier siblings, self times non-negative,
/// and self plus children equal to each parent's duration.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    if spans.is_empty() {
        return Err("no spans recorded".into());
    }
    if spans.iter().filter(|s| s.parent.is_none()).count() != 1 {
        return Err("the span tree must have exactly one root".into());
    }
    let mut children_ns = vec![0u64; spans.len()];
    let mut last_child_end: Vec<Option<u64>> = vec![None; spans.len()];
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} `{}` ends before it starts", s.id, s.name));
        }
        let Some(p) = s.parent else { continue };
        let parent = spans
            .get(p)
            .filter(|ps| ps.id < s.id)
            .ok_or_else(|| format!("span {} has an unknown parent {p}", s.id))?;
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {} `{}` lies outside its parent {} `{}`",
                s.id, s.name, p, parent.name
            ));
        }
        if last_child_end[p].is_some_and(|end| s.start_ns < end) {
            return Err(format!(
                "span {} `{}` overlaps an earlier sibling",
                s.id, s.name
            ));
        }
        last_child_end[p] = Some(s.end_ns);
        children_ns[p] += s.duration_ns();
    }
    let own = self_times_ns(spans);
    for (s, (&self_ns, &kids)) in spans.iter().zip(own.iter().zip(&children_ns)) {
        if self_ns < 0 {
            return Err(format!("span {} `{}` has negative self time", s.id, s.name));
        }
        if self_ns + kids as i128 != s.duration_ns() as i128 {
            return Err(format!(
                "span {} `{}`: self plus children is not its duration",
                s.id, s.name
            ));
        }
    }
    Ok(())
}

/// Render the span tree, one span per line, indented by depth.
pub fn render_tree(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut depth = vec![0usize; spans.len()];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "span tree ({} spans; times in ms since the run started)",
        spans.len()
    );
    let _ = writeln!(
        out,
        "  {:>4} {:>6} {:>11} {:>11} {:>10} {:>10}  name",
        "id", "parent", "start", "end", "total", "self"
    );
    for s in spans {
        if let Some(p) = s.parent {
            depth[s.id] = depth[p] + 1;
        }
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {:>4} {:>6} {:>11.3} {:>11.3} {:>10.3} {:>10.3}  {}{} [{} run {}]",
            s.id,
            parent,
            s.start_ns as f64 / 1e6,
            s.end_ns as f64 / 1e6,
            s.duration_ns() as f64 / 1e6,
            own[s.id] as f64 / 1e6,
            "  ".repeat(depth[s.id]),
            s.name,
            s.workload,
            s.run_id
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            workload: "w",
            run_id: 0,
        }
    }

    #[test]
    fn recorded_spans_form_a_tree() {
        let mut t = Tracer::new(true, "w", 7);
        t.span("root", |t| {
            t.span("a", |t| t.span("a.x", |_| std::hint::black_box(1 + 1)));
            t.span("b", |_| ());
        });
        check_tree(t.spans()).unwrap();
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(t.spans().iter().all(|s| s.run_id == 7 && s.workload == "w"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, "w", 0);
        assert_eq!(t.span("root", |_| 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn malformed_trees_are_rejected() {
        // A child sticking out of its parent.
        assert!(check_tree(&[span(0, None, 0, 10), span(1, Some(0), 5, 11)]).is_err());
        // Overlapping siblings.
        let overlap = [
            span(0, None, 0, 10),
            span(1, Some(0), 1, 5),
            span(2, Some(0), 4, 6),
        ];
        assert!(check_tree(&overlap).is_err());
        // Two roots.
        assert!(check_tree(&[span(0, None, 0, 1), span(1, None, 1, 2)]).is_err());
        // A well-formed tree passes and its self times add up.
        let good = [
            span(0, None, 0, 10),
            span(1, Some(0), 1, 4),
            span(2, Some(0), 4, 9),
        ];
        check_tree(&good).unwrap();
        assert_eq!(self_times_ns(&good), vec![2, 3, 5]);
    }
}
