//! In-memory spans around the harness's calls into each crate.
//!
//! A span is `layer.operation`: the layer is the crate the call goes into
//! (`harness` for the benchmark's own work). Spans are recorded by one
//! thread, strictly nested, kept in memory and written out once at the end.
//! A layer's self time is the time of its spans minus the time their child
//! spans cover, so the self times of all layers add up to the root span.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Debug)]
#[must_use = "close the span with Tracer::end"]
pub struct Open(usize);

/// The span recorder. A disabled tracer records nothing, which is how the
/// tracing overhead is measured: the same pass runs once with each.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open(index)
    }

    /// Closes a span and returns its duration in nanoseconds (0 when the
    /// tracer is disabled). Spans close in the reverse order they opened.
    pub fn end(&mut self, open: Open) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Runs `f` inside a span and returns its result and the span's length
    /// in seconds, measured whether or not the tracer records.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let start = Instant::now();
        let value = f();
        let seconds = start.elapsed().as_secs_f64();
        self.end(open);
        (value, seconds)
    }

    /// Self time per layer in nanoseconds: each span's duration minus its
    /// direct children's, summed by the part of the name before the dot.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let layer = span.name.split_once('.').map_or(span.name, |(layer, _)| layer);
            *by_layer.entry(layer).or_insert(0) += span.duration_ns().saturating_sub(covered);
        }
        by_layer
    }

    /// Total time of the spans that have no parent.
    pub fn root_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum()
    }

    /// The trace as JSON: every span with its workload, plus the per-layer
    /// self times and the root time they add up to.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\n  \"workload\": \"{workload}\",\n");
        out.push_str(&format!("  \"root_ns\": {},\n  \"self_time_ns\": {{", self.root_ns()));
        let layers: Vec<String> = self
            .self_time_by_layer()
            .iter()
            .map(|(layer, ns)| format!("\"{layer}\": {ns}"))
            .collect();
        out.push_str(&layers.join(", "));
        out.push_str("},\n  \"spans\": [\n");
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "    {{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {parent}, \"workload\": \"{workload}\"}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        out.push_str(&spans.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-written spans, so the arithmetic is exact.
    fn fixture() -> Tracer {
        let mut tracer = Tracer::new(true);
        tracer.spans = vec![
            Span { name: "harness.trace", start_ns: 0, end_ns: 1_000, parent: None },
            Span { name: "core.fence", start_ns: 100, end_ns: 400, parent: Some(0) },
            Span { name: "storage.get", start_ns: 150, end_ns: 250, parent: Some(1) },
            Span { name: "core.fence", start_ns: 500, end_ns: 700, parent: Some(0) },
        ];
        tracer
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        let tracer = fixture();
        let by_layer = tracer.self_time_by_layer();
        assert_eq!(by_layer["harness"], 1_000 - 300 - 200);
        assert_eq!(by_layer["core"], (300 - 100) + 200);
        assert_eq!(by_layer["storage"], 100);
        assert_eq!(by_layer.values().sum::<u64>(), tracer.root_ns());
    }

    #[test]
    fn recorded_spans_nest_under_the_open_span() {
        let mut tracer = Tracer::new(true);
        let root = tracer.begin("harness.trace");
        let ((), _) = tracer.timed("core.fence", || std::hint::black_box(()));
        let inner = tracer.begin("occ.commit");
        tracer.end(inner);
        tracer.end(root);
        let parents: Vec<Option<usize>> = tracer.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert!(tracer.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut tracer = Tracer::new(false);
        let open = tracer.begin("core.fence");
        assert_eq!(tracer.end(open), 0);
        let (value, seconds) = tracer.timed("core.fence", || 7);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        assert!(tracer.spans.is_empty());
    }

    #[test]
    fn json_names_every_span_with_its_parent_and_workload() {
        let json = fixture().to_json("ycsb_hot");
        assert!(json.contains("\"workload\": \"ycsb_hot\""));
        assert!(json.contains("\"root_ns\": 1000"));
        assert!(json.contains(
            "\"name\": \"storage.get\", \"start_ns\": 150, \"end_ns\": 250, \"parent\": 1"
        ));
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"core\": 400"));
    }
}
