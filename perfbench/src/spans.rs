//! Host-clock spans recorded by the benchmark around its calls into
//! each crate's public API.
//!
//! A span has a name, start and end (ns since the recorder was made),
//! the span that was open when it started, and the workload and
//! repetition it belongs to. Spans stay in memory and are written out
//! once, at the end of the traced run. A disabled recorder calls the
//! wrapped function and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call this span covers (`serve.run`, `vm.clone`, ...).
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub rep: u32,
}

/// In-memory span recorder.
pub struct Spans {
    on: bool,
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder for `workload`; `on = false` records nothing.
    pub fn new(on: bool, workload: &str) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. Spans opened by `f` through
    /// the recorder it receives become this span's children.
    pub fn time<T>(&mut self, name: &'static str, rep: u32, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, rep });
        self.open.push(idx);
        let v = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        v
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in µs of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64 / 1e3).collect()
    }

    /// Self time per span name in µs: each span's duration minus the
    /// part of it its direct children cover, summed over spans of that
    /// name. Children never overlap (the recorder is single-threaded),
    /// so their durations simply add.
    pub fn self_us(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3;
        }
        out
    }

    /// The spans and per-name self times as one JSON document.
    pub fn to_json(&self, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"clock\": \"host\", \"spans\": [\n",
            self.workload
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"rep\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.rep,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("], \"self_us\": {");
        let selfs: Vec<String> = self.self_us().iter().map(|(k, v)| format!("\"{k}\": {v:.3}")).collect();
        out.push_str(&selfs.join(", "));
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut s = Spans::new(true, "w");
        s.time("outer", 0, |s| {
            s.time("inner", 0, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        let selfs = s.self_us();
        assert!(selfs["inner"] >= 2000.0);
        assert!(selfs["outer"] < selfs["inner"]);
        let off = {
            let mut s = Spans::new(false, "w");
            s.time("x", 0, |_| 7)
        };
        assert_eq!(off, 7);
    }
}
