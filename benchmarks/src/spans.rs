//! The benchmark's own trace: host-clock spans around each call it makes
//! into a layer's public API.
//!
//! Spans live in memory and are written out when the run ends (see
//! `trace_<workload>.json` in the README). They are recorded from this
//! package only — spans inside the crates are a later change.

use std::time::Instant;

use serde_json::{json, Value};

/// One completed (or still open) span on the host clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran: `<layer>.<function>` for API calls, a bare word for the
    /// benchmark's own sections (`setup`, `timed`, ...).
    pub name: &'static str,
    /// Start, ns since the process's [`Spans::new`].
    pub start_ns: u64,
    /// End, ns since the same origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// API calls the span covers (1 for a facade call, the iteration
    /// count for a layer-replay loop).
    pub calls: u64,
}

/// Span recorder; the origin is the moment it was created.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        self.scope_calls(name, |s| (f(s), 1))
    }

    /// Like [`Spans::scope`] for a loop: `f` also returns how many API
    /// calls it made.
    pub fn scope_calls<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> (R, u64),
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            calls: 0,
        });
        self.open.push(id);
        let (out, calls) = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].calls = calls;
        out
    }

    /// All spans in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Summed duration of the spans called `name` that started inside
    /// the first span called `outer`, in seconds; 0 without such a span.
    pub fn total_within(&self, name: &str, outer: &str) -> f64 {
        let Some(outer) = self.spans.iter().find(|s| s.name == outer) else {
            return 0.0;
        };
        self.spans
            .iter()
            .filter(|s| s.name == name && (outer.start_ns..=outer.end_ns).contains(&s.start_ns))
            .map(|s| s.end_ns - s.start_ns)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Start of the first span called `name`, in seconds since the
    /// origin.
    pub fn start_s(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.start_ns as f64 / 1e9)
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent,
    /// calls}` (`parent` is an index into the same array, or null).
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "parent": s.parent,
                        "calls": s.calls,
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_totals() {
        let mut s = Spans::new();
        s.scope("outer", |s| {
            s.scope("inner", |_| ());
            s.scope_calls("inner", |_| ((), 7));
        });
        let all = s.all();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(0));
        assert_eq!(all[2].calls, 7);
        assert!(all[0].end_ns >= all[2].end_ns);
        assert!(s.total_s("inner") <= s.total_s("outer"));
        s.scope("inner", |_| ());
        assert!(s.total_within("inner", "outer") < s.total_s("inner"));
        assert_eq!(s.total_within("inner", "missing"), 0.0);
        assert_eq!(s.start_s("missing"), None);
    }
}
