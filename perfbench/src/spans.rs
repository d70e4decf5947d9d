//! The benchmark's own host-clock spans, recorded around every call it
//! makes into a layer's public functions (and around its own generation
//! and checking work). Spans stay in memory and are written out at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `parent` indexes the enclosing span, if any.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
    /// Id of the span, unique within one run.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans when on; does nothing when off.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn start(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Set the round id stamped on spans opened from now on.
    pub fn set_round(&mut self, round: usize) {
        self.round = round as u32;
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            round: self.round,
            op: idx as u64,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn close(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close in LIFO order");
        self.spans[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Self time per span: its duration minus the time its children cover.
    /// Children of one parent never overlap (one thread records them).
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self time per layer, in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer()).or_insert(0) += ns;
        }
        out
    }

    /// Total duration and count of spans named `name`.
    pub fn busy(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// Time covered by the children of spans named `parent`.
    pub fn child_cover_ns(&self, parent: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == parent))
            .map(Span::dur_ns)
            .sum()
    }

    /// The spans as JSON lines: one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.round, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::start(true);
        t.span("bench.round", || {});
        t.set_round(1);
        let outer = t.open("bench.round");
        t.span("core.insert_edges", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let layers = t.layer_self_ns();
        let (round_ns, rounds) = t.busy("bench.round");
        assert_eq!(rounds, 2);
        assert!(layers["core"] >= 2_000_000);
        assert_eq!(layers["bench"] + layers["core"], round_ns);
        assert_eq!(t.child_cover_ns("bench.round"), layers["core"]);
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[2].round, 1);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::start(false);
        assert_eq!(t.span("core.insert_edges", || 7), 7);
        assert!(t.spans.is_empty());
    }
}
