//! In-memory span ledger for traced runs.
//!
//! Every span carries a name, start and end (nanoseconds since the
//! ledger's origin), the index of its parent span and the id of the
//! request it belongs to. Spans are recorded around calls into each
//! layer's public functions from this benchmark's own code, kept in
//! memory, and written out once the run ends. A span's self time is its
//! duration minus the time its direct children cover, so the self times
//! of a root and all its descendants add up to the root's duration
//! exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::Reconciliation;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `hw.sort_full`.
    pub name: &'static str,
    /// Start, in nanoseconds since the ledger's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the ledger's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The request (or repetition) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans of one run, in the order they were opened.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    /// An empty ledger whose clock starts now.
    pub fn new() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index`, which must be the innermost open one.
    pub fn close(&mut self, index: usize) {
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `work` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request: u64, work: impl FnOnce() -> T) -> T {
        let span = self.open(name, request);
        let out = work();
        self.close(span);
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_ns();
            }
        }
        own
    }

    /// Durations of the roots named `root`, in seconds.
    pub fn root_secs(&self, root: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Summed self seconds per span name under roots named `root` (the
    /// roots' own self time is not included).
    pub fn layer_secs(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let own = self.self_ns();
        let mut root_of: Vec<usize> = Vec::with_capacity(self.spans.len());
        let mut layers = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let top = span.parent.map_or(i, |p| root_of[p]);
            root_of.push(top);
            if span.parent.is_some() && self.spans[top].name == root {
                *layers.entry(span.name).or_insert(0.0) += own[i] as f64 * 1e-9;
            }
        }
        layers
    }

    /// The roots named `root` reconciled: their summed duration against
    /// the summed self time of every layer beneath them (in `order`,
    /// then any other names), with the roots' own self time as the
    /// residual. The three are summed independently; they agree whenever
    /// the spans nest, which [`Ledger::close`] asserts.
    pub fn reconcile(&self, root: &str, order: &[&str]) -> Reconciliation {
        let own = self.self_ns();
        let (mut total, mut residual) = (0.0, 0.0);
        for (span, own) in self.spans.iter().zip(&own) {
            if span.parent.is_none() && span.name == root {
                total += span.duration_ns() as f64 * 1e-9;
                residual += *own as f64 * 1e-9;
            }
        }
        let mut layers = self.layer_secs(root);
        let mut parts: Vec<(String, f64)> = order
            .iter()
            .map(|name| (name.to_string(), layers.remove(name).unwrap_or(0.0)))
            .collect();
        parts.extend(layers.into_iter().map(|(name, v)| (name.to_string(), v)));
        Reconciliation {
            total,
            parts,
            residual,
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let until = Instant::now() + std::time::Duration::from_micros(micros);
        while Instant::now() < until {}
    }

    #[test]
    fn self_times_add_up_to_each_root() {
        let mut ledger = Ledger::new();
        for request in 0..3 {
            let root = ledger.open("request", request);
            ledger.time("a", request, || spin(50));
            let mid = ledger.open("b", request);
            ledger.time("c", request, || spin(20));
            spin(10);
            ledger.close(mid);
            spin(5);
            ledger.close(root);
        }
        let own = ledger.self_ns();
        let total: u64 = ledger
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        assert_eq!(
            own.iter().sum::<u64>(),
            total,
            "self times partition the roots"
        );

        let r = ledger.reconcile("request", &["a", "b"]);
        assert!(r.balances(1e-9));
        assert_eq!(r.parts[0].0, "a");
        assert_eq!(r.parts[2].0, "c");
        assert!(r.residual >= 0.0);
        assert_eq!(ledger.root_secs("request").len(), 3);
        assert!(ledger.layer_secs("request")["a"] >= 150e-6);
    }

    #[test]
    fn roots_are_reconciled_separately() {
        let mut ledger = Ledger::new();
        let root = ledger.open("request", 0);
        ledger.time("x", 0, || spin(5));
        ledger.close(root);
        let other = ledger.open("reference", 0);
        ledger.time("y", 0, || spin(5));
        ledger.close(other);
        assert!(!ledger.layer_secs("request").contains_key("y"));
        assert!(!ledger.layer_secs("reference").contains_key("x"));
        assert_eq!(ledger.spans()[1].parent, Some(0));
        assert_eq!(ledger.spans()[3].parent, Some(2));
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn out_of_order_close_panics() {
        let mut ledger = Ledger::new();
        let outer = ledger.open("outer", 0);
        let _inner = ledger.open("inner", 0);
        ledger.close(outer);
    }
}
