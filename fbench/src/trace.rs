//! In-memory span recording for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions: name, start, end, parent span and request id. Spans
//! stay in memory and are written out when the run ends. A layer's self
//! time is its span's duration minus the part of that interval covered by
//! its child spans (children may overlap when they run on several threads).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been opened but not yet closed.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: String,
    request: u64,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<u64>, request: u64) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            request,
            start_ns: self.now_ns(),
        }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            request: open.request,
            start_ns: open.start_ns,
            end_ns,
        };
        let secs = span.duration_ns() as f64 / 1e9;
        self.spans.lock().expect("span list lock poisoned by a panicking recorder").push(span);
        secs
    }

    /// All spans recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned by a panicking recorder").clone()
    }
}

/// Per-name totals: count, summed duration and summed self time, in ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it. Returned index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Aggregates spans by name into a self-time table.
pub fn layer_table(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let selfs = self_times(spans);
    let mut table: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = table.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += own;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: name.to_string(), request: 7, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "request", 0, 100),
            // Two children overlapping in [20, 30): together they cover 40.
            span(2, Some(1), "kernel", 10, 30),
            span(3, Some(1), "kernel", 20, 50),
            // A grandchild counts against its own parent only.
            span(4, Some(2), "pool", 12, 15),
            // A child running past its parent is clipped to the parent.
            span(5, Some(3), "pool", 45, 60),
        ];
        assert_eq!(self_times(&spans), vec![60, 17, 25, 3, 15]);
        let t = layer_table(&spans);
        assert_eq!(t["request"], LayerTime { count: 1, total_ns: 100, self_ns: 60 });
        assert_eq!(t["kernel"], LayerTime { count: 2, total_ns: 50, self_ns: 42 });
        assert_eq!(t["pool"], LayerTime { count: 2, total_ns: 18, self_ns: 18 });
    }

    #[test]
    fn tracer_records_nesting() {
        let tr = Tracer::default();
        let outer = tr.open("outer", None, 3);
        let inner = tr.open("inner", Some(outer.id()), 3);
        std::hint::black_box(1 + 1);
        tr.close(inner);
        tr.close(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let selfs = self_times(&spans);
        assert_eq!(selfs[1], outer.duration_ns() - inner.duration_ns());
    }
}
