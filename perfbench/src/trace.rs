//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Each thread owns a [`Tracer`] (no locking on the hot path); the
//! tracers are merged and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Workload-defined argument: the corpus index of the matrix the
    /// call worked on, or [`NO_TAG`].
    pub tag: u32,
    /// Request id the call served (0 when the call serves no request).
    pub request: u64,
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 at top level).
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_TAG: u32 = u32::MAX;

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-thread span recorder. When off, [`Tracer::span`] just runs its
/// closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u64,
    next: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, thread: u64) -> Tracer {
        Tracer::new(self.on, self.epoch, thread)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: u32,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        self.next += 1;
        let id = (self.thread << 40) | self.next;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.spans.push(Span {
            name,
            tag,
            request,
            id,
            parent,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per span name: call count, total time and self time (total minus
    /// the time covered by child spans), in ms.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ms.entry(s.parent).or_default() += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0);
        }
        out
    }

    /// The self-time table, one line per span name.
    pub fn self_time_table(&self) -> String {
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12}\n",
            "span", "calls", "total_ms", "self_ms"
        );
        for (name, (n, total, own)) in self.self_times() {
            let _ = writeln!(out, "{name:<28} {n:>8} {total:>12.3} {own:>12.3}");
        }
        out
    }

    /// Spans as JSON lines, start-ordered.
    pub fn to_jsonl(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in spans {
            let tag = if s.tag == NO_TAG {
                "null".to_string()
            } else {
                s.tag.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"tag\":{tag},\"request\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.id, s.parent, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 1);
        t.span("outer", NO_TAG, 0, |t| {
            t.span("inner", 0, 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let times = t.self_times();
        let (_, outer_total, outer_self) = times["outer"];
        let (_, inner_total, _) = times["inner"];
        assert!(inner_total >= 5.0);
        assert!((outer_total - inner_total - outer_self).abs() < 1e-9);
        let inner = t
            .spans()
            .iter()
            .find(|s| s.name == "inner")
            .expect("inner span");
        let outer = t
            .spans()
            .iter()
            .find(|s| s.name == "outer")
            .expect("outer span");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.request, 7);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 1);
        assert_eq!(t.span("x", NO_TAG, 0, |_| 3), 3);
        assert!(t.spans().is_empty());
    }
}
