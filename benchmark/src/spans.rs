//! The benchmark's own span recorder.
//!
//! Spans are recorded *outside* the program under test: the workload code
//! wraps every call into a layer's public function in [`Tracer::timed`],
//! which always returns the call's wall time (the end-to-end numbers need
//! it) and, when the tracer is recording, also keeps a span — name, start,
//! end, the span that caused it and the run (rep or round) it belongs to —
//! plus the process-wide allocation delta across the call when the binary
//! installed a counting allocator. Spans stay in memory until the workload
//! ends; the traced binary then writes them to `out/trace-<workload>.json`.
//!
//! Names are `layer.function` with the crate name as the layer, so
//! [`Tracer::totals`] groups into the per-layer table directly.

use std::collections::BTreeMap;
use std::time::Instant;

use mop_json::{json, Value};

/// Allocator counters at one instant (process-wide, all threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Counter growth since `earlier`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// How the tracer reaches the counting allocator of the binary it runs in.
/// `mopbench` has none; `mopbench-trace` passes its global allocator's.
#[derive(Debug, Clone, Copy)]
pub struct AllocHooks {
    /// Reads the counters.
    pub snapshot: fn() -> AllocSnapshot,
    /// Turns counting on or off, so untraced units pay one relaxed load per
    /// allocation and nothing else.
    pub switch: fn(bool),
}

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// 0 for set-up, `unit index + 1` for timed units.
    pub run: u32,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub calls: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let span = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index as u32))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = span.start_ns;
    for (start, end) in children {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// Groups `spans` by name. See [`SpanTotals`].
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (index, span) in spans.iter().enumerate() {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_time_ns(spans, index);
        t.allocs += span.allocs;
        t.alloc_bytes += span.alloc_bytes;
    }
    out
}

/// The recorder. See the [module docs](self).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    /// Traced pass: even units run untraced, odd units traced, so one
    /// process yields both walls and their difference is the tracing cost.
    alternate: bool,
    hooks: Option<AllocHooks>,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Tracer {
    /// A tracer that never records: `timed` is two clock reads around the
    /// call. What `mopbench` runs with.
    pub fn off() -> Self {
        Self {
            origin: Instant::now(),
            recording: false,
            alternate: false,
            hooks: None,
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// The traced pass's tracer: records set-up, then alternates untraced
    /// and traced units (see [`Tracer::begin_unit`]).
    pub fn alternating(hooks: Option<AllocHooks>) -> Self {
        let mut tracer = Self {
            alternate: true,
            hooks,
            ..Self::off()
        };
        tracer.set_recording(true);
        tracer
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    /// True for the traced pass (whether or not the current unit records).
    pub fn tracing(&self) -> bool {
        self.alternate
    }

    /// Switches span recording (and allocation counting) on or off.
    pub fn set_recording(&mut self, on: bool) {
        assert!(
            self.open.is_empty(),
            "recording may only change between spans"
        );
        self.recording = on;
        if let Some(hooks) = self.hooks {
            (hooks.switch)(on);
        }
    }

    /// Marks the start of timed unit `index` (a rep or a round). In the
    /// traced pass odd units record and even units do not.
    pub fn begin_unit(&mut self, index: usize) {
        self.run = index as u32 + 1;
        if self.alternate {
            self.set_recording(index % 2 == 1);
        }
    }

    /// Allocator counters now; zeros without a counting allocator.
    pub fn alloc_snapshot(&self) -> AllocSnapshot {
        self.hooks.map(|h| (h.snapshot)()).unwrap_or_default()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f`, returning its result and wall time in seconds; records a
    /// span named `name` when recording. `f` receives the tracer back so
    /// calls nest.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.recording {
            let started = Instant::now();
            let out = f(self);
            return (out, started.elapsed().as_secs_f64());
        }
        let index = self.spans.len() as u32;
        let before = self.alloc_snapshot();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open.push(index);
        let out = f(self);
        let end_ns = self.now_ns();
        let grown = self.alloc_snapshot().since(before);
        self.open.pop();
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        span.allocs = grown.allocs;
        span.alloc_bytes = grown.bytes;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// [`Tracer::timed`] plus the allocator growth across the call (zeros
    /// when not recording or without a counting allocator).
    pub fn measured<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64, AllocSnapshot) {
        let before = self.alloc_snapshot();
        let (out, secs) = self.timed(name, f);
        let grown = if self.recording {
            self.alloc_snapshot().since(before)
        } else {
            Default::default()
        };
        (out, secs, grown)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        totals(&self.spans)
    }

    /// The trace file: one array per field would be smaller, but one object
    /// per span reads directly in any JSON viewer.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id as i64,
                    "name": s.name,
                    "start_ns": s.start_ns as i64,
                    "end_ns": s.end_ns as i64,
                    "parent": s.parent.map_or(Value::Null, |p| Value::from(i64::from(p))),
                    "run": i64::from(s.run),
                    "allocs": s.allocs as i64,
                    "alloc_bytes": s.alloc_bytes as i64,
                })
            })
            .collect();
        json!({ "spans": spans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 1,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("core.run_next", 10, 40, Some(0)),
            span("core.digest", 50, 60, Some(0)),
            // A grandchild never counts against the grandparent directly.
            span("inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 8);
        assert_eq!(self_time_ns(&spans, 2), 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        let spans = vec![
            span("unit", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 230, Some(0)), // overhangs the parent by 30
        ];
        // Covered: [110,170) = 60 and [190,200) = 10.
        assert_eq!(self_time_ns(&spans, 0), 100 - 70);
        let t = totals(&spans);
        assert_eq!(
            t["unit"],
            SpanTotals {
                calls: 1,
                total_ns: 100,
                self_ns: 30,
                ..Default::default()
            }
        );
    }

    #[test]
    fn a_tracer_that_is_off_times_but_records_nothing() {
        let mut tracer = Tracer::off();
        let (value, secs) = tracer.timed("x", |t| t.timed("y", |_| 7).0);
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn alternating_tracer_records_setup_and_odd_units_with_parents() {
        let mut tracer = Tracer::alternating(None);
        tracer.timed("dataset.generate", |_| ());
        for unit in 0..4 {
            tracer.begin_unit(unit);
            tracer.timed("unit", |t| {
                t.timed("core.run_next", |_| std::hint::black_box(1 + 1));
            });
        }
        let names: Vec<(&str, u32, Option<u32>)> = tracer
            .spans()
            .iter()
            .map(|s| (s.name, s.run, s.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                ("dataset.generate", 0, None),
                ("unit", 2, None),
                ("core.run_next", 2, Some(1)),
                ("unit", 4, None),
                ("core.run_next", 4, Some(3)),
            ]
        );
        for s in tracer.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        let totals = tracer.totals();
        assert_eq!(totals["unit"].calls, 2);
        assert!(totals["unit"].self_ns <= totals["unit"].total_ns);
        let doc = tracer.to_json();
        assert_eq!(doc["spans"].as_array().unwrap().len(), 5);
        assert_eq!(doc["spans"][2]["parent"].as_u64(), Some(1));
    }

    #[test]
    fn allocation_deltas_come_from_the_hooks() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static FAKE: AtomicU64 = AtomicU64::new(0);
        fn snapshot() -> AllocSnapshot {
            let n = FAKE.load(Ordering::Relaxed);
            AllocSnapshot {
                allocs: n,
                bytes: n * 64,
            }
        }
        fn switch(_: bool) {}
        let mut tracer = Tracer::alternating(Some(AllocHooks { snapshot, switch }));
        tracer.timed("core.run_next", |_| FAKE.fetch_add(3, Ordering::Relaxed));
        assert_eq!(tracer.spans()[0].allocs, 3);
        assert_eq!(tracer.spans()[0].alloc_bytes, 192);
    }
}
