//! In-memory host spans around the ledger's calls into each layer, and
//! the two-clock Chrome trace written from them at exit.

use gpu_sim::TraceBuilder;
use std::collections::BTreeMap;
use std::time::Instant;

/// One host-clock span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `gpu_sim.dtoh`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The call the span belongs to; `0` for setup.
    pub call: u64,
}

/// One event on the simulated clock, placed on a per-device track.
#[derive(Debug, Clone)]
pub struct SimEvent {
    /// Device (track) index.
    pub device: usize,
    /// Kernel or batch name.
    pub name: String,
    /// Start, µs after the start of its call.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
    /// Detail shown in the trace viewer.
    pub args: Vec<(&'static str, String)>,
}

/// Span recorder. While inactive, [`Spans::enter`] and [`Spans::exit`]
/// do nothing, so the same call code runs traced and untraced.
pub struct Spans {
    t0: Instant,
    active: bool,
    call: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
    sim: Vec<SimEvent>,
    /// End of the last recorded call on the simulated clock, µs:
    /// traced calls are laid end to end.
    sim_clock_us: f64,
}

/// Handle of an open span (`None` while the recorder is inactive).
pub type SpanId = Option<usize>;

impl Spans {
    /// An inactive recorder.
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            active: false,
            call: 0,
            open: Vec::new(),
            spans: Vec::new(),
            sim: Vec::new(),
            sim_clock_us: 0.0,
        }
    }

    /// Turn recording on or off for the following spans.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Whether spans are being recorded.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Attribute the following spans to call `call` (`0` = setup).
    pub fn set_call(&mut self, call: u64) {
        self.call = call;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.active {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            call: self.call,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close a span; returns its duration in ns.
    pub fn exit(&mut self, id: SpanId) -> Option<u64> {
        let id = id?;
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        Some(end - span.start_ns)
    }

    /// Record one call's events on the simulated clock, after the
    /// previous recorded call; the call lasted `dur_us` simulated µs.
    pub fn sim_call(&mut self, dur_us: f64, events: impl IntoIterator<Item = SimEvent>) {
        if !self.active {
            return;
        }
        let t0 = self.sim_clock_us;
        self.sim.extend(events.into_iter().map(|mut e| {
            e.start_us += t0;
            e
        }));
        self.sim_clock_us += dur_us;
    }

    /// Every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name over the spans `keep` selects:
    /// `(spans, total self ns)`.
    pub fn self_time_by_name(
        &self,
        keep: impl Fn(&Span) -> bool,
    ) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            if !keep(span) {
                continue;
            }
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += self_ns;
        }
        out
    }

    /// The two-clock Chrome trace: one host track from the spans, one
    /// simulated track per device from the recorded sim events.
    pub fn chrome_trace(&self, title: &str) -> String {
        let mut tb = TraceBuilder::new(title);
        let host = tb.add_track("host clock");
        let devices = self.sim.iter().map(|e| e.device + 1).max().unwrap_or(0);
        let sim: Vec<u32> = (0..devices)
            .map(|d| tb.add_track(&format!("simulated clock, device {d}")))
            .collect();
        for s in &self.spans {
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            tb.span_with_args(
                host,
                "host",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                &[("call", s.call.to_string()), ("parent", parent.to_string())],
            );
        }
        for e in &self.sim {
            tb.span_with_args(sim[e.device], "sim", &e.name, e.start_us, e.dur_us, &e.args);
        }
        tb.finish()
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            call: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("call", 0, 100, None),
            span("select", 10, 40, Some(0)),
            span("dtoh", 50, 70, Some(0)),
            span("inner", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_not_counted_twice() {
        let spans = vec![
            span("call", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 50, 120, Some(0)),
        ];
        // The children cover [10, 100) of the parent.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn inactive_recorder_records_nothing() {
        let mut s = Spans::new();
        let id = s.enter("call");
        assert_eq!(s.exit(id), None);
        assert!(s.spans().is_empty());
        s.set_active(true);
        s.set_call(7);
        let outer = s.enter("call");
        let inner = s.enter("gpu_sim.dtoh");
        s.exit(inner);
        s.exit(outer);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].call, 7);
        let by_name = s.self_time_by_name(|_| true);
        assert_eq!(by_name["gpu_sim.dtoh"].0, 1);
        assert!(s.self_time_by_name(|sp| sp.call == 0).is_empty());
        let kernel = |start_us| SimEvent {
            device: 1,
            name: "k".into(),
            start_us,
            dur_us: 1.0,
            args: Vec::new(),
        };
        s.sim_call(10.0, [kernel(2.0)]);
        s.sim_call(10.0, [kernel(3.0)]);
        let json = s.chrome_trace("t");
        assert!(json.contains("\"name\":\"host clock\""));
        assert!(json.contains("\"name\":\"simulated clock, device 1\""));
        assert!(
            json.contains("\"ts\":13.000"),
            "second call starts at 10 us"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
