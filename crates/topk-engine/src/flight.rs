//! The engine's event log: every scheduling fact as one typed
//! [`EngineEvent`] in an always-on, bounded ring buffer, plus the JSON
//! post-mortem dumped when something goes wrong.
//!
//! Every [`TopKEngine`](crate::TopKEngine) keeps its last
//! [`FlightRecorder::capacity`] events at a fixed cost. When a query
//! terminally fails or misses its deadline, a breaker trips or a device
//! is retired, the engine snapshots the buffer — with per-device state,
//! the injected-fault log and the cost-model drift table — into a
//! self-contained document
//! ([`TopKEngine::post_mortems`](crate::TopKEngine::post_mortems)).
//! An event's `kind` label and `detail` text are rendered from it on
//! demand. Recording is host-side bookkeeping that never touches a
//! device clock, so chaos digests are identical whether or not the
//! recorder is read.

use crate::ApproxRung;
use std::collections::VecDeque;

/// One engine fact, as the scheduler observed it. Ids are submission
/// ids, `n`/`k` a row length and K, `attempt` a 1-based attempt number,
/// and error kinds [`TopKError::kind`](topk_core::TopKError::kind)
/// labels.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A query entered the submission queue.
    Submit { id: usize, n: usize, k: usize },
    /// A submission was refused: the queue holds `capacity` queries.
    QueueReject { capacity: usize },
    /// A batch of `size` same-shape queries was formed at drain start.
    Coalesce { size: usize, n: usize, k: usize },
    /// A batch attempt was placed on a device.
    Launch {
        attempt: u32,
        size: usize,
        n: usize,
        k: usize,
    },
    /// An accuracy-ladder transition: the attempt runs on `rung`
    /// because of `cause` (`deadline_risk` or `capacity_loss`), for a
    /// batch whose strictest recall target is `recall_target`, at
    /// analytic expected recall `est_recall`. Deliberately *not* a
    /// trigger: degrading is the plan working, not an anomaly.
    DegradeRung {
        rung: ApproxRung,
        cause: &'static str,
        recall_target: f64,
        est_recall: f64,
    },
    /// A batch attempt of `size` queries completed on its device.
    BatchOk { size: usize, attempt: u32 },
    /// A batch completed on another device than `first_device`, where
    /// its first attempt ran.
    Failover { first_device: usize },
    /// A batch attempt returned a device fault; `severe` (a hang)
    /// retires the device.
    DeviceFault { kind: &'static str, severe: bool },
    /// A device was retired for good by a fault of `kind`, or by a
    /// worker panic when `kind` is `None`.
    DeviceFailed { kind: Option<&'static str> },
    /// A device's breaker tripped after `consecutive` faults and
    /// quarantines it for `cooldown_us`.
    BreakerOpen { consecutive: u32, cooldown_us: f64 },
    /// A faulted batch was requeued after `attempt` attempts, behind a
    /// simulated `backoff_us`.
    Retry { attempt: u32, backoff_us: f64 },
    /// A query terminally missed `deadline_us` (µs after drain start);
    /// `in_backoff` when it expired during a retry backoff.
    DeadlineMiss {
        id: usize,
        deadline_us: u64,
        in_backoff: bool,
    },
    /// A query failed terminally with an error of `kind`.
    QueryFailed { id: usize, kind: &'static str },
    /// A query was answered by the CPU reference path after
    /// `attempts` GPU attempts.
    Fallback { id: usize, attempts: u32 },
    /// A batch attempt panicked on its device worker.
    WorkerPanic,
}

impl EngineEvent {
    /// Stable snake_case kind label.
    pub fn kind(&self) -> &'static str {
        use EngineEvent::*;
        match self {
            Submit { .. } => "submit",
            QueueReject { .. } => "queue_reject",
            Coalesce { .. } => "coalesce",
            Launch { .. } => "launch",
            DegradeRung { .. } => "degrade_rung",
            BatchOk { .. } => "batch_ok",
            Failover { .. } => "failover",
            DeviceFault { .. } => "device_fault",
            DeviceFailed { .. } => "device_failed",
            BreakerOpen { .. } => "breaker_open",
            Retry { .. } => "retry",
            DeadlineMiss { .. } => "deadline_miss",
            QueryFailed { .. } => "query_failed",
            Fallback { .. } => "fallback",
            WorkerPanic => "worker_panic",
        }
    }

    /// Human-readable context (shape, error kind, attempt number, …):
    /// the one place any event's detail text is rendered.
    pub fn detail(&self) -> String {
        use EngineEvent::*;
        match *self {
            Submit { id, n, k } => format!("id={id} n={n} k={k}"),
            QueueReject { capacity } => format!("capacity={capacity}"),
            Coalesce { size, n, k } => format!("size={size} n={n} k={k}"),
            Launch {
                attempt,
                size,
                n,
                k,
            } => format!("attempt={attempt} size={size} n={n} k={k}"),
            DegradeRung {
                rung,
                cause,
                recall_target,
                est_recall,
            } => format!(
                "rung={} cause={cause} recall_target={recall_target:.4} est_recall={est_recall:.4}",
                rung.label()
            ),
            BatchOk { size, attempt } => format!("size={size} attempt={attempt}"),
            Failover { first_device } => format!("first_device={first_device}"),
            DeviceFault { kind, severe } => format!("kind={kind} severe={severe}"),
            DeviceFailed { kind: Some(kind) } => format!("kind={kind}"),
            DeviceFailed { kind: None } => "worker panic".to_string(),
            BreakerOpen {
                consecutive,
                cooldown_us,
            } => format!("consecutive={consecutive} cooldown_us={cooldown_us:.0}"),
            Retry {
                attempt,
                backoff_us,
            } => format!("attempt={attempt} backoff_us={backoff_us:.1}"),
            DeadlineMiss {
                id,
                deadline_us,
                in_backoff,
            } => {
                let when = if in_backoff {
                    " expired during backoff"
                } else {
                    ""
                };
                format!("id={id} deadline_us={deadline_us}{when}")
            }
            QueryFailed { id, kind } => format!("id={id} kind={kind}"),
            Fallback { id, attempts } => format!("id={id} cpu attempts={attempts}"),
            WorkerPanic => String::new(),
        }
    }

    /// Whether this event triggers a post-mortem dump: a terminal
    /// query failure, a missed deadline, a breaker trip, or a device
    /// retired from the pool.
    pub fn is_trigger(&self) -> bool {
        use EngineEvent::*;
        matches!(
            self,
            QueryFailed { .. } | DeadlineMiss { .. } | BreakerOpen { .. } | DeviceFailed { .. }
        )
    }
}

/// One recorded engine event with its place in time.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number over the engine's lifetime (keeps
    /// ordering intact even after the ring buffer wraps).
    pub seq: u64,
    /// Drain-relative simulated time the event was observed at, µs
    /// (0.0 for submissions, which precede the drain clock).
    pub t_us: f64,
    /// Pool device involved, if any.
    pub device: Option<usize>,
    /// Tracing span of the query or batch involved, if any.
    pub span: Option<u64>,
    /// What happened.
    pub event: EngineEvent,
}

impl FlightEvent {
    /// The event's kind label ([`EngineEvent::kind`]).
    pub fn kind(&self) -> &'static str {
        self.event.kind()
    }

    /// The event's detail text ([`EngineEvent::detail`]).
    pub fn detail(&self) -> String {
        self.event.detail()
    }
}

/// Bounded ring buffer of [`FlightEvent`]s. Pushing beyond the
/// capacity evicts the oldest event; the sequence numbers keep the
/// global ordering reconstructible.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    next_seq: u64,
    events: VecDeque<FlightEvent>,
}

impl FlightRecorder {
    /// Recorder holding at most `capacity` events (min 16).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(16),
            next_seq: 0,
            events: VecDeque::new(),
        }
    }

    /// The bound on retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded (the next event's sequence number).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Append one event, evicting the oldest when full. Returns the
    /// event's sequence number.
    pub fn record(
        &mut self,
        device: Option<usize>,
        span: Option<u64>,
        t_us: f64,
        event: EngineEvent,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(FlightEvent {
            seq,
            t_us,
            device,
            span,
            event,
        });
        seq
    }
}

/// Per-device state row of a post-mortem document.
#[derive(Debug, Clone)]
pub struct PmDevice {
    /// Pool index.
    pub device: usize,
    /// `"ok"` / `"quarantined"` / `"failed"` at dump time.
    pub health: &'static str,
    /// Drain-relative device clock at dump time, µs.
    pub elapsed_us: f64,
    /// Batches executed this drain so far.
    pub batches: usize,
    /// Lifetime device faults.
    pub faults: u64,
    /// Injected faults this drain, as `kind@seq` labels.
    pub fault_events: Vec<String>,
    /// Sanitizer occurrences flagged this drain.
    pub sanitizer_occurrences: u64,
}

/// One cost-model drift row of a post-mortem document.
#[derive(Debug, Clone)]
pub struct PmDrift {
    /// Plan-key bucket label.
    pub key: String,
    /// Winning configuration label.
    pub algo: String,
    /// Observations folded into the row.
    pub samples: u64,
    /// Calibrated prediction of the most recent dispatch, µs.
    pub predicted_us: f64,
    /// Most recent observed batch latency, µs.
    pub observed_us: f64,
    /// Mean observed/predicted ratio (1.0 = the model is honest).
    pub mean_ratio: f64,
}

/// Minimal JSON string escaping (backslash, quote, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Render a post-mortem as a self-contained JSON document:
/// the trigger, the retained event window, per-device snapshots, the
/// cost-model drift table, and the tuner's calibration state.
pub fn render_post_mortem(
    trigger: &str,
    trigger_seq: u64,
    clock_us: f64,
    recorder: &FlightRecorder,
    devices: &[PmDevice],
    drift: &[PmDrift],
    calibration: &[(&'static str, f64)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"trigger\": {},\n", json_str(trigger)));
    out.push_str(&format!("  \"trigger_seq\": {trigger_seq},\n"));
    out.push_str(&format!("  \"clock_us\": {},\n", json_f64(clock_us)));
    out.push_str(&format!(
        "  \"events_recorded\": {},\n",
        recorder.recorded()
    ));
    out.push_str("  \"events\": [\n");
    let n = recorder.len();
    for (i, e) in recorder.events().enumerate() {
        out.push_str(&format!(
            "    {{\"seq\": {}, \"t_us\": {}, \"kind\": {}, \"device\": {}, \"span\": {}, \"detail\": {}}}{}\n",
            e.seq,
            json_f64(e.t_us),
            json_str(e.kind()),
            e.device.map_or("null".to_string(), |d| d.to_string()),
            e.span.map_or("null".to_string(), |s| s.to_string()),
            json_str(&e.detail()),
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"devices\": [\n");
    for (i, d) in devices.iter().enumerate() {
        let faults: Vec<String> = d.fault_events.iter().map(|f| json_str(f)).collect();
        out.push_str(&format!(
            "    {{\"device\": {}, \"health\": {}, \"elapsed_us\": {}, \"batches\": {}, \"faults\": {}, \"fault_events\": [{}], \"sanitizer_occurrences\": {}}}{}\n",
            d.device,
            json_str(d.health),
            json_f64(d.elapsed_us),
            d.batches,
            d.faults,
            faults.join(", "),
            d.sanitizer_occurrences,
            if i + 1 < devices.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"drift\": [\n");
    for (i, r) in drift.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"key\": {}, \"algo\": {}, \"samples\": {}, \"predicted_us\": {}, \"observed_us\": {}, \"mean_ratio\": {}}}{}\n",
            json_str(&r.key),
            json_str(&r.algo),
            r.samples,
            json_f64(r.predicted_us),
            json_f64(r.observed_us),
            json_f64(r.mean_ratio),
            if i + 1 < drift.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"calibration\": [\n");
    for (i, (family, factor)) in calibration.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"family\": {}, \"factor\": {}}}{}\n",
            json_str(family),
            json_f64(*factor),
            if i + 1 < calibration.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_evicts_oldest_but_keeps_sequence() {
        let mut r = FlightRecorder::new(16);
        for i in 0..40 {
            r.record(Some(0), None, i as f64, EngineEvent::WorkerPanic);
        }
        assert_eq!(r.len(), 16);
        assert_eq!(r.recorded(), 40);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs.first(), Some(&24));
        assert_eq!(seqs.last(), Some(&39));
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn kind_and_detail_render_from_the_event() {
        let cases = [
            (
                EngineEvent::Submit {
                    id: 3,
                    n: 4096,
                    k: 8,
                },
                "submit",
                "id=3 n=4096 k=8",
            ),
            (
                EngineEvent::DegradeRung {
                    rung: ApproxRung::Bucketed,
                    cause: "capacity_loss",
                    recall_target: 0.9,
                    est_recall: 0.93456,
                },
                "degrade_rung",
                "rung=approx_bucketed cause=capacity_loss recall_target=0.9000 est_recall=0.9346",
            ),
            (
                EngineEvent::DeviceFailed { kind: None },
                "device_failed",
                "worker panic",
            ),
            (
                EngineEvent::BreakerOpen {
                    consecutive: 3,
                    cooldown_us: 5000.0,
                },
                "breaker_open",
                "consecutive=3 cooldown_us=5000",
            ),
            (
                EngineEvent::Retry {
                    attempt: 2,
                    backoff_us: 200.0,
                },
                "retry",
                "attempt=2 backoff_us=200.0",
            ),
            (
                EngineEvent::DeadlineMiss {
                    id: 4,
                    deadline_us: 90,
                    in_backoff: true,
                },
                "deadline_miss",
                "id=4 deadline_us=90 expired during backoff",
            ),
            (EngineEvent::WorkerPanic, "worker_panic", ""),
        ];
        for (event, kind, detail) in cases {
            assert_eq!(event.kind(), kind);
            assert_eq!(event.detail(), detail);
        }
    }

    #[test]
    fn triggers_are_the_four_anomaly_kinds() {
        let triggers = [
            EngineEvent::QueryFailed {
                id: 0,
                kind: "invalid_k",
            },
            EngineEvent::DeadlineMiss {
                id: 0,
                deadline_us: 1,
                in_backoff: false,
            },
            EngineEvent::BreakerOpen {
                consecutive: 3,
                cooldown_us: 1.0,
            },
            EngineEvent::DeviceFailed { kind: None },
        ];
        assert!(triggers.iter().all(EngineEvent::is_trigger));
        assert!(!EngineEvent::WorkerPanic.is_trigger());
        assert!(!EngineEvent::DeviceFault {
            kind: "device_hang",
            severe: true,
        }
        .is_trigger());
        assert!(!EngineEvent::Failover { first_device: 0 }.is_trigger());
    }

    #[test]
    fn post_mortem_is_valid_shaped_json() {
        let mut r = FlightRecorder::new(16);
        r.record(
            None,
            Some(1),
            0.0,
            EngineEvent::QueryFailed {
                id: 0,
                kind: "say \"quoted\"",
            },
        );
        r.record(
            Some(0),
            Some(1),
            9.5,
            EngineEvent::DeadlineMiss {
                id: 0,
                deadline_us: 5,
                in_backoff: false,
            },
        );
        let devices = vec![PmDevice {
            device: 0,
            health: "ok",
            elapsed_us: 9.5,
            batches: 1,
            faults: 0,
            fault_events: vec!["launch_fail@0".into()],
            sanitizer_occurrences: 0,
        }];
        let drift = vec![PmDrift {
            key: "n2^12 k2^5 b2^0 d0".into(),
            algo: "air:11".into(),
            samples: 3,
            predicted_us: 50.0,
            observed_us: 61.0,
            mean_ratio: 1.22,
        }];
        let json = render_post_mortem(
            "deadline_miss",
            1,
            9.5,
            &r,
            &devices,
            &drift,
            &[("air", 1.1)],
        );
        assert!(json.contains("\"trigger\": \"deadline_miss\""));
        assert!(json.contains("\\\"quoted\\\""), "details must be escaped");
        assert!(json.contains("\"drift\""));
        assert!(json.contains("\"calibration\""));
        // Balanced braces/brackets — cheap structural sanity.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
