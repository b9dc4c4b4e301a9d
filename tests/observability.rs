//! End-to-end observability: drain a mixed workload through an
//! instrumented engine and check the two export surfaces — Prometheus
//! text metrics and the Chrome trace — against what actually ran.
//!
//! The trace is validated with a minimal JSON parser (no external
//! crates in this environment), so "valid JSON" is checked for real,
//! not by substring search.

use gpu_topk::prelude::*;
use gpu_topk::topk_engine::chrome_trace;

/// Minimal JSON validity checker: consumes one JSON value and returns
/// the rest of the input, or an error description. Enough of RFC 8259
/// to reject anything chrome://tracing would choke on.
mod json {
    pub fn validate(s: &str) -> Result<(), String> {
        let rest = value(s.trim_start())?;
        if rest.trim_start().is_empty() {
            Ok(())
        } else {
            Err(format!("trailing garbage: {:.40}", rest))
        }
    }

    fn value(s: &str) -> Result<&str, String> {
        let s = s.trim_start();
        match s.chars().next() {
            Some('{') => object(s),
            Some('[') => array(s),
            Some('"') => string(s),
            Some('t') => literal(s, "true"),
            Some('f') => literal(s, "false"),
            Some('n') => literal(s, "null"),
            Some(c) if c == '-' || c.is_ascii_digit() => number(s),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn literal<'a>(s: &'a str, lit: &str) -> Result<&'a str, String> {
        s.strip_prefix(lit)
            .ok_or_else(|| format!("bad literal at {:.20}", s))
    }

    fn number(s: &str) -> Result<&str, String> {
        let end = s
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(s.len());
        let tok = &s[..end];
        tok.parse::<f64>()
            .map_err(|e| format!("bad number {tok:?}: {e}"))?;
        Ok(&s[end..])
    }

    fn string(s: &str) -> Result<&str, String> {
        let mut chars = s.char_indices().skip(1);
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => return Ok(&s[i + 1..]),
                '\\' => {
                    let (_, esc) = chars.next().ok_or("truncated escape")?;
                    if esc == 'u' {
                        for _ in 0..4 {
                            let (_, h) = chars.next().ok_or("truncated \\u escape")?;
                            if !h.is_ascii_hexdigit() {
                                return Err(format!("bad \\u digit {h:?}"));
                            }
                        }
                    } else if !"\"\\/bfnrt".contains(esc) {
                        return Err(format!("bad escape \\{esc}"));
                    }
                }
                c if (c as u32) < 0x20 => return Err("raw control char in string".into()),
                _ => {}
            }
        }
        Err("unterminated string".into())
    }

    fn object(s: &str) -> Result<&str, String> {
        let mut s = s[1..].trim_start();
        if let Some(rest) = s.strip_prefix('}') {
            return Ok(rest);
        }
        loop {
            s = string(s.trim_start())?.trim_start();
            s = s.strip_prefix(':').ok_or("missing ':' in object")?;
            s = value(s)?.trim_start();
            match s.chars().next() {
                Some(',') => s = &s[1..],
                Some('}') => return Ok(&s[1..]),
                other => return Err(format!("bad object separator {other:?}")),
            }
        }
    }

    fn array(s: &str) -> Result<&str, String> {
        let mut s = s[1..].trim_start();
        if let Some(rest) = s.strip_prefix(']') {
            return Ok(rest);
        }
        loop {
            s = value(s)?.trim_start();
            match s.chars().next() {
                Some(',') => s = &s[1..],
                Some(']') => return Ok(&s[1..]),
                other => return Err(format!("bad array separator {other:?}")),
            }
        }
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate(r#"{"a": [1, 2.5e-3, "x\n", true, null], "b": {}}"#).unwrap();
        assert!(validate(r#"{"a": }"#).is_err());
        assert!(validate(r#"[1, 2"#).is_err());
        assert!(validate(r#"{} extra"#).is_err());
    }
}

/// Drain a mixed workload (including one bad query) on two devices.
/// The `2^16, K = 512` shape is one the tuner routes to AIR, so the
/// drain counts AIR passes.
fn drained_engine() -> (TopKEngine, DrainReport) {
    let mut engine = TopKEngine::new(EngineConfig::a100_pool(2).with_window(4));
    for q in 0..12 {
        let (n, k) = [(40_000, 64), (20_000, 64), (1 << 16, 512)][q % 3];
        let data = datagen::generate(Distribution::Uniform, n, q as u64);
        engine.submit(data, k).unwrap();
    }
    engine.submit(vec![1.0, 2.0, 3.0], 0).unwrap(); // InvalidK
    let report = engine.drain();
    (engine, report)
}

#[test]
fn prometheus_export_matches_the_acceptance_criteria() {
    let (engine, report) = drained_engine();
    let text = engine.render_prometheus();

    // Parseable Prometheus text: every non-comment line is
    // `name{labels} value` with a numeric value.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (_, val) = line.rsplit_once(' ').expect("line has a value");
        assert!(
            val.parse::<f64>().is_ok(),
            "non-numeric sample value in {line:?}"
        );
    }

    // Latency histogram with buckets.
    assert!(text.contains("# TYPE topk_engine_query_latency_us histogram"));
    assert!(text.contains("topk_engine_query_latency_us_bucket{le=\"+Inf\"} 13"));
    assert!(text.contains("topk_engine_query_latency_us_count 13"));

    // AIR adaptive counters (present even when zero) and real passes.
    assert!(text.contains("topk_air_adaptive_skips_total"));
    assert!(text.contains("topk_air_buffer_writes_total"));
    assert!(report.algo.air_passes > 0);
    assert!(!text.contains("topk_air_passes_total 0\n"));

    // Per-TopKError-kind error counters, all kinds pre-registered.
    assert!(text.contains("topk_engine_query_errors_total{kind=\"invalid_k\"} 1"));
    for kind in TopKError::KINDS {
        assert!(
            text.contains(&format!(
                "topk_engine_query_errors_total{{kind=\"{kind}\"}}"
            )),
            "missing error series for kind {kind}"
        );
    }
}

#[test]
fn chrome_trace_export_covers_a_real_multi_device_drain() {
    let (_, report) = drained_engine();
    assert!(
        report.devices.iter().all(|d| !d.batches.is_empty()),
        "workload must exercise both devices"
    );
    let trace = chrome_trace(&report);

    // Valid JSON, checked structurally.
    json::validate(&trace).unwrap_or_else(|e| panic!("invalid trace JSON: {e}"));

    // One kernel track and one query track per device.
    for d in &report.devices {
        assert!(trace.contains(&format!("device {} kernels", d.device)));
        assert!(trace.contains(&format!("device {} queries", d.device)));
    }

    // Kernel span count matches the KernelReport count exactly.
    let kernel_reports: usize = report.devices.iter().map(|d| d.kernel_reports.len()).sum();
    assert!(kernel_reports > 0);
    assert_eq!(trace.matches("\"cat\":\"kernel\"").count(), kernel_reports);

    // Every query appears as a service span, and waiting queries have
    // queue-wait spans.
    assert_eq!(
        trace.matches("\"cat\":\"query\"").count(),
        report.results.len()
    );
    let waiters = report
        .results
        .iter()
        .filter(|r| r.queue_wait_us > 0.0)
        .count();
    assert_eq!(trace.matches("\"cat\":\"queue\"").count(), waiters);
}

#[test]
fn spans_thread_from_submission_to_kernel_reports() {
    let (_, report) = drained_engine();
    for r in &report.results {
        assert_ne!(r.span, 0);
        // The query's batch span resolves to tagged kernel launches on
        // its device.
        let dev = &report.devices[r.device];
        let tagged = dev
            .kernel_reports
            .iter()
            .filter(|kr| kr.span == r.batch_span)
            .count();
        if r.outcome.is_ok() {
            assert!(tagged > 0, "query {} has no kernel launches", r.id);
        }
    }
}

/// Every integer value of `"<key>": N` in `json`, in order of
/// appearance.
fn int_values(json: &str, key: &str) -> Vec<u64> {
    let pat = format!("\"{key}\": ");
    json.match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &json[i + pat.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .collect()
}

/// Every string value of `"<key>": "..."` in `json`, in order.
fn str_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    json.match_indices(&pat)
        .filter_map(|(i, _)| {
            let rest = &json[i + pat.len()..];
            rest.find('"').map(|end| &rest[..end])
        })
        .collect()
}

#[test]
fn scripted_fault_produces_a_parseable_post_mortem() {
    // The acceptance scenario: a fault scripted via FaultPlan kills the
    // only batch of the only device; retries and the CPU fallback are
    // disabled so the failure is terminal and the flight recorder must
    // dump a post-mortem.
    let plan = FaultPlan::seeded(7).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::LaunchFail,
        nth: 0,
    });
    let mut engine = TopKEngine::new(
        EngineConfig::a100_pool(1)
            .with_faults(plan)
            .with_retry(RetryPolicy {
                max_retries: 0,
                ..Default::default()
            })
            .with_cpu_fallback(false),
    );
    let data = datagen::generate(Distribution::Uniform, 4096, 1);
    engine.submit(data, 32).unwrap();
    let report = engine.drain();
    assert!(report.results[0].outcome.is_err());

    let pms = engine.take_post_mortems();
    assert_eq!(pms.len(), 1, "exactly one trigger step");
    let pm = &pms[0];
    json::validate(pm).unwrap_or_else(|e| panic!("invalid post-mortem JSON: {e}\n{pm}"));

    assert!(pm.contains("\"trigger\": \"query_failed\""), "{pm}");
    for section in ["\"events\"", "\"devices\"", "\"drift\"", "\"calibration\""] {
        assert!(pm.contains(section), "missing {section}:\n{pm}");
    }
    // Device snapshot: the scripted fault is in the fault log and the
    // lifetime fault counter.
    assert!(pm.contains("launch_fail@"), "{pm}");
    assert!(pm.contains("\"faults\": 1"), "{pm}");

    // The event window tells the story in order: sequence numbers are
    // strictly increasing and the causal chain submit → launch →
    // device_fault → query_failed appears in that order.
    let seqs = int_values(pm, "seq");
    assert!(seqs.len() >= 4, "{pm}");
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "events out of order: {seqs:?}"
    );
    let kinds = str_values(pm, "kind");
    let pos = |k: &str| {
        kinds
            .iter()
            .position(|x| *x == k)
            .unwrap_or_else(|| panic!("no {k} event in {kinds:?}"))
    };
    assert!(pos("submit") < pos("launch"));
    assert!(pos("launch") < pos("device_fault"));
    assert!(pos("device_fault") < pos("query_failed"));
}

#[test]
fn post_mortem_after_successful_batches_carries_the_drift_table() {
    let mut engine = TopKEngine::new(EngineConfig::a100_pool(1).with_window(4));
    for q in 0..8 {
        let data = datagen::generate(Distribution::Uniform, 20_000, q);
        engine.submit(data, 64).unwrap();
    }
    let _ = engine.drain();
    assert!(
        !engine.drift().is_empty(),
        "successful batches populate the drift tracker"
    );
    assert!(engine.take_post_mortems().is_empty(), "clean drain");

    // Now trigger a dump; it must carry the accumulated drift table
    // and the tuner calibration state.
    engine.submit(vec![1.0, 2.0, 3.0], 0).unwrap(); // InvalidK
    let _ = engine.drain();
    let pms = engine.take_post_mortems();
    assert_eq!(pms.len(), 1);
    let pm = &pms[0];
    json::validate(pm).unwrap_or_else(|e| panic!("invalid post-mortem JSON: {e}\n{pm}"));
    let samples = int_values(pm, "samples");
    assert!(
        samples.iter().any(|&s| s > 0),
        "drift rows must be populated:\n{pm}"
    );
    assert!(pm.contains("\"family\""), "calibration rows present:\n{pm}");
    // A second take returns nothing — the dump buffer drains.
    assert!(engine.take_post_mortems().is_empty());
}

#[test]
fn drain_report_attributes_stage_latency() {
    let (_, report) = drained_engine();
    let s = &report.stages;
    assert!(s.kernel_us > 0.0, "kernel time attributed: {s:?}");
    assert!(
        s.queue_wait_us > 0.0,
        "coalescing makes queries wait: {s:?}"
    );
    let total: f64 = s.rows().iter().map(|(_, v)| v).sum();
    assert!(total.is_finite() && total > 0.0);
    // Per-batch attribution is consistent with the per-device records.
    for d in &report.devices {
        for b in &d.batches {
            assert!(b.stages.device_us() >= 0.0);
        }
    }
}

#[test]
fn chaos_digest_is_bit_identical_with_profiling_consumed_or_ignored() {
    // The profiling subsystem is host-side bookkeeping: draining its
    // artifacts (metrics, drift, flight recorder, post-mortems, trace)
    // or changing the recorder capacity must not move a single bit of
    // the same-seed chaos digest.
    let run = |consume: bool, flight_capacity: usize| -> String {
        let mut engine = TopKEngine::new(
            EngineConfig::a100_pool(2)
                .with_window(4)
                .with_faults(FaultPlan::chaos(42, 0.10))
                .with_flight_capacity(flight_capacity),
        );
        for q in 0..24 {
            let n = [40_000, 20_000, 4096][q % 3];
            let data = datagen::generate(Distribution::Uniform, n, q as u64);
            engine.submit(data, 64).unwrap();
        }
        let report = engine.drain();
        if consume {
            let _ = engine.render_prometheus();
            let _ = engine.drift_table_text();
            let _ = engine.calibration();
            let _ = engine.flight_recorder().len();
            let _ = engine.take_post_mortems();
            let _ = chrome_trace(&report);
        }
        report.chaos_digest()
    };
    let baseline = run(false, 256);
    assert_eq!(baseline, run(true, 256), "consuming profiling artifacts");
    assert_eq!(baseline, run(true, 32), "smaller flight recorder");
}

#[test]
fn engine_snapshot_tracks_queue_errors_and_utilization() {
    let (engine, _) = drained_engine();
    let snap = engine.snapshot();
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.queries_submitted, 13);
    assert_eq!(snap.queries_completed, 12);
    assert_eq!(snap.queries_failed, 1);
    assert!(snap
        .errors
        .iter()
        .any(|&(kind, n)| kind == "invalid_k" && n == 1));
    assert!(
        snap.tuner_plan_hits + snap.tuner_plan_misses > 0,
        "the tuner consults its plan table on every dispatch"
    );
    assert_eq!(snap.devices.len(), 2);
    for d in &snap.devices {
        assert!(d.utilization > 0.0 && d.utilization <= 1.0 + 1e-9);
        assert!(d.kernel_launches > 0);
    }
}
