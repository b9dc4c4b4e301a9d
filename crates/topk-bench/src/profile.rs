//! `topk-bench profile` — the continuous-profiler report.
//!
//! Drains the standard mixed serving workload through one instrumented
//! [`TopKEngine`] and folds what the engine already collected into the
//! operator-facing artefacts of the profiling subsystem:
//!
//! * a per-device **roofline table** ([`gpu_sim::roofline`]): every
//!   kernel's achieved bandwidth/throughput against the
//!   [`DeviceSpec`](gpu_sim::DeviceSpec) peaks, classified memory- vs
//!   compute- vs latency-bound;
//! * the drain's **stage attribution** (queue wait / transfer / kernel
//!   / merge / retry penalty / other);
//! * the **cost-model drift table** (predicted vs observed per plan
//!   bucket) and the tuner's EMA **calibration** state;
//! * any **flight-recorder post-mortems** the drain triggered;
//! * the engine's Prometheus metrics text and a Chrome trace of the
//!   drain.
//!
//! The drain runs at the sweep's widest window, with every option the
//! sweep applies. One deliberately invalid query (`k = 0`) rides along:
//! its terminal failure shows in the per-kind error counters and trips
//! the flight recorder, so the report always carries a real post-mortem
//! document instead of an empty placeholder. `topk-bench engine` writes
//! its observability artifacts from this same drain.

use crate::serving::{drain, mixed_workload, EngineBenchOpts};
use gpu_sim::{render_roofline, roofline, Bound, RooflineRow};
use topk_engine::{chrome_trace, StageBreakdown};

/// Everything one profiling run produces.
#[derive(Debug, Clone)]
pub struct ProfileArtifacts {
    /// Aligned text report (rooflines, stages, drift, calibration) for
    /// the CLI.
    pub text: String,
    /// Self-contained HTML report with inline-SVG roofline bars.
    pub html: String,
    /// Post-mortem JSON documents the drain triggered (at least one:
    /// the induced invalid-query failure).
    pub post_mortems: Vec<String>,
    /// Prometheus text exposition after the drain: latency histograms,
    /// per-kind error counters, algorithm counters and the
    /// `topk_profile_*` and `topk_tuner_drift_*` series.
    pub metrics: String,
    /// Chrome Trace Event Format JSON (one kernel track and one query
    /// track per device).
    pub trace: String,
}

/// Run the profiling drain and render every artefact.
pub fn profile_report(opts: &EngineBenchOpts) -> ProfileArtifacts {
    let mut workload = mixed_workload(opts.queries, opts.full);
    // The induced anomaly: a query no device can serve.
    workload.push((vec![1.0, 2.0], 0));
    let window = opts.widest_window();
    let (mut engine, report) = drain(opts, &workload, window);

    let rooflines: Vec<(usize, Vec<RooflineRow>)> = report
        .devices
        .iter()
        .map(|d| {
            let spec = &engine.config().devices[d.device];
            (d.device, roofline(spec, &d.kernel_reports))
        })
        .collect();

    let text = render_text(
        window,
        opts.devices,
        report.results.len(),
        &rooflines,
        &report.stages,
        &engine.drift_table_text(),
        &engine.calibration(),
    );
    let post_mortems = engine.take_post_mortems();
    let html = render_html(&text, &rooflines, &post_mortems);
    ProfileArtifacts {
        text,
        html,
        post_mortems,
        metrics: engine.render_prometheus(),
        trace: chrome_trace(&report),
    }
}

fn render_text(
    window: usize,
    devices: usize,
    queries: usize,
    rooflines: &[(usize, Vec<RooflineRow>)],
    stages: &StageBreakdown,
    drift_text: &str,
    calibration: &[(&'static str, f64)],
) -> String {
    let mut out = format!(
        "=== Continuous profile: {queries} queries, {devices} devices, window {window} ===\n"
    );
    for (dev, rows) in rooflines {
        out.push_str(&format!("\n-- device {dev} roofline --\n"));
        out.push_str(&render_roofline(rows));
    }
    out.push_str("\n-- stage attribution (drain total) --\n");
    for (stage, us) in stages.rows() {
        out.push_str(&format!("{stage:<14} {us:>12.1} us\n"));
    }
    out.push_str("\n-- cost-model drift (observed / predicted per plan bucket) --\n");
    out.push_str(drift_text);
    out.push_str("\n-- tuner calibration (EMA factor per family) --\n");
    if calibration.is_empty() {
        out.push_str("(no tuner)\n");
    }
    for (family, factor) in calibration {
        out.push_str(&format!("{family:<10} {factor:>7.3}\n"));
    }
    out
}

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn bound_colour(bound: Bound) -> &'static str {
    match bound {
        Bound::Memory => "#1f6feb",
        Bound::Compute => "#cf222e",
        Bound::Latency => "#888888",
    }
}

/// Horizontal %-of-peak bars, one per kernel: the filled fraction is
/// the binding resource's achieved/peak ratio, coloured by the
/// roofline classification.
fn svg_roofline_bars(device: usize, rows: &[RooflineRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let (w, row_h, ml) = (860.0, 22.0, 280.0);
    let h = 40.0 + row_h * rows.len() as f64;
    let pw = w - ml - 80.0;
    let mut svg = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w:.0}\" height=\"{h:.0}\" \
         font-family=\"sans-serif\" font-size=\"11\">\n\
         <text x=\"0\" y=\"16\" font-size=\"13\" font-weight=\"bold\">device {device} \
         — percent of peak for the binding resource</text>\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let y = 30.0 + row_h * i as f64;
        let frac = match r.bound {
            Bound::Compute => r.peak_ops_frac,
            _ => r.peak_bw_frac,
        }
        .clamp(0.0, 1.0);
        svg.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>\n\
             <rect x=\"{ml}\" y=\"{y:.1}\" width=\"{pw:.1}\" height=\"14\" fill=\"#eee\"/>\n\
             <rect x=\"{ml}\" y=\"{y:.1}\" width=\"{:.1}\" height=\"14\" fill=\"{}\"/>\n\
             <text x=\"{:.1}\" y=\"{:.1}\">{:.0}% {} ({} launches)</text>\n",
            ml - 8.0,
            y + 11.0,
            esc(&r.kernel),
            pw * frac,
            bound_colour(r.bound),
            ml + pw + 6.0,
            y + 11.0,
            frac * 100.0,
            r.bound.label(),
            r.launches,
        ));
    }
    svg.push_str("</svg>\n");
    svg
}

fn render_html(
    text: &str,
    rooflines: &[(usize, Vec<RooflineRow>)],
    post_mortems: &[String],
) -> String {
    let mut html = String::from(
        "<!doctype html><html><head><meta charset=\"utf-8\">\
         <title>gpu-topk continuous profile</title>\
         <style>body{font-family:sans-serif;max-width:1080px;margin:24px auto;}\
         pre{background:#f6f8fa;padding:12px;overflow-x:auto;font-size:12px;}\
         h2{border-bottom:1px solid #ddd;padding-bottom:4px;}</style>\
         </head><body>\n<h1>gpu-topk continuous profile</h1>\n\
         <p>Per-kernel roofline aggregation, stage-level latency \
         attribution, cost-model drift and flight-recorder post-mortems \
         from one instrumented TopKEngine drain. Blue bars are \
         memory-bound kernels, red compute-bound, grey latency-bound.</p>\n",
    );
    html.push_str("<h2>Roofline</h2>\n");
    for (dev, rows) in rooflines {
        html.push_str(&svg_roofline_bars(*dev, rows));
    }
    html.push_str(&format!(
        "<h2>Profile tables</h2>\n<pre>{}</pre>\n",
        esc(text)
    ));
    if !post_mortems.is_empty() {
        html.push_str(&format!(
            "<h2>Flight-recorder post-mortems ({})</h2>\n",
            post_mortems.len()
        ));
        for pm in post_mortems {
            html.push_str(&format!("<pre>{}</pre>\n", esc(pm)));
        }
    }
    html.push_str("</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_report_is_complete_and_triggers_a_post_mortem() {
        let opts = EngineBenchOpts {
            queries: 12,
            devices: 2,
            windows: vec![4],
            ..Default::default()
        };
        let art = profile_report(&opts);
        assert!(art.text.contains("device 0 roofline"), "{}", art.text);
        assert!(art.text.contains("stage attribution"), "{}", art.text);
        assert!(art.text.contains("cost-model drift"), "{}", art.text);
        assert!(art.text.contains("tuner calibration"), "{}", art.text);
        // The induced k=0 failure must have tripped the recorder.
        assert!(!art.post_mortems.is_empty());
        assert!(art.post_mortems[0].contains("\"trigger\""));
        assert!(art.html.contains("<svg"), "roofline bars present");
        assert!(art.html.contains("Flight-recorder post-mortems"));
        assert!(art.metrics.contains("topk_profile_peak_bw_frac"));
        assert!(art.metrics.contains("topk_tuner_drift_ratio"));
        assert!(art.metrics.contains("topk_engine_stage_us"));
        assert!(art
            .metrics
            .contains("topk_engine_query_latency_us_bucket{le=\"1\"}"));
        assert!(art
            .metrics
            .contains("topk_engine_query_errors_total{kind=\"invalid_k\"} 1"));
        assert!(art.metrics.contains("topk_air_adaptive_skips_total"));
        assert!(art.trace.contains("device 0 kernels"));
        assert!(art.trace.contains("device 1 kernels"));
        assert!(art.trace.trim_end().ends_with('}'));
    }

    /// The profiling drain runs with the sweep's recall target, so the
    /// approximate rungs it permits serve queries there too.
    #[test]
    fn profile_report_applies_the_recall_target() {
        let opts = EngineBenchOpts {
            queries: 32,
            devices: 2,
            windows: vec![4],
            fault_seed: Some(29),
            fault_rate: 0.10,
            ..Default::default()
        };
        let approx_served = |opts: &EngineBenchOpts| -> u64 {
            let metrics = profile_report(opts).metrics;
            metrics
                .lines()
                .filter(|l| l.starts_with("topk_engine_approx_served_total{"))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        assert_eq!(approx_served(&opts), 0, "exact-only without a target");
        let target = EngineBenchOpts {
            recall_target: Some(0.9),
            ..opts
        };
        assert!(
            approx_served(&target) > 0,
            "the target permits approximation"
        );
    }

    #[test]
    fn roofline_bars_escape_and_scale() {
        let rows = vec![RooflineRow {
            kernel: "air<hist>".into(),
            launches: 3,
            exec_us: 10.0,
            mem_bytes: 1 << 20,
            compute_ops: 1 << 18,
            lanes: 4096,
            occupancy: 0.9,
            achieved_bw: 500.0,
            achieved_ops: 100.0,
            peak_bw_frac: 0.4,
            peak_ops_frac: 0.1,
            intensity: 0.25,
            bound: Bound::Memory,
        }];
        let svg = svg_roofline_bars(0, &rows);
        assert!(svg.contains("air&lt;hist&gt;"));
        assert!(!svg.contains("air<hist>"));
        assert!(svg.contains("#1f6feb"), "memory-bound colour");
        assert_eq!(svg_roofline_bars(0, &[]), "");
    }
}
