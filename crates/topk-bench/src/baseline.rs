//! `topk-bench baseline` — the tracked perf trajectory.
//!
//! Runs the canonical *adversarial shape matrix* (skewed distributions
//! × large batches × many-small-rows — the regimes the static §5.1
//! heuristics leave on the table) through both dispatchers:
//!
//! * **static** — [`SelectK::static_prior`], the pre-tuner §5.1
//!   guidelines;
//! * **tuned** — [`SelectK::default`], the cost-model-guided
//!   autotuner.
//!
//! Every cell records the simulated latency of both paths, the tuner's
//! winning configuration, and the calibrated cost-model estimate for
//! every viable candidate (the *cost digest*). Simulated time is
//! deterministic, so the emitted `BENCH_10.json` is byte-stable and can
//! be diffed in CI: the `bench-regression` job fails when any cell's
//! tuned digest regresses more than 5% against the committed baseline.
//!
//! Intentional tradeoffs are recorded by regenerating the baseline
//! (`topk-bench baseline --out BENCH_10.json`) and committing the new
//! file; one-off CI overrides set `BENCH_REGRESSION_OK=1` (the check
//! then reports but does not fail).

use datagen::Distribution;
use gpu_sim::{DeviceSpec, Gpu};
use topk_core::tuner::{DistSketch, ProblemShape, Tuner};
use topk_core::SelectK;

/// Regression tolerance: a cell fails the check when its tuned digest
/// exceeds the committed value by more than this factor.
pub const TOLERANCE: f64 = 0.05;

/// One cell of the canonical matrix.
#[derive(Debug, Clone)]
pub struct BaselineCell {
    /// Stable cell name (the JSON key CI diffs against).
    pub name: &'static str,
    /// Row length.
    pub n: usize,
    /// Results per row.
    pub k: usize,
    /// Rows solved together.
    pub batch: usize,
    /// Input distribution.
    pub dist: Distribution,
}

/// The canonical adversarial shape matrix. Cell order is part of the
/// baseline format — append new cells, never reorder.
pub fn canonical_matrix() -> Vec<BaselineCell> {
    vec![
        // The two §5.1 regimes the static prior already serves; the
        // tuner must not lose ground here.
        BaselineCell {
            name: "uniform-large-n-small-k",
            n: 1 << 21,
            k: 32,
            batch: 1,
            dist: Distribution::Uniform,
        },
        BaselineCell {
            name: "uniform-large-n-large-k",
            n: 1 << 21,
            k: 2048,
            batch: 1,
            dist: Distribution::Uniform,
        },
        // Skewed batches: a 24-bit shared prefix degenerates AIR's
        // first radix passes; value-agnostic GridSelect (small K) and
        // sketch-guided RadiK (large K) should take over.
        BaselineCell {
            name: "skew-small-k-batch",
            n: 1 << 18,
            k: 128,
            batch: 32,
            dist: Distribution::RadixAdversarial { m_bits: 24 },
        },
        BaselineCell {
            name: "skew-mid-k-batch",
            n: 1 << 18,
            k: 4096,
            batch: 8,
            dist: Distribution::RadixAdversarial { m_bits: 24 },
        },
        BaselineCell {
            name: "skew-large-k-batch",
            n: 1 << 20,
            k: 4096,
            batch: 16,
            dist: Distribution::RadixAdversarial { m_bits: 24 },
        },
        // Many small rows (the RTop-K regime): one fused launch beats
        // AIR's per-batch multi-pass cascade.
        BaselineCell {
            name: "rows-many-small",
            n: 16_384,
            k: 64,
            batch: 256,
            dist: Distribution::Uniform,
        },
    ]
}

/// Measured + modelled outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell definition this result answers.
    pub cell: BaselineCell,
    /// The tuner's winning configuration (`TunedAlgo::encode`).
    pub algo: String,
    /// Calibrated cost-model estimate per viable candidate, µs.
    pub model_us: Vec<(String, f64)>,
    /// Simulated latency of the static §5.1 dispatcher, µs.
    pub static_us: f64,
    /// Simulated latency of the tuned dispatcher, µs.
    pub tuned_us: f64,
}

impl CellResult {
    /// Static-over-tuned latency ratio (> 1 means the tuner won).
    pub fn speedup(&self) -> f64 {
        self.static_us / self.tuned_us
    }
}

/// The full matrix result.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// One result per canonical cell, in matrix order.
    pub cells: Vec<CellResult>,
    /// Geometric-mean speedup of tuned over static dispatch.
    pub geomean_speedup: f64,
}

fn measure(selector: &SelectK, cell: &BaselineCell, sketch: DistSketch) -> f64 {
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let data = datagen::generate_batch(cell.dist, cell.n, cell.batch, 0x6a5e);
    let inputs: Vec<_> = data
        .iter()
        .enumerate()
        .map(|(i, d)| gpu.htod(&format!("row{i}"), d))
        .collect();
    gpu.reset_profile();
    let r = if cell.batch == 1 {
        selector
            .try_select_with_sketch(&mut gpu, &inputs[0], cell.k, sketch)
            .map(|_| ())
    } else {
        selector
            .try_select_batch_with_sketch(&mut gpu, &inputs, cell.k, sketch)
            .map(|_| ())
    };
    r.unwrap_or_else(|e| panic!("baseline cell {}: {e}", cell.name));
    gpu.elapsed_us()
}

/// Run the canonical matrix through both dispatchers.
pub fn run() -> BaselineReport {
    let spec = DeviceSpec::a100();
    let mut cells = Vec::new();
    let mut log_sum = 0.0f64;
    for cell in canonical_matrix() {
        // Sketch from the actual data, exactly as the engine does at
        // submission time.
        let sample = datagen::generate(cell.dist, cell.n.min(1 << 16), 0x6a5e);
        let sketch = DistSketch::from_sample(&sample);
        let shape = ProblemShape::new(cell.n, cell.k, cell.batch).with_sketch(sketch);

        let tuner = Tuner::new();
        let model_us: Vec<(String, f64)> = Tuner::candidates(&spec, &shape)
            .into_iter()
            .filter_map(|a| tuner.predict_us(&spec, &shape, a).map(|c| (a.encode(), c)))
            .collect();
        let plan = tuner
            .plan(&spec, &shape)
            .expect("a configuration fits every canonical cell");

        let static_us = measure(&SelectK::static_prior(), &cell, sketch);
        let tuned_us = measure(&SelectK::default(), &cell, sketch);

        let result = CellResult {
            cell,
            algo: plan.algo.encode(),
            model_us,
            static_us,
            tuned_us,
        };
        log_sum += result.speedup().ln();
        cells.push(result);
    }
    let geomean_speedup = (log_sum / cells.len() as f64).exp();
    BaselineReport {
        cells,
        geomean_speedup,
    }
}

/// Render the report as the `BENCH_10.json` format: deterministic key
/// order, `{:.3}` µs values, one cell per line.
pub fn to_json(report: &BaselineReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"version\": 1,\n");
    s.push_str(&format!(
        "  \"geomean_speedup\": {:.3},\n",
        report.geomean_speedup
    ));
    s.push_str("  \"cells\": [\n");
    for (i, r) in report.cells.iter().enumerate() {
        let model: Vec<String> = r
            .model_us
            .iter()
            .map(|(a, c)| format!("\"{a}\": {c:.3}"))
            .collect();
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"k\": {}, \"batch\": {}, \"dist\": \"{}\", \
             \"algo\": \"{}\", \"static_us\": {:.3}, \"tuned_us\": {:.3}, \"speedup\": {:.3}, \
             \"model_us\": {{{}}}}}{}\n",
            r.cell.name,
            r.cell.n,
            r.cell.k,
            r.cell.batch,
            r.cell.dist.name(),
            r.algo,
            r.static_us,
            r.tuned_us,
            r.speedup(),
            model.join(", "),
            if i + 1 == report.cells.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extract `(name, tuned_us)` pairs from a committed baseline file.
/// The format is the line-per-cell JSON [`to_json`] writes; this
/// scanner only relies on the `"name"`/`"tuned_us"` keys so appended
/// fields stay compatible.
pub fn parse_cells(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = extract_str(line, "\"name\": \"") else {
            continue;
        };
        let Some(tuned) = extract_num(line, "\"tuned_us\": ") else {
            continue;
        };
        out.push((name, tuned));
    }
    out
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compare a fresh report against the committed baseline text. Returns
/// the list of regressions (empty = pass): cells whose tuned digest
/// exceeds the committed value by more than [`TOLERANCE`], plus cells
/// missing from either side.
pub fn check(report: &BaselineReport, baseline_text: &str) -> Vec<String> {
    let committed = parse_cells(baseline_text);
    let mut failures = Vec::new();
    for r in &report.cells {
        match committed.iter().find(|(n, _)| n == r.cell.name) {
            None => failures.push(format!(
                "cell {} missing from committed baseline (regenerate BENCH_10.json)",
                r.cell.name
            )),
            Some((_, committed_us)) => {
                if r.tuned_us > committed_us * (1.0 + TOLERANCE) {
                    failures.push(format!(
                        "cell {}: tuned digest {:.3} us regressed >{:.0}% vs committed {:.3} us",
                        r.cell.name,
                        r.tuned_us,
                        TOLERANCE * 100.0,
                        committed_us
                    ));
                }
            }
        }
    }
    for (name, _) in &committed {
        if !report.cells.iter().any(|r| r.cell.name == name.as_str()) {
            failures.push(format!(
                "committed cell {name} no longer in the canonical matrix (regenerate BENCH_10.json)"
            ));
        }
    }
    failures
}

/// Print the per-cell table to stdout.
pub fn render(report: &BaselineReport) {
    println!(
        "{:<24} {:>9} {:>6} {:>6}  {:<10} {:>12} {:>12} {:>8}",
        "cell", "n", "k", "batch", "algo", "static us", "tuned us", "speedup"
    );
    for r in &report.cells {
        println!(
            "{:<24} {:>9} {:>6} {:>6}  {:<10} {:>12.1} {:>12.1} {:>7.2}x",
            r.cell.name,
            r.cell.n,
            r.cell.k,
            r.cell.batch,
            r.algo,
            r.static_us,
            r.tuned_us,
            r.speedup()
        );
    }
    println!("geomean speedup: {:.3}x", report.geomean_speedup);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_the_adversarial_regimes() {
        let m = canonical_matrix();
        assert!(m.iter().any(|c| c.batch >= 128), "many-small-rows cell");
        assert!(
            m.iter().any(
                |c| matches!(c.dist, Distribution::RadixAdversarial { m_bits } if m_bits >= 20)
                    && c.batch > 1
            ),
            "skewed large-batch cell"
        );
        assert!(
            m.iter().any(|c| c.batch == 1 && c.n >= 1 << 20),
            "static-prior home regime stays covered"
        );
    }

    #[test]
    fn baseline_beats_static_and_selects_both_new_algorithms() {
        // The ISSUE 6 acceptance criteria, enforced: >= 1.2x geomean
        // cost-model speedup and both new algorithms picked somewhere.
        let report = run();
        assert!(
            report.geomean_speedup >= 1.2,
            "geomean {:.3} < 1.2",
            report.geomean_speedup
        );
        let algos: Vec<&str> = report.cells.iter().map(|r| r.algo.as_str()).collect();
        assert!(
            algos.iter().any(|a| a.starts_with("radik")),
            "RadiK never selected: {algos:?}"
        );
        assert!(
            algos.contains(&"rowwise"),
            "RowWise never selected: {algos:?}"
        );
        // The tuner must not lose the static prior's home regimes.
        for r in &report.cells {
            assert!(
                r.speedup() > 0.95,
                "cell {} regressed under tuning: {:.2}x",
                r.cell.name,
                r.speedup()
            );
        }

        // The JSON digest is deterministic and survives the check
        // round-trip; a doctored digest fails it.
        let json = to_json(&report);
        assert_eq!(json, to_json(&run()), "baseline must be byte-stable");
        assert_eq!(parse_cells(&json).len(), report.cells.len());
        assert!(check(&report, &json).is_empty());
        let first = format!("\"tuned_us\": {:.3}", report.cells[0].tuned_us);
        let doctored = json.replacen(&first, "\"tuned_us\": 0.001", 1);
        let failures = check(&report, &doctored);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("regressed"));
    }
}
