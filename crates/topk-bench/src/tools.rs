//! Ad-hoc tool subcommands beyond the paper's figures.
//!
//! * [`compare`] — run a chosen set of algorithms on one custom
//!   configuration and print a side-by-side breakdown (time, launches,
//!   PCIe, traffic). The "let me just check this one shape" tool.
//! * [`tune_alpha`] — the calibration experiment the paper alludes to
//!   in §3.2: "Because candidate storing might be uncoalesced, the
//!   optimal value of α should be determined by experiments in
//!   practice." Sweeps α across distributions and reports the winner
//!   (the paper settled on 128 for the A100; §5).

use datagen::Distribution;
use topk_core::{AirConfig, AirTopK, TopKAlgorithm};

use crate::report::Row;
use crate::runner::{run_config, BenchConfig, Workload};

/// Options for one ad-hoc comparison.
#[derive(Debug, Clone)]
pub struct CompareOpts {
    /// Algorithm names (paper spelling, case-insensitive-ish matching
    /// as in `gpu_topk::algorithm_by_name`). Empty = all ten.
    pub algos: Vec<String>,
    /// Problem size.
    pub n: usize,
    /// Results per problem.
    pub k: usize,
    /// Batch size.
    pub batch: usize,
    /// Input distribution.
    pub dist: Distribution,
    /// Verify outputs.
    pub verify: bool,
}

impl Default for CompareOpts {
    fn default() -> Self {
        CompareOpts {
            algos: Vec::new(),
            n: 1 << 20,
            k: 256,
            batch: 1,
            dist: Distribution::Uniform,
            verify: true,
        }
    }
}

fn norm(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Run the comparison; returns the measured rows and prints a table.
pub fn compare(opts: &CompareOpts) -> Vec<Row> {
    let mut algs: Vec<Box<dyn TopKAlgorithm>> = topk_baselines::all_baselines();
    algs.push(Box::new(AirTopK::default()));
    algs.push(Box::new(topk_core::GridSelect::default()));
    // The approximate rungs, planned for a 0.95 expected recall on the
    // requested shape. Exact verification is expected to flag them —
    // pair with `--no-verify` when comparing their speed.
    algs.push(Box::new(topk_core::BucketedTopK::for_recall(
        opts.n, opts.k, 0.95,
    )));
    algs.push(Box::new(topk_core::TwoStageTopK::for_recall(
        opts.n, opts.k, 0.95,
    )));
    if !opts.algos.is_empty() {
        let wanted: Vec<String> = opts.algos.iter().map(|a| norm(a)).collect();
        algs.retain(|a| wanted.contains(&norm(a.name())));
    }

    let mut cfg = BenchConfig::new(Workload::Synthetic(opts.dist), opts.n, opts.k, opts.batch);
    cfg.verify = opts.verify;

    println!(
        "compare: dist={} N={} K={} batch={}\n",
        opts.dist.name(),
        opts.n,
        opts.k,
        opts.batch
    );
    println!(
        "{:<16} {:>12} {:>9} {:>12} {:>12} {:>10}",
        "algorithm", "time us", "kernels", "pcie us", "idle us", "MiB moved"
    );
    let mut rows = Vec::new();
    for alg in &algs {
        match run_config(alg.as_ref(), &cfg) {
            Some(row) => {
                println!(
                    "{:<16} {:>12.1} {:>9} {:>12.1} {:>12.1} {:>10.1}",
                    row.algo,
                    row.time_us,
                    row.kernels,
                    row.pcie_us,
                    row.idle_us,
                    row.mem_bytes as f64 / (1 << 20) as f64
                );
                rows.push(row);
            }
            None => println!("{:<16} {:>12}", alg.name(), "unsupported"),
        }
    }
    rows
}

/// One α sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct AlphaPoint {
    /// The α value.
    pub alpha: usize,
    /// Workload name.
    pub workload: String,
    /// Simulated time, µs.
    pub time_us: f64,
}

/// Sweep the §3.2 buffering threshold α and report per-distribution
/// winners. Returns all measured points.
pub fn tune_alpha(n: usize, k: usize, alphas: &[usize], verbose: bool) -> Vec<AlphaPoint> {
    let dists = [
        Distribution::Uniform,
        Distribution::Normal,
        Distribution::RadixAdversarial { m_bits: 10 },
        Distribution::RadixAdversarial { m_bits: 20 },
    ];
    let mut points = Vec::new();
    for dist in dists {
        let mut best: Option<(usize, f64)> = None;
        for &alpha in alphas {
            let alg = AirTopK::new(AirConfig {
                alpha,
                ..AirConfig::default()
            });
            let cfg = BenchConfig::new(Workload::Synthetic(dist), n, k, 1);
            let row = run_config(&alg, &cfg).expect("AIR supports all configs");
            if verbose {
                println!(
                    "  alpha={alpha:<6} dist={:<14} {:>10.1} us",
                    dist.name(),
                    row.time_us
                );
            }
            if best.is_none_or(|(_, t)| row.time_us < t) {
                best = Some((alpha, row.time_us));
            }
            points.push(AlphaPoint {
                alpha,
                workload: dist.name(),
                time_us: row.time_us,
            });
        }
        let (ba, bt) = best.unwrap();
        println!("best alpha for {:<14}: {ba} ({bt:.1} us)", dist.name());
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_filters_by_name() {
        let opts = CompareOpts {
            algos: vec!["AIR Top-K".into(), "radixselect".into()],
            n: 20_000,
            k: 64,
            batch: 1,
            dist: Distribution::Uniform,
            verify: true,
        };
        let rows = compare(&opts);
        let names: Vec<_> = rows.iter().map(|r| r.algo.as_str()).collect();
        assert_eq!(names, vec!["RadixSelect", "AIR Top-K"]);
        assert!(rows.iter().all(|r| r.verified));
    }

    #[test]
    fn compare_all_when_unfiltered() {
        let opts = CompareOpts {
            n: 10_000,
            k: 32,
            verify: false,
            ..CompareOpts::default()
        };
        let rows = compare(&opts);
        // 8 baselines + AIR + GridSelect + the two approximate rungs.
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().any(|r| r.algo.contains("approx")));
    }

    #[test]
    fn tune_alpha_flags_adversarial_preference_for_large_alpha() {
        // Under adversarial data candidates stay huge, so buffering
        // never pays: large alpha (buffer less) must not lose.
        let pts = tune_alpha(1 << 18, 2048, &[4, 128, 4096], false);
        let adv_best = pts
            .iter()
            .filter(|p| p.workload == "adversarial20")
            .min_by(|a, b| a.time_us.total_cmp(&b.time_us))
            .unwrap();
        assert!(
            adv_best.alpha >= 128,
            "adversarial winner should buffer conservatively, got {}",
            adv_best.alpha
        );
        // And every sweep point is positive/finite.
        assert!(pts.iter().all(|p| p.time_us.is_finite() && p.time_us > 0.0));
    }
}
