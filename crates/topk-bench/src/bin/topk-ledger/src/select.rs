//! The select workloads: `single-large` (batch-1 `SelectK` calls on
//! multi-million-element rows) and `batch-skew` (sketch-routed batched
//! calls on skewed and many-small-row cells).

use crate::ledger::{fold_kernels, kernel_bytes, Family, HostCall, Ledger, Quality};
use crate::oracle::{check_exact, references};
use crate::spans::{SimEvent, Spans};
use crate::stats::{geomean, ratio};
use crate::{input_seed, Bench, Scale};
use datagen::Distribution;
use gpu_sim::{BlockPool, DeviceBuffer, DeviceSpec, EventKind, Gpu};
use std::time::Instant;
use topk_core::obs::counters;
use topk_core::tuner::{DistSketch, ProblemShape};
use topk_core::{SelectK, TopKAlgorithm, TopKError, TopKOutput};

/// A distinct call: which rows, which K, and whether the call sketches
/// the rows and takes the batched path.
#[derive(Debug, Clone)]
struct Case {
    rows: std::ops::Range<usize>,
    k: usize,
    batched: bool,
}

/// One cell of the batch-skew workload: `batch` rows of `n` elements.
#[derive(Debug, Clone, Copy)]
struct Cell {
    dist: Distribution,
    n: usize,
    k: usize,
    batch: usize,
}

const ADV24: Distribution = Distribution::RadixAdversarial { m_bits: 24 };

/// The batch-skew cells: BENCH_10's three skewed cells and its
/// many-small-rows cell, plus a Zipf cell.
const SKEW_CELLS: [Cell; 5] = [
    Cell {
        dist: ADV24,
        n: 1 << 18,
        k: 128,
        batch: 32,
    },
    Cell {
        dist: ADV24,
        n: 1 << 18,
        k: 4096,
        batch: 8,
    },
    Cell {
        dist: ADV24,
        n: 1 << 20,
        k: 4096,
        batch: 16,
    },
    Cell {
        dist: Distribution::Uniform,
        n: 16384,
        k: 64,
        batch: 256,
    },
    Cell {
        dist: Distribution::Zipf {
            exponent_tenths: 11,
        },
        n: 1 << 18,
        k: 256,
        batch: 16,
    },
];

/// Host values and indices, one pair per row.
pub type Answers = Vec<(Vec<f32>, Vec<u32>)>;

/// What one select call produced.
pub struct SelectCall {
    /// Host answers per row, or the selection's error.
    pub answers: Result<Answers, TopKError>,
    /// The shape the tuner routed (sketch included).
    pub shape: ProblemShape,
    /// Host time of the whole call, ns.
    pub host_ns: u64,
    /// Host time of the selection itself, ns (traced calls only).
    pub select_ns: Option<u64>,
    /// Simulated time of the selection, µs.
    pub sim_select_us: f64,
    /// Simulated time of the call (selection plus readback), µs.
    pub sim_us: f64,
}

/// One timed call: sketch the rows (batched calls), select, and read
/// values and indices back. The device profile is reset first, so the
/// device's reports and timeline afterwards describe this call alone.
pub fn select_call(
    gpu: &mut Gpu,
    selector: &SelectK,
    inputs: &[DeviceBuffer<f32>],
    rows: &[Vec<f32>],
    k: usize,
    batched: bool,
    spans: &mut Spans,
) -> SelectCall {
    gpu.reset_profile();
    let t = Instant::now();
    let call = spans.enter("call");
    let sketch = batched.then(|| {
        let s = spans.enter("topk_core.sketch");
        let sketch = rows
            .iter()
            .map(|r| DistSketch::from_sample(r))
            .min_by_key(|s| s.shared_prefix_bits)
            .unwrap_or_default();
        spans.exit(s);
        sketch
    });
    let s = spans.enter(if batched {
        "topk_core.select_batch"
    } else {
        "topk_core.select"
    });
    let outs: Result<Vec<TopKOutput>, TopKError> = match sketch {
        Some(sketch) if inputs.len() > 1 => {
            selector.try_select_batch_with_sketch(gpu, inputs, k, sketch)
        }
        Some(sketch) => selector
            .try_select_with_sketch(gpu, &inputs[0], k, sketch)
            .map(|o| vec![o]),
        None => selector.try_select(gpu, &inputs[0], k).map(|o| vec![o]),
    };
    let select_ns = spans.exit(s);
    let sim_select_us = gpu.elapsed_us();
    let answers = outs.as_ref().map_err(Clone::clone).map(|outs| {
        let s = spans.enter("gpu_sim.dtoh");
        let host = outs
            .iter()
            .map(|o| (gpu.dtoh(&o.values), gpu.dtoh(&o.indices)))
            .collect();
        spans.exit(s);
        host
    });
    spans.exit(call);
    let host_ns = t.elapsed().as_nanos() as u64;
    for o in outs.iter().flatten() {
        gpu.free(&o.values);
        gpu.free(&o.indices);
    }
    let shape =
        ProblemShape::new(rows[0].len(), k, rows.len()).with_sketch(sketch.unwrap_or_default());
    SelectCall {
        answers,
        shape,
        host_ns,
        select_ns,
        sim_select_us,
        sim_us: gpu.elapsed_us(),
    }
}

/// A select workload: host rows, the cases cycled through, reference
/// answers, and (after setup) the device holding the rows.
pub struct SelectBench {
    threads: usize,
    rows: Vec<Vec<f32>>,
    refs: Vec<Vec<f32>>,
    cases: Vec<Case>,
    gpu: Option<Gpu>,
    inputs: Vec<DeviceBuffer<f32>>,
    selector: SelectK,
    /// Simulated selection µs of each case's first prefix call.
    case_sim_us: Vec<Option<f64>>,
}

impl SelectBench {
    /// `single-large`: 4 rows of 2^22 and 2 of 2^23 elements (half
    /// uniform, half normal), K cycling through {32, 256, 2048}.
    pub fn single_large(seed: u64, scale: Scale) -> Self {
        let dists = [Distribution::Uniform, Distribution::Normal];
        let sizes = [22, 22, 22, 22, 23, 23].map(|e| scale.elems(1 << e));
        let rows: Vec<Vec<f32>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| datagen::generate(dists[i % 2], n, input_seed(seed, i as u64)))
            .collect();
        let ks = [32, 256, 2048];
        let cases = (0..rows.len())
            .flat_map(|r| {
                ks.map(|k| Case {
                    rows: r..r + 1,
                    k,
                    batched: false,
                })
            })
            .collect();
        Self::new(rows, cases)
    }

    /// `batch-skew`: the [`SKEW_CELLS`], one batched call per cell.
    pub fn batch_skew(seed: u64, scale: Scale) -> Self {
        let mut rows = Vec::new();
        let mut cases = Vec::new();
        for (c, cell) in SKEW_CELLS.iter().enumerate() {
            let batch = scale.batch(cell.batch);
            let start = rows.len();
            rows.extend(datagen::generate_batch(
                cell.dist,
                scale.elems(cell.n),
                batch,
                input_seed(seed, 1000 * (c as u64 + 1)),
            ));
            cases.push(Case {
                rows: start..start + batch,
                k: scale.k(cell.k),
                batched: true,
            });
        }
        Self::new(rows, cases)
    }

    fn new(rows: Vec<Vec<f32>>, cases: Vec<Case>) -> Self {
        // One reference per row, at the largest K any case asks of it.
        let mut k_max = vec![0; rows.len()];
        for c in &cases {
            for r in c.rows.clone() {
                k_max[r] = k_max[r].max(c.k);
            }
        }
        let jobs: Vec<(&[f32], usize)> = rows
            .iter()
            .zip(&k_max)
            .map(|(r, &k)| (r.as_slice(), k))
            .collect();
        let refs = references(&jobs);
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        let case_sim_us = vec![None; cases.len()];
        SelectBench {
            threads,
            rows,
            refs,
            cases,
            gpu: None,
            inputs: Vec::new(),
            selector: SelectK::default(),
            case_sim_us,
        }
    }
}

impl Bench for SelectBench {
    /// Block-pool workers of the device.
    fn threads(&self) -> usize {
        self.threads
    }

    /// Distinct cases, called in turn.
    fn cycle(&self) -> usize {
        self.cases.len()
    }

    /// Build the device, upload every row and warm the tuner with one
    /// call per distinct shape; returns the host seconds it took.
    fn setup(&mut self, ledger: &mut Ledger, spans: &mut Spans) -> f64 {
        self.inputs.clear();
        self.gpu = None;
        let t = Instant::now();
        let mut gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(self.threads));
        for (i, row) in self.rows.iter().enumerate() {
            let s = spans.enter("gpu_sim.htod");
            self.inputs.push(gpu.htod(&format!("row{i}"), row));
            spans.exit(s);
            ledger.setup_htod_bytes += 4 * row.len() as u64;
        }
        self.selector = SelectK::default();
        let mut warmed: Vec<(usize, usize, usize)> = Vec::new();
        for case in &self.cases {
            let shape = (self.rows[case.rows.start].len(), case.k, case.rows.len());
            if warmed.contains(&shape) {
                continue;
            }
            warmed.push(shape);
            let s = spans.enter("warmup");
            let _ = select_call(
                &mut gpu,
                &self.selector,
                &self.inputs[case.rows.clone()],
                &self.rows[case.rows.clone()],
                case.k,
                case.batched,
                spans,
            );
            spans.exit(s);
        }
        let secs = t.elapsed().as_secs_f64();
        self.gpu = Some(gpu);
        secs
    }

    /// Run call `i`, check its answers, and fold it into the ledger
    /// (simulated quantities only while `record_sim`).
    fn call(&mut self, i: usize, record_sim: bool, ledger: &mut Ledger, spans: &mut Spans) {
        let ci = i % self.cases.len();
        let case = self.cases[ci].clone();
        let gpu = self.gpu.as_mut().expect("setup runs before calls");
        let before = counters().snapshot();
        let c = select_call(
            gpu,
            &self.selector,
            &self.inputs[case.rows.clone()],
            &self.rows[case.rows.clone()],
            case.k,
            case.batched,
            spans,
        );
        let algo = counters().snapshot().delta_since(&before);
        let n_rows = case.rows.len() as u64;
        let elems = n_rows * self.rows[case.rows.start].len() as u64;
        ledger.host_calls.push(HostCall {
            ms: c.host_ns as f64 / 1e6,
            traced: spans.active(),
            case: ci,
        });
        ledger.host_elems += elems;

        let mut quality = Quality::default();
        match &c.answers {
            Ok(answers) => {
                for (r, (values, indices)) in case.rows.clone().zip(answers) {
                    let check =
                        check_exact(&self.rows[r], &self.refs[r][..case.k], values, indices);
                    quality.exact(check, || format!("call {i} row {r} k {}", case.k));
                }
            }
            Err(e) => case
                .rows
                .clone()
                .for_each(|r| quality.error(|| format!("call {i} row {r}: {e}"))),
        }
        ledger.all_quality.add(&quality);

        let plan = self.selector.tuner().and_then(|t| t.peek(&c.shape));
        let family = plan.map_or("air", |p| p.algo.family());
        let reports = gpu.reports();
        if let Some(ns) = c.select_ns {
            let bytes = kernel_bytes(reports);
            ledger.traced_work_ns += ns;
            ledger.traced_device_bytes += bytes;
            let f = ledger.families.entry(family).or_default();
            f.host_calls += 1;
            f.host_ns += ns;
            f.host_bytes += bytes;
        }
        if spans.active() {
            let events = reports.iter().map(|r| SimEvent {
                device: 0,
                name: r.name.clone(),
                start_us: r.start_us,
                dur_us: r.cost.exec_us,
                args: vec![
                    ("call", (i + 1).to_string()),
                    ("family", family.to_string()),
                    ("bytes", r.stats.total_mem_bytes().to_string()),
                    ("occupancy", format!("{:.3}", r.cost.occupancy)),
                ],
            });
            let events: Vec<SimEvent> = events.collect();
            spans.sim_call(c.sim_us, events);
        }
        if !record_sim {
            return;
        }
        self.case_sim_us[ci].get_or_insert(c.sim_select_us);
        ledger.rows += n_rows;
        ledger.elems += elems;
        ledger
            .row_latency_us
            .extend(std::iter::repeat_n(c.sim_us, n_rows as usize));
        ledger.sim_us += c.sim_us;
        ledger.device_us += c.sim_us;
        fold_kernels(ledger, reports);
        let spec = gpu.spec().clone();
        for e in gpu.timeline().events() {
            match e.kind {
                EventKind::LaunchOverhead => ledger.launch_us += e.dur_us,
                EventKind::HostSync => ledger.host_syncs += 1,
                EventKind::MemcpyDtoH | EventKind::MemcpyHtoD => {
                    ledger.transfer_us += e.dur_us;
                    ledger.pcie_bytes +=
                        (e.dur_us - spec.pcie_latency_us) * spec.pcie_bw_bytes_per_us();
                }
                _ => {}
            }
        }
        ledger.mem_high_water = ledger.mem_high_water.max(gpu.mem_high_water());
        let f: &mut Family = ledger.families.entry(family).or_default();
        f.rows += n_rows;
        f.sim_us += c.sim_select_us;
        if let Some(p) = plan {
            ledger.pred_over_obs.push(p.predicted_us / c.sim_select_us);
        }
        ledger.algo.push(algo);
        ledger.quality.add(&quality);
    }

    /// The distinct shapes the workload routes, for planner timing.
    fn shapes(&self) -> Vec<ProblemShape> {
        self.cases
            .iter()
            .map(|c| {
                let rows = &self.rows[c.rows.clone()];
                let sketch = if c.batched {
                    rows.iter()
                        .map(|r| DistSketch::from_sample(r))
                        .min_by_key(|s| s.shared_prefix_bits)
                        .unwrap_or_default()
                } else {
                    DistSketch::uniform()
                };
                ProblemShape::new(rows[0].len(), c.k, rows.len()).with_sketch(sketch)
            })
            .collect()
    }

    /// Geomean over the cases of the static prior's simulated selection
    /// time over the tuned one's.
    fn static_over_tuned(&mut self) -> f64 {
        let gpu = self.gpu.as_mut().expect("setup runs before calls");
        let prior = SelectK::static_prior();
        let mut off = Spans::new();
        let ratios: Vec<f64> = self
            .cases
            .iter()
            .zip(&self.case_sim_us)
            .filter_map(|(c, tuned)| {
                let s = select_call(
                    gpu,
                    &prior,
                    &self.inputs[c.rows.clone()],
                    &self.rows[c.rows.clone()],
                    c.k,
                    c.batched,
                    &mut off,
                );
                Some(ratio(s.sim_select_us, (*tuned)?))
            })
            .collect();
        geomean(&ratios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One BENCH_10 cell as it appears in the committed file.
    fn committed_tuned_us(text: &str, name: &str) -> f64 {
        let line = text
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .unwrap_or_else(|| panic!("cell {name} missing from BENCH_10.json"));
        let rest = &line[line.find("\"tuned_us\": ").expect("tuned_us field") + 12..];
        rest[..rest.find(',').expect("field separator")]
            .parse()
            .expect("tuned_us is a number")
    }

    #[test]
    fn the_seed_selects_the_inputs() {
        let quick = Scale { quick: true };
        let a = SelectBench::batch_skew(1, quick);
        assert_eq!(a.rows, SelectBench::batch_skew(1, quick).rows);
        let b = SelectBench::batch_skew(2, quick);
        assert!(a.rows.iter().zip(&b.rows).all(|(x, y)| x != y));
    }

    #[test]
    fn bench_10_cells_match_through_the_ledger_select_path() {
        // BENCH_10's canonical matrix: (name, dist, n, k, batch).
        let cells = [
            (
                "uniform-large-n-small-k",
                Distribution::Uniform,
                1 << 21,
                32,
                1,
            ),
            (
                "uniform-large-n-large-k",
                Distribution::Uniform,
                1 << 21,
                2048,
                1,
            ),
            ("skew-small-k-batch", ADV24, 1 << 18, 128, 32),
            ("skew-mid-k-batch", ADV24, 1 << 18, 4096, 8),
            ("skew-large-k-batch", ADV24, 1 << 20, 4096, 16),
            ("rows-many-small", Distribution::Uniform, 16_384, 64, 256),
        ];
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCH_10.json");
        let text = std::fs::read_to_string(path).expect("BENCH_10.json at the repository root");
        for (name, dist, n, k, batch) in cells {
            let rows = datagen::generate_batch(dist, n, batch, 0x6a5e);
            let mut gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(2));
            let inputs: Vec<_> = rows.iter().map(|r| gpu.htod("row", r)).collect();
            let c = select_call(
                &mut gpu,
                &SelectK::default(),
                &inputs,
                &rows,
                k,
                true,
                &mut Spans::new(),
            );
            c.answers.expect("cell selects");
            let committed = committed_tuned_us(&text, name);
            let drift = (c.sim_select_us - committed).abs() / committed;
            assert!(
                drift <= 1e-3,
                "{name}: ledger {:.3} us vs BENCH_10 {committed:.3} us",
                c.sim_select_us
            );
        }
        assert_eq!(
            std::fs::read_to_string(path).expect("still readable"),
            text,
            "BENCH_10.json is read, never written"
        );
    }
}
