//! The serving workloads: `serve-mixed` (one persistent engine, warm
//! plan table) and `serve-chaos` (a fresh engine per call under seeded
//! faults, a deadline and a recall target).

use crate::ledger::{fold_kernels, kernel_bytes, HostCall, Ledger, Quality};
use crate::oracle::{check_exact, recall, references};
use crate::select::select_call;
use crate::spans::{SimEvent, Spans};
use crate::stats::{geomean, ratio};
use crate::{caught_panics, input_seed, Bench, Scale};
use datagen::Distribution;
use gpu_sim::{BlockPool, DeviceSpec, FaultPlan, Gpu};
use std::time::Instant;
use topk_core::obs::counters;
use topk_core::tuner::{DistSketch, ProblemShape};
use topk_core::{AlgoSnapshot, SelectK};
use topk_engine::{DrainReport, EngineConfig, Served, TopKEngine};

/// The query mix, round-robin: `(log2 N, K, distribution)`.
const MIX: [(u32, usize, Distribution); 6] = [
    (12, 1, Distribution::Uniform),
    (13, 16, Distribution::Normal),
    (14, 64, Distribution::RadixAdversarial { m_bits: 24 }),
    (
        15,
        128,
        Distribution::Zipf {
            exponent_tenths: 11,
        },
    ),
    (16, 512, Distribution::Uniform),
    (14, 32, Distribution::RadixAdversarial { m_bits: 24 }),
];

/// Pre-generated query sets, cycled call by call.
const SETS: usize = 8;
/// Queries submitted per call.
const QUERIES: usize = 256;
/// Same-shape queries fused into one launch.
const WINDOW: usize = 8;
/// serve-chaos: base fault rate, per-query deadline (simulated µs after
/// drain start) and recall target. Call `i` runs under
/// `FaultPlan::chaos(i % FAULT_PLANS, FAULT_RATE)`: the fault schedule
/// is part of the workload, the same for every seed, so the seed
/// selects the inputs only. A hung kernel burns the plan's 50 ms
/// watchdog before its batch can retry, and a batch can hang twice, so
/// the deadline sits well above that: under these schedules no query
/// misses it and every query gets an answer.
const FAULT_RATE: f64 = 0.02;
const FAULT_PLANS: usize = 200;
const DEADLINE_US: u64 = 200_000;
const RECALL_TARGET: f64 = 0.95;

struct Query {
    data: Vec<f32>,
    k: usize,
}

/// What one engine call returned.
struct Drained {
    report: DrainReport,
    first_id: usize,
    host_ns: u64,
    drain_ns: Option<u64>,
    algo: AlgoSnapshot,
    panics: u64,
    /// Predicted-over-observed ratio per drift bucket after the drain.
    drift: Vec<f64>,
}

/// A serving workload.
pub struct ServeBench {
    chaos: bool,
    sets: Vec<Vec<Query>>,
    refs: Vec<Vec<Vec<f32>>>,
    engine: Option<TopKEngine>,
}

impl ServeBench {
    /// `serve-mixed` (`chaos == false`) or `serve-chaos`.
    pub fn new(chaos: bool, seed: u64, scale: Scale) -> Self {
        let per_set = scale.queries(QUERIES);
        let sets: Vec<Vec<Query>> = (0..SETS)
            .map(|s| {
                (0..per_set)
                    .map(|j| {
                        let (log2, k, dist) = MIX[j % MIX.len()];
                        let n = scale.elems(1 << log2);
                        let stream = 1_000_000 + (s * per_set + j) as u64;
                        Query {
                            data: datagen::generate(dist, n, input_seed(seed, stream)),
                            k: k.min(n / 2),
                        }
                    })
                    .collect()
            })
            .collect();
        let jobs: Vec<(&[f32], usize)> = sets
            .iter()
            .flatten()
            .map(|q| (q.data.as_slice(), q.k))
            .collect();
        let mut flat = references(&jobs).into_iter();
        let refs = sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|_| flat.next().expect("one per query"))
                    .collect()
            })
            .collect();
        ServeBench {
            chaos,
            sets,
            refs,
            engine: None,
        }
    }

    fn config(&self, call: usize) -> EngineConfig {
        if self.chaos {
            EngineConfig::a100_pool(4)
                .with_window(WINDOW)
                .with_faults(FaultPlan::chaos((call % FAULT_PLANS) as u64, FAULT_RATE))
                .with_deadline_us(DEADLINE_US)
                .with_recall_target(RECALL_TARGET)
        } else {
            EngineConfig::a100_pool(2).with_window(WINDOW)
        }
    }

    /// Submit query set `call % SETS` and drain it: one timed call.
    fn run(&mut self, call: usize, spans: &mut Spans) -> Drained {
        let set = &self.sets[call % SETS];
        let payload: Vec<Vec<f32>> = set.iter().map(|q| q.data.clone()).collect();
        let panics = caught_panics();
        let before = counters().snapshot();
        let t = Instant::now();
        let root = spans.enter("call");
        let mut fresh = self.chaos.then(|| {
            let s = spans.enter("topk_engine.new");
            let engine = TopKEngine::new(self.config(call));
            spans.exit(s);
            engine
        });
        let engine = match fresh.as_mut() {
            Some(engine) => engine,
            None => self
                .engine
                .as_mut()
                .expect("serve-mixed builds its engine in setup"),
        };
        let s = spans.enter("topk_engine.submit");
        let mut first_id = None;
        for (q, data) in set.iter().zip(payload) {
            let id = engine
                .submit(data, q.k)
                .expect("the queue holds a whole query set");
            first_id.get_or_insert(id);
        }
        spans.exit(s);
        let s = spans.enter("topk_engine.drain");
        let report = engine.drain();
        let drain_ns = spans.exit(s);
        spans.exit(root);
        let host_ns = t.elapsed().as_nanos() as u64;
        let drift = engine
            .drift()
            .iter()
            .filter(|(_, e)| e.samples > 0 && e.mean_ratio() > 0.0)
            .map(|(_, e)| 1.0 / e.mean_ratio())
            .collect();
        drop(fresh);
        Drained {
            report,
            first_id: first_id.expect("query sets are not empty"),
            host_ns,
            drain_ns,
            algo: counters().snapshot().delta_since(&before),
            panics: caught_panics() - panics,
            drift,
        }
    }

    /// One batch per mix shape from the first query set.
    fn mix_batches(&self) -> Vec<Vec<&Query>> {
        (0..MIX.len())
            .map(|m| {
                self.sets[0]
                    .iter()
                    .skip(m)
                    .step_by(MIX.len())
                    .take(WINDOW)
                    .collect()
            })
            .filter(|b: &Vec<&Query>| !b.is_empty())
            .collect()
    }
}

impl Bench for ServeBench {
    /// Block-pool workers of the engine's devices (the default pool).
    fn threads(&self) -> usize {
        BlockPool::from_env().workers()
    }

    /// Query sets, submitted in turn.
    fn cycle(&self) -> usize {
        SETS
    }

    /// serve-mixed builds its engine and warms it with one drain;
    /// serve-chaos makes one warm-up call. Returns the host seconds.
    fn setup(&mut self, _ledger: &mut Ledger, spans: &mut Spans) -> f64 {
        self.engine = None;
        let t = Instant::now();
        if !self.chaos {
            let s = spans.enter("topk_engine.new");
            self.engine = Some(TopKEngine::new(self.config(0)));
            spans.exit(s);
        }
        let s = spans.enter("warmup");
        let _ = self.run(0, spans);
        spans.exit(s);
        t.elapsed().as_secs_f64()
    }

    /// Run call `i`, check every answer, and fold it into the ledger
    /// (simulated quantities only while `record_sim`).
    fn call(&mut self, i: usize, record_sim: bool, ledger: &mut Ledger, spans: &mut Spans) {
        let d = self.run(i, spans);
        let set = i % SETS;
        // A serve-chaos call (fresh engine, its own fault plan) repeats
        // exactly, so a traced one is rerun untraced and the tracing
        // overhead compares identical work. serve-mixed calls change
        // the persistent engine, so they are paired by query set.
        let case = if self.chaos { i } else { set };
        if self.chaos && spans.active() {
            spans.set_active(false);
            let twin = self.run(i, spans);
            spans.set_active(true);
            ledger.host_calls.push(HostCall {
                ms: twin.host_ns as f64 / 1e6,
                traced: false,
                case,
            });
        }
        let report = &d.report;
        let elems: u64 = self.sets[set].iter().map(|q| q.data.len() as u64).sum();
        ledger.host_calls.push(HostCall {
            ms: d.host_ns as f64 / 1e6,
            traced: spans.active(),
            case,
        });
        ledger.host_elems += elems;

        let mut quality = Quality::default();
        for r in &report.results {
            let j = r.id - d.first_id;
            let (q, expected) = (&self.sets[set][j], &self.refs[set][j]);
            match (&r.outcome, r.served) {
                (Ok(out), Served::Approx { .. }) => quality.approx(recall(expected, &out.values)),
                (Ok(out), _) => quality.exact(
                    check_exact(&q.data, expected, &out.values, &out.indices),
                    || format!("call {i} query {j} served {}", r.served.label()),
                ),
                (Err(e), _) => quality.error(|| format!("call {i} query {j}: {e}")),
            }
        }
        ledger.all_quality.add(&quality);

        let kernel_bytes: u64 = report
            .devices
            .iter()
            .map(|dev| kernel_bytes(&dev.kernel_reports))
            .sum();
        if let Some(ns) = d.drain_ns {
            ledger.traced_work_ns += ns;
            ledger.traced_device_bytes += kernel_bytes;
            ledger.traced_queries += report.results.len() as u64;
            let events = report.devices.iter().flat_map(|dev| {
                dev.batches.iter().map(move |b| SimEvent {
                    device: dev.device,
                    name: format!("batch n={} k={} x{}", b.n, b.k, b.size),
                    start_us: b.start_us,
                    dur_us: b.end_us - b.start_us,
                    args: std::iter::once(("call", (i + 1).to_string()))
                        .chain(b.stages.rows().map(|(s, us)| (s, format!("{us:.3}"))))
                        .collect(),
                })
            });
            let events: Vec<SimEvent> = events.collect();
            spans.sim_call(report.makespan_us(), events);
        }
        if !record_sim {
            return;
        }
        ledger.rows += report.results.len() as u64;
        ledger.elems += elems;
        ledger.row_latency_us.extend(
            report
                .results
                .iter()
                .filter(|r| r.outcome.is_ok())
                .map(|r| r.latency_us),
        );
        ledger.sim_us += report.makespan_us();
        let busy: Vec<f64> = report.devices.iter().map(|dev| dev.elapsed_us).collect();
        let max_busy = busy.iter().copied().fold(0.0, f64::max);
        ledger.device_us += busy.iter().sum::<f64>();
        for dev in &report.devices {
            fold_kernels(ledger, &dev.kernel_reports);
            ledger.launch_us += dev
                .kernel_reports
                .iter()
                .map(|r| r.cost.launch_us)
                .sum::<f64>();
            ledger.mem_high_water = ledger.mem_high_water.max(dev.mem_high_water);
            // Every executed batch uploads its rows and, when it gets
            // that far, reads back values and indices with one blocking
            // copy each.
            for b in &dev.batches {
                ledger.pcie_bytes += (b.size * (4 * b.n + 8 * b.k)) as f64;
                ledger.host_syncs += 2 * b.size as u64;
            }
        }
        ledger.transfer_us += report.stages.transfer_us;
        let e = &mut ledger.engine;
        e.drains += 1;
        let s = &mut e.stages;
        s.queue_wait_us += report.stages.queue_wait_us;
        s.transfer_us += report.stages.transfer_us;
        s.kernel_us += report.stages.kernel_us;
        s.merge_us += report.stages.merge_us;
        s.retry_penalty_us += report.stages.retry_penalty_us;
        s.other_us += report.stages.other_us;
        e.fused_queries += report.results.iter().filter(|r| r.batch_size >= 2).count() as u64;
        for dev in &report.devices {
            e.batches += dev.batches.len() as u64;
            e.batch_rows += dev.batches.iter().map(|b| b.size as u64).sum::<u64>();
        }
        e.balance_sum += ratio(busy.iter().sum::<f64>() / busy.len() as f64, max_busy);
        e.retries += report.retries;
        e.failovers += report.failovers;
        e.cpu_fallbacks += report.cpu_fallbacks;
        e.approx += report.approx_two_stage + report.approx_bucketed;
        e.deadline_misses += report.deadline_misses;
        e.quarantines += report.quarantines;
        e.panics += d.panics;
        let leaked: usize = report
            .devices
            .iter()
            .filter(|dev| !dev.failed)
            .map(|dev| dev.mem_allocated_after)
            .sum();
        e.leaked_bytes = e.leaked_bytes.max(leaked as u64);
        if self.chaos {
            ledger.pred_over_obs.extend(d.drift);
        } else {
            // The persistent engine's drift table after the last
            // recorded drain.
            ledger.pred_over_obs = d.drift;
        }
        ledger.algo.push(d.algo);
        ledger.quality.add(&quality);
    }

    /// The shapes the engine routes: one full batch per mix shape.
    fn shapes(&self) -> Vec<ProblemShape> {
        self.mix_batches()
            .iter()
            .map(|b| {
                let sketch = b
                    .iter()
                    .map(|q| DistSketch::from_sample(&q.data))
                    .min_by_key(|s| s.shared_prefix_bits)
                    .unwrap_or_default();
                ProblemShape::new(b[0].data.len(), b[0].k, b.len()).with_sketch(sketch)
            })
            .collect()
    }

    /// Geomean over the mix shapes of the static prior's simulated
    /// selection time over the tuned one's, one full batch each.
    fn static_over_tuned(&mut self) -> f64 {
        let mut gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(self.threads()));
        let mut off = Spans::new();
        let ratios: Vec<f64> = self
            .mix_batches()
            .iter()
            .map(|b| {
                let rows: Vec<Vec<f32>> = b.iter().map(|q| q.data.clone()).collect();
                let inputs: Vec<_> = rows.iter().map(|r| gpu.htod("query", r)).collect();
                let mut sim = |selector: &SelectK| {
                    select_call(&mut gpu, selector, &inputs, &rows, b[0].k, true, &mut off)
                        .sim_select_us
                };
                let r = ratio(sim(&SelectK::static_prior()), sim(&SelectK::default()));
                inputs.iter().for_each(|i| gpu.free(i));
                r
            })
            .collect();
        geomean(&ratios)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_selects_the_query_sets() {
        let quick = Scale { quick: true };
        let data = |b: &ServeBench| -> Vec<Vec<f32>> {
            b.sets.iter().flatten().map(|q| q.data.clone()).collect()
        };
        let a = ServeBench::new(false, 1, quick);
        assert_eq!(data(&a), data(&ServeBench::new(true, 1, quick)));
        let b = ServeBench::new(false, 2, quick);
        assert!(data(&a).iter().zip(&data(&b)).all(|(x, y)| x != y));
        // The mix covers every shape in every set.
        assert!(a.sets.iter().all(|s| s.len() >= MIX.len()));
    }
}
