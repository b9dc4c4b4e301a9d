//! Golden identity of the warp-select family, the radix and
//! row-streaming selectors, and the host-driven partition baselines
//! (RadixSelect, QuickSelect, BucketSelect, SampleSelect).
//!
//! The host implementation of these selectors (queue flush, list
//! merge, fused radix passes, tile loads) may be rewritten for speed,
//! but what they compute must not move: the values and indices in
//! output order, the summed kernel meters and launch sequence that
//! drive simulated time, and the algorithm-event counters. Every cell
//! below is pinned to a constant recorded from the reference
//! implementation.
//!
//! Single-input cells go through `select`; batched cells put one row
//! of each input kind into one `try_select_batch` call (or one
//! row-major `run_matrix_typed` or `SelectK::try_select_matrix_as`
//! call), so RadiK, RowWise, TwoStage, Bucketed and AIR's one-block
//! and matrix paths are pinned too.
//!
//! All runs use a one-worker block pool. AIR and the partition
//! baselines place results through atomic output cursors, so their
//! output *order* depends on the order blocks run in; with one worker
//! that order is fixed.

use gpu_topk::gpu_sim::{BlockPool, DeviceBuffer, DeviceScalar};
use gpu_topk::prelude::*;
use gpu_topk::topk_core::largest::order_negate;
use gpu_topk::topk_core::obs;
use gpu_topk::topk_core::{
    AlgoSnapshot, RadiK, RowWiseTopK, StreamingSelect, TunedAlgo, TypedOutput, VerifyError,
};
use std::sync::Mutex;

/// Tests in this binary share the process-wide counters, so they run
/// one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Ragged on purpose: the last warp group and the last block are
/// partial, and K = 2048 still gets two GridSelect blocks (a tree
/// merge) and two StreamingSelect chunks.
const N: usize = 140_001;
const KS: [usize; 5] = [1, 32, 100, 256, 2048];
/// Row length of the batched cells: ragged, and above AIR's one-block
/// threshold so the multi-pass and multi-round paths run.
const ROW: usize = 20_001;
/// Row length of AIR's one-block batched cells (at most 8192).
const SMALL_ROW: usize = 8_191;

fn inputs() -> Vec<(&'static str, Vec<f32>)> {
    inputs_of(N)
}

fn inputs_of(n: usize) -> Vec<(&'static str, Vec<f32>)> {
    let ties: Vec<f32> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(2_654_435_761) >> 7) % 16)
        .map(|l| l as f32 - 8.0)
        .collect();
    vec![
        ("uniform", datagen::generate(Distribution::Uniform, n, 11)),
        ("ties16", ties),
        ("equal", vec![1.5; n]),
        (
            "adversarial24",
            datagen::generate(Distribution::RadixAdversarial { m_bits: 24 }, n, 5),
        ),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.u64(b as u64);
        }
    }
}

fn snapshot_digest(d: &AlgoSnapshot) -> u64 {
    let mut h = Fnv::new();
    for x in [
        d.air_passes,
        d.air_buffer_writes,
        d.air_adaptive_skips,
        d.air_early_stops,
        d.air_one_block_selections,
        d.gridselect_queue_merges,
        d.gridselect_list_merges,
        d.radik_rounds,
        d.radik_skipped_bits,
        d.rowwise_compactions,
        d.bucketed_selections,
        d.twostage_reduces,
        d.tuner_plan_hits,
        d.tuner_plan_misses,
        d.tuner_refinements,
    ] {
        h.u64(x);
    }
    h.0
}

/// Checks one selection's output against its input.
type Verify = fn(&[f32], usize, &[f32], &[u32]) -> Result<(), VerifyError>;

/// [`verify_topk`] for largest-K: the largest K of `data` are the
/// smallest K of its total-order negation.
fn verify_largest(
    data: &[f32],
    k: usize,
    values: &[f32],
    indices: &[u32],
) -> Result<(), VerifyError> {
    let negate = |v: &[f32]| v.iter().map(|&x| order_negate(x)).collect::<Vec<_>>();
    verify_topk(&negate(data), k, &negate(values), indices)
}

/// `(outputs, meters, counters)` digests of one selection on a fresh
/// one-worker device.
fn cell(alg: &dyn TopKAlgorithm, verify: Verify, data: &[f32], k: usize) -> [u64; 3] {
    let mut gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1));
    let input = gpu.htod("in", data);
    gpu.reset_profile();
    let before = obs::counters().snapshot();
    let out = alg.select(&mut gpu, &input, k);
    let delta = obs::counters().snapshot().delta_since(&before);
    let (values, indices) = (out.values.to_vec(), out.indices.to_vec());
    verify(data, k, &values, &indices).unwrap_or_else(|e| panic!("{} k={k}: {e}", alg.name()));

    let mut outputs = Fnv::new();
    for (v, i) in values.iter().zip(&indices) {
        outputs.u64(v.to_bits() as u64);
        outputs.u64(*i as u64);
    }
    [outputs.0, meters_digest(&gpu), snapshot_digest(&delta)]
}

/// Per-row `(values, indices)` of a batched selection.
type RowOutputs<T = f32> = Vec<(Vec<T>, Vec<u32>)>;

/// A batched selection under test: given the rows as separate buffers
/// and as one row-major matrix, select K per row.
type BatchRun<'a> = &'a dyn Fn(
    &mut Gpu,
    &[DeviceBuffer<f32>],
    &DeviceMatrix<f32>,
    usize,
) -> Result<RowOutputs, TopKError>;

fn row_outputs<T: DeviceScalar>(outs: Vec<TypedOutput<T>>) -> RowOutputs<T> {
    outs.into_iter()
        .map(|(v, i)| (v.to_vec(), i.to_vec()))
        .collect()
}

/// Digests of one batched selection over `rows` on a fresh one-worker
/// device. A rejected shape digests its error text; exact selectors
/// are verified row by row.
fn batch_cell(run: BatchRun<'_>, exact: bool, rows: &[Vec<f32>], k: usize) -> [u64; 3] {
    let mut gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1));
    let bufs: Vec<_> = rows.iter().map(|r| gpu.htod("in", r)).collect();
    let matrix = DeviceMatrix::htod(&mut gpu, "m", &rows.concat(), rows.len(), rows[0].len());
    gpu.reset_profile();
    let before = obs::counters().snapshot();
    let result = run(&mut gpu, &bufs, &matrix, k);
    let delta = obs::counters().snapshot().delta_since(&before);

    let mut outputs = Fnv::new();
    match result {
        Ok(outs) => {
            assert_eq!(outs.len(), rows.len());
            for (r, (values, indices)) in outs.iter().enumerate() {
                assert_eq!((values.len(), indices.len()), (k, k), "row {r} k={k}");
                if exact {
                    verify_topk(&rows[r], k, values, indices)
                        .unwrap_or_else(|e| panic!("row {r} k={k}: {e}"));
                }
                for (v, i) in values.iter().zip(indices) {
                    outputs.u64(v.to_bits() as u64);
                    outputs.u64(*i as u64);
                }
            }
        }
        Err(e) => outputs.str(&e.to_string()),
    }
    [outputs.0, meters_digest(&gpu), snapshot_digest(&delta)]
}

/// Launch sequence, summed meters, peak shared memory and simulated
/// time of everything run on `gpu` since its last profile reset.
fn meters_digest(gpu: &Gpu) -> u64 {
    let mut meters = Fnv::new();
    let mut max_shared = 0;
    for r in gpu.reports() {
        meters.str(&r.name);
        meters.u64(r.cfg.grid_dim as u64);
        meters.u64(r.cfg.block_dim as u64);
        let s = &r.stats;
        for x in [
            s.bytes_read,
            s.bytes_written,
            s.bytes_scattered,
            s.atomic_ops,
            s.compute_ops,
        ] {
            meters.u64(x);
        }
        max_shared = max_shared.max(s.shared_mem_bytes);
    }
    meters.u64(max_shared);
    meters.u64(gpu.elapsed_us().to_bits());
    meters.0
}

/// Run every (input, K) cell for `alg` and compare against `golden`,
/// reporting every mismatching or missing cell in one failure.
fn check(alg: &dyn TopKAlgorithm, golden: &[(&str, [u64; 3])]) {
    check_with(alg, verify_topk, golden);
}

/// [`check`] with the output checked by `verify`.
fn check_with(alg: &dyn TopKAlgorithm, verify: Verify, golden: &[(&str, [u64; 3])]) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut cells = Vec::new();
    for (dist, data) in inputs() {
        for k in KS {
            if alg.max_k().is_some_and(|m| k > m) {
                continue;
            }
            cells.push((format!("{dist} k={k}"), cell(alg, verify, &data, k)));
        }
    }
    compare(alg.name(), &cells, golden);
}

/// Run `run` on one batch of `row`-long rows (one per input kind) for
/// every K up to `max_k` and compare against `golden`.
fn check_batch(
    name: &str,
    run: BatchRun<'_>,
    exact: bool,
    row: usize,
    max_k: usize,
    golden: &[(&str, [u64; 3])],
) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rows: Vec<Vec<f32>> = inputs_of(row).into_iter().map(|(_, d)| d).collect();
    let cells: Vec<_> = KS
        .into_iter()
        .filter(|&k| k <= max_k)
        .map(|k| (format!("k={k}"), batch_cell(run, exact, &rows, k)))
        .collect();
    compare(name, &cells, golden);
}

/// Report every computed cell that is missing from `golden` or differs
/// from it, in one failure.
fn compare(name: &str, cells: &[(String, [u64; 3])], golden: &[(&str, [u64; 3])]) {
    let mut bad = Vec::new();
    for (key, got) in cells {
        let want = golden.iter().find(|(c, _)| c == key).map(|(_, d)| *d);
        if want != Some(*got) {
            bad.push(format!(
                "(\"{key}\", [{:#018x}, {:#018x}, {:#018x}]), // want {want:x?}",
                got[0], got[1], got[2]
            ));
        }
    }
    assert!(
        bad.is_empty(),
        "{name}: {} cells differ from the golden digests:\n{}",
        bad.len(),
        bad.join("\n")
    );
}

/// `try_select_batch` of `alg` as a [`BatchRun`].
fn via_batch(
    alg: &dyn TopKAlgorithm,
) -> impl Fn(
    &mut Gpu,
    &[DeviceBuffer<f32>],
    &DeviceMatrix<f32>,
    usize,
) -> Result<RowOutputs, TopKError>
       + '_ {
    move |gpu, bufs, _, k| {
        let outs = alg.try_select_batch(gpu, bufs, k)?;
        Ok(row_outputs(
            outs.into_iter().map(|o| (o.values, o.indices)).collect(),
        ))
    }
}

#[test]
fn gridselect_is_bit_identical() {
    check(&GridSelect::default(), GRIDSELECT);
}

#[test]
fn warpselect_is_bit_identical() {
    check(&WarpSelect, WARPSELECT);
}

#[test]
fn blockselect_is_bit_identical() {
    check(&BlockSelect, BLOCKSELECT);
}

#[test]
fn bitonic_topk_is_bit_identical() {
    check(&BitonicTopK, BITONIC);
}

#[test]
fn streaming_select_is_bit_identical() {
    check(&StreamingSelect::default(), STREAMING);
}

#[test]
fn air_topk_is_bit_identical() {
    check(&AirTopK::default(), AIR);
}

/// The largest-K adapter: its two negation sweeps around AIR.
#[test]
fn select_largest_is_bit_identical() {
    check_with(
        &SelectLargest::new(AirTopK::default()),
        verify_largest,
        SELECT_LARGEST,
    );
}

#[test]
fn radixselect_is_bit_identical() {
    check(&RadixSelect, RADIXSELECT);
}

#[test]
fn quickselect_is_bit_identical() {
    check(&QuickSelect::default(), QUICKSELECT);
}

#[test]
fn bucketselect_is_bit_identical() {
    check(&BucketSelect, BUCKETSELECT);
}

#[test]
fn sampleselect_is_bit_identical() {
    check(&SampleSelect, SAMPLESELECT);
}

#[test]
fn radik_batch_is_bit_identical() {
    let alg = RadiK::default();
    check_batch(alg.name(), &via_batch(&alg), true, ROW, 2048, RADIK_BATCH);
}

#[test]
fn rowwise_batch_is_bit_identical() {
    let alg = RowWiseTopK;
    check_batch(alg.name(), &via_batch(&alg), true, ROW, 2048, ROWWISE_BATCH);
}

#[test]
fn twostage_batch_is_bit_identical() {
    let alg = TwoStageTopK::default();
    check_batch(
        alg.name(),
        &via_batch(&alg),
        false,
        ROW,
        2048,
        TWOSTAGE_BATCH,
    );
}

#[test]
fn bucketed_batch_is_bit_identical() {
    let alg = BucketedTopK::default();
    check_batch(
        alg.name(),
        &via_batch(&alg),
        false,
        ROW,
        2048,
        BUCKETED_BATCH,
    );
}

#[test]
fn air_one_block_batch_is_bit_identical() {
    let alg = AirTopK::default();
    let run = via_batch(&alg);
    check_batch(
        "AIR one-block",
        &run,
        true,
        SMALL_ROW,
        2048,
        AIR_ONE_BLOCK_BATCH,
    );
}

#[test]
fn air_matrix_is_bit_identical() {
    let run = |gpu: &mut Gpu, _: &[DeviceBuffer<f32>], m: &DeviceMatrix<f32>, k: usize| {
        let (vals, idxs) = AirTopK::default().run_matrix_typed(gpu, m, k)?;
        Ok((0..m.rows())
            .map(|r| (vals.row_to_vec(r), idxs.row_to_vec(r)))
            .collect())
    };
    check_batch("AIR matrix", &run, true, ROW, 2048, AIR_MATRIX);
}

#[test]
fn gridselect_matrix_is_bit_identical() {
    let run = |gpu: &mut Gpu, _: &[DeviceBuffer<f32>], m: &DeviceMatrix<f32>, k: usize| {
        let (vals, idxs) = GridSelect::default().run_matrix_typed(gpu, m, k)?;
        Ok((0..m.rows())
            .map(|r| (vals.row_to_vec(r), idxs.row_to_vec(r)))
            .collect())
    };
    check_batch(
        "GridSelect matrix",
        &run,
        true,
        ROW,
        2048,
        GRIDSELECT_MATRIX,
    );
}

/// The streaming-filter family through `Rows::Matrix`, as the engine
/// runs it: the configuration forced by `SelectK::try_select_matrix_as`.
#[test]
fn filter_family_matrix_is_bit_identical() {
    let cases = [
        ("RowWise matrix", TunedAlgo::RowWise, true, ROWWISE_MATRIX),
        (
            "Bucketed{16} matrix",
            TunedAlgo::Bucketed { per_bucket: 16 },
            false,
            BUCKETED_MATRIX,
        ),
        (
            "TwoStage{8,32} matrix",
            TunedAlgo::TwoStage {
                partitions: 8,
                k_prime: 32,
            },
            false,
            TWOSTAGE_MATRIX,
        ),
    ];
    for (name, algo, exact, golden) in cases {
        let run = |gpu: &mut Gpu, _: &[DeviceBuffer<f32>], m: &DeviceMatrix<f32>, k: usize| {
            let (vals, idxs) = SelectK::default().try_select_matrix_as(gpu, m, k, algo)?;
            Ok((0..m.rows())
                .map(|r| (vals.row_to_vec(r), idxs.row_to_vec(r)))
                .collect())
        };
        check_batch(name, &run, exact, ROW, 2048, golden);
    }
}

#[test]
fn unfused_radix_batch_is_bit_identical() {
    for (b, golden) in [(11, UNFUSED_B11_BATCH), (8, UNFUSED_B8_BATCH)] {
        let alg = UnfusedRadix { bits_per_pass: b };
        let name = format!("UnfusedRadix b={b}");
        check_batch(&name, &via_batch(&alg), true, ROW, 2048, golden);
    }
}

/// AIR's batched multi-pass path at the non-default configurations the
/// tuner serves (`air:8`) and the Fig. 9/10 ablations run.
#[test]
fn air_config_batch_is_bit_identical() {
    let default = AirConfig::default;
    let cases = [
        (
            "AIR b=8",
            AirConfig {
                bits_per_pass: 8,
                ..default()
            },
            AIR_B8_BATCH,
        ),
        (
            "AIR adaptive=false",
            AirConfig {
                adaptive: false,
                ..default()
            },
            AIR_NOT_ADAPTIVE_BATCH,
        ),
        (
            "AIR early_stop=false",
            AirConfig {
                early_stop: false,
                ..default()
            },
            AIR_NO_EARLY_STOP_BATCH,
        ),
    ];
    for (name, cfg, golden) in cases {
        let alg = AirTopK::new(cfg);
        check_batch(name, &via_batch(&alg), true, ROW, 2048, golden);
    }
}

#[test]
fn radik_b8_batch_is_bit_identical() {
    let alg = RadiK::new(AirConfig {
        bits_per_pass: 8,
        ..AirConfig::default()
    });
    check_batch(
        "RadiK b=8",
        &via_batch(&alg),
        true,
        ROW,
        2048,
        RADIK_B8_BATCH,
    );
}

/// A typed f64 batched selection under test: given the rows as
/// separate buffers and as one row-major matrix, select K per row.
type F64Run<'a> = &'a dyn Fn(
    &mut Gpu,
    &[DeviceBuffer<f64>],
    &DeviceMatrix<f64>,
    usize,
) -> Result<RowOutputs<f64>, TopKError>;

/// Run `run` on one batch of two tie-heavy f64 rows for every K and
/// compare against `golden`: the ties16 row widened to f64, and values
/// `1 + m·1e-12` (m < 8191) that share their leading bits and repeat.
/// These take GridSelect's and RadiK's 64-bit ordered-key paths.
fn check_f64_batch(name: &str, run: F64Run<'_>, golden: &[(&str, [u64; 3])]) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ties16 = inputs_of(ROW).swap_remove(1);
    assert_eq!(ties16.0, "ties16");
    let rows: Vec<Vec<f64>> = vec![
        ties16.1.iter().map(|&v| v as f64).collect(),
        (0..ROW as u64)
            .map(|i| 1.0 + (i.wrapping_mul(2_654_435_761) % 8191) as f64 * 1e-12)
            .collect(),
    ];
    let mut cells = Vec::new();
    for k in KS {
        let mut gpu = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1));
        let bufs: Vec<_> = rows.iter().map(|r| gpu.htod("in", r)).collect();
        let matrix = DeviceMatrix::htod(&mut gpu, "m", &rows.concat(), rows.len(), ROW);
        gpu.reset_profile();
        let before = obs::counters().snapshot();
        let outs = run(&mut gpu, &bufs, &matrix, k).unwrap_or_else(|e| panic!("{name} k={k}: {e}"));
        let delta = obs::counters().snapshot().delta_since(&before);
        let mut outputs = Fnv::new();
        for (r, (values, indices)) in outs.iter().enumerate() {
            verify_topk_typed(&rows[r], k, values, indices)
                .unwrap_or_else(|e| panic!("{name} row {r} k={k}: {e}"));
            for (v, i) in values.iter().zip(indices) {
                outputs.u64(v.to_bits());
                outputs.u64(*i as u64);
            }
        }
        cells.push((
            format!("k={k}"),
            [outputs.0, meters_digest(&gpu), snapshot_digest(&delta)],
        ));
    }
    compare(name, &cells, golden);
}

#[test]
fn gridselect_f64_batch_is_bit_identical() {
    let run = |gpu: &mut Gpu, bufs: &[DeviceBuffer<f64>], _: &DeviceMatrix<f64>, k: usize| {
        Ok(row_outputs(
            GridSelect::default().run_batch_typed(gpu, bufs, k)?,
        ))
    };
    check_f64_batch("GridSelect f64", &run, GRIDSELECT_F64_BATCH);
}

#[test]
fn radik_f64_batch_is_bit_identical() {
    let run = |gpu: &mut Gpu, bufs: &[DeviceBuffer<f64>], _: &DeviceMatrix<f64>, k: usize| {
        Ok(row_outputs(RadiK::default().run_batch_typed(gpu, bufs, k)?))
    };
    check_f64_batch("RadiK f64", &run, RADIK_F64_BATCH);
}

#[test]
fn air_f64_batch_is_bit_identical() {
    let run = |gpu: &mut Gpu, bufs: &[DeviceBuffer<f64>], _: &DeviceMatrix<f64>, k: usize| {
        Ok(row_outputs(
            AirTopK::default().run_batch_typed(gpu, bufs, k)?,
        ))
    };
    check_f64_batch("AIR f64", &run, AIR_F64_BATCH);
}

#[test]
fn rowwise_f64_matrix_is_bit_identical() {
    let run = |gpu: &mut Gpu, _: &[DeviceBuffer<f64>], m: &DeviceMatrix<f64>, k: usize| {
        let (vals, idxs) = RowWiseTopK.run_matrix_typed(gpu, m, k)?;
        Ok((0..m.rows())
            .map(|r| (vals.row_to_vec(r), idxs.row_to_vec(r)))
            .collect())
    };
    check_f64_batch("RowWise f64 matrix", &run, ROWWISE_F64_MATRIX);
}

const GRIDSELECT: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x4bc5e1d89b146cf0, 0x0f5c39805df7e587, 0xe4b7af247e6be6ce],
    ),
    (
        "uniform k=32",
        [0x54cb03cd145e85f3, 0x885b90fc37168155, 0x8b1234c4723d6359],
    ),
    (
        "uniform k=100",
        [0x2bb4d0a875c17118, 0xfd5226e2ad76277f, 0x566fafc7fd0262ca],
    ),
    (
        "uniform k=256",
        [0xd60a0747a71adb1a, 0x44065fe0b6bfc45c, 0x334af1eb004cc1cb],
    ),
    (
        "uniform k=2048",
        [0x59b1e51c5c7582dc, 0xe867cf46ecb31772, 0x75ecd52f58cda72e],
    ),
    (
        "ties16 k=1",
        [0xfbd826abf9ffdee2, 0x5d53a535b2e5a831, 0x1a9e0b42b2182a4d],
    ),
    (
        "ties16 k=32",
        [0xf0351c78ae1214c8, 0x6f12b90ac4afe537, 0x8a0e68696e5ec59a],
    ),
    (
        "ties16 k=100",
        [0xa0389087c13a7e0d, 0xeb6f97ac7bfacd8e, 0x6b986cad069240a1],
    ),
    (
        "ties16 k=256",
        [0x2e6ad3743fb75929, 0xcf95e96789366349, 0x6b58a01b590c110e],
    ),
    (
        "ties16 k=2048",
        [0xc9a8225049d2c84e, 0x6f4fe7bb90d0ec16, 0x901832b18a0fcc82],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0x5d53a535b2e5a831, 0x1a9e0b42b2182a4d],
    ),
    (
        "equal k=32",
        [0x6ba96e3da701e625, 0xa89f3f085307cfc0, 0x1a9e0b42b2182a4d],
    ),
    (
        "equal k=100",
        [0x4b7de11ab729ed21, 0xc37e2d0d6d46808b, 0x824e081c5b6e71a2],
    ),
    (
        "equal k=256",
        [0x515b0c2b58a89b25, 0xd5fb8fbbefba4f51, 0x6874ef58dd12f7ee],
    ),
    (
        "equal k=2048",
        [0xd03bef1bb8f36b25, 0x40a90f0a4b8c780b, 0xf6f1d6af5e33646d],
    ),
    (
        "adversarial24 k=1",
        [0x9c790a4b9ec64f19, 0x69393fef43bb856d, 0xc45da828e05815bd],
    ),
    (
        "adversarial24 k=32",
        [0x80f927854e4a7014, 0x958c5312dcf51fd9, 0x07270dd455515528],
    ),
    (
        "adversarial24 k=100",
        [0x98e773877ddf2fbb, 0x5c5a7968137e1ec3, 0x6b3533240d227ecd],
    ),
    (
        "adversarial24 k=256",
        [0x6cd66cdefbe6e3c3, 0x3832d8d6e81cbf64, 0x81741abfde2e3b0c],
    ),
    (
        "adversarial24 k=2048",
        [0xb892dccab84c3ed2, 0xd21ec1c0abc4c6dc, 0x8b6bc4bf0b278b29],
    ),
];
const WARPSELECT: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x4bc5e1d89b146cf0, 0xe4054e8fe58f4e47, 0xd7a64ca4a999c581],
    ),
    (
        "uniform k=32",
        [0x54cb03cd145e85f3, 0xef33f8eace86ae62, 0xd8289796128f6be6],
    ),
    (
        "uniform k=100",
        [0x2bb4d0a875c17118, 0x580b8c86509f25e2, 0x37c206c144ee588a],
    ),
    (
        "uniform k=256",
        [0x4b6379379604236a, 0x4ce96f22aa461ca4, 0xee9b750b9fe98e21],
    ),
    (
        "uniform k=2048",
        [0x59978ac86ddc3704, 0xe922b82b40debf90, 0x195d5d6f1b935657],
    ),
    (
        "ties16 k=1",
        [0xfbd826abf9ffdee2, 0x569634f5b85f636e, 0x1ce14bccfe381144],
    ),
    (
        "ties16 k=32",
        [0x566681a8a639fadf, 0xc7f8e58552a32f4d, 0xd7a64ca4a999c581],
    ),
    (
        "ties16 k=100",
        [0x522bda3d185499aa, 0x166a0bde70b395f4, 0xae509e536d9d0dce],
    ),
    (
        "ties16 k=256",
        [0x272a3d8f583ac77e, 0xb96c7a26ba1ab022, 0x017e45e74e8c2399],
    ),
    (
        "ties16 k=2048",
        [0x1b7071a75fc65507, 0x81d03ed42ad98498, 0x2bd88a1b5c742816],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0x569634f5b85f636e, 0x1ce14bccfe381144],
    ),
    (
        "equal k=32",
        [0x2a55744bca3192c5, 0x11c0facc862d82ba, 0x1ce14bccfe381144],
    ),
    (
        "equal k=100",
        [0x2149ad8b6e773b85, 0xa7bd5281086f3ac3, 0x621c4af552d65d07],
    ),
    (
        "equal k=256",
        [0x725eca1469a29725, 0x6a918dc55db47ac4, 0xd7a64ca4a999c581],
    ),
    (
        "equal k=2048",
        [0x7b304e330fd9fa25, 0x3c19aa37fa918e63, 0x166a4288a10552a5],
    ),
    (
        "adversarial24 k=1",
        [0x9c790a4b9ec64f19, 0xdc44b7edec4d583a, 0x621c4af552d65d07],
    ),
    (
        "adversarial24 k=32",
        [0x2142d50d99058334, 0xb164eae74fc4d6c5, 0x38c69ca416d9a554],
    ),
    (
        "adversarial24 k=100",
        [0xc831bb04f4d3b3bf, 0xd83e98bf33157741, 0x70913e52481ccd74],
    ),
    (
        "adversarial24 k=256",
        [0x07627ca8b49460b9, 0xfe398b8d95841245, 0x926b4d7c54fb79be],
    ),
    (
        "adversarial24 k=2048",
        [0xf5544290b3f688d4, 0xe464e1e166aa335b, 0xb9c3ee43e93469b3],
    ),
];
const BLOCKSELECT: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x4bc5e1d89b146cf0, 0xce5430defdc89778, 0x4d2730cdb6daf7ab],
    ),
    (
        "uniform k=32",
        [0x54cb03cd145e85f3, 0x97f5472e9062431d, 0xfa0bc44668f04e80],
    ),
    (
        "uniform k=100",
        [0x2bb4d0a875c17118, 0xb81c6b732ad07b6b, 0xcfb858b8271e61f9],
    ),
    (
        "uniform k=256",
        [0x4b6379379604236a, 0x64013bc115170602, 0x1b6b2aaca6fc1b66],
    ),
    (
        "uniform k=2048",
        [0x26f93e8dd412a38c, 0x1a8d6ed1823a55e5, 0xfbec8a4be07ea39d],
    ),
    (
        "ties16 k=1",
        [0xfbd826abf9ffdee2, 0x27e4efeeab3e0aa3, 0x3abfd23da517f0a2],
    ),
    (
        "ties16 k=32",
        [0x566681a8a639fadf, 0x12cc73be9bb5260b, 0x5d9e774a83e1e9b6],
    ),
    (
        "ties16 k=100",
        [0x5fab376179676129, 0x816f6d7e7d9d5bf6, 0x8c7facafaa4097d4],
    ),
    (
        "ties16 k=256",
        [0xe98c286410acd119, 0xd214030a69388b9d, 0x1cea695347ba4794],
    ),
    (
        "ties16 k=2048",
        [0x8cbe83cc7f5f22bf, 0x7c5f4c88b6acc09b, 0x00de45cb9ee9cd23],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0x27e4efeeab3e0aa3, 0x3abfd23da517f0a2],
    ),
    (
        "equal k=32",
        [0x2a55744bca3192c5, 0x5a627f0b20ea3534, 0x3abfd23da517f0a2],
    ),
    (
        "equal k=100",
        [0x2149ad8b6e773b85, 0xc9af1ce7a3fee70e, 0x4fabcedef7911fae],
    ),
    (
        "equal k=256",
        [0x725eca1469a29725, 0xf589cda32db49f8d, 0x5d9e774a83e1e9b6],
    ),
    (
        "equal k=2048",
        [0x193109f7b6afa825, 0x256f1af9343857d4, 0x20e3ad2c304cf626],
    ),
    (
        "adversarial24 k=1",
        [0x9c790a4b9ec64f19, 0x5d8919eb1a3d86f6, 0x364b1c191fa5b3a1],
    ),
    (
        "adversarial24 k=32",
        [0x80c5968b1eca8a7a, 0x3989fbc9ef48b47f, 0xc241229837ad2660],
    ),
    (
        "adversarial24 k=100",
        [0xbb61f37e0aea1197, 0x6029f1f3b7e6fa17, 0xa16ba950fcb9c6e0],
    ),
    (
        "adversarial24 k=256",
        [0x44270bcedfc5e0f6, 0xdb1fe818964936a4, 0xb4d8674bae74c9be],
    ),
    (
        "adversarial24 k=2048",
        [0x8899ecb16530d2d0, 0x6f2756803862825b, 0x001bf2e3266df871],
    ),
];
const BITONIC: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x4bc5e1d89b146cf0, 0xbb4fbe27f563186b, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=32",
        [0x54cb03cd145e85f3, 0x13d35d41412c9e14, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=100",
        [0x2bb4d0a875c17118, 0xcd7f44aa1643b3b0, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=256",
        [0x4b6379379604236a, 0x1ebae316f35f72e9, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=1",
        [0xfbd826abf9ffdee2, 0xbb4fbe27f563186b, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=32",
        [0x77e15acb12922ac8, 0x13d35d41412c9e14, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=100",
        [0x3945140e89a5f10d, 0xcd7f44aa1643b3b0, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=256",
        [0x7b6f6230218218dd, 0x1ebae316f35f72e9, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0xbb4fbe27f563186b, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=32",
        [0x6ba96e3da701e625, 0x13d35d41412c9e14, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=100",
        [0x4b7de11ab729ed21, 0xcd7f44aa1643b3b0, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=256",
        [0x515b0c2b58a89b25, 0x1ebae316f35f72e9, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=1",
        [0x9c790a4b9ec64f19, 0xbb4fbe27f563186b, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=32",
        [0xec27b70a7faf9304, 0x13d35d41412c9e14, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=100",
        [0xc97c188190cd3257, 0xcd7f44aa1643b3b0, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=256",
        [0x89e46e1f763bec9d, 0x1ebae316f35f72e9, 0xde9fa0da6fc22a85],
    ),
];
const STREAMING: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x4bc5e1d89b146cf0, 0x60b2fa19eb9961c8, 0x2ad3f4388a88db4c],
    ),
    (
        "uniform k=32",
        [0x54cb03cd145e85f3, 0x7f32656e54bb1cf5, 0x92ed986dbdf12023],
    ),
    (
        "uniform k=100",
        [0x2bb4d0a875c17118, 0xeab91d4cea3ae5db, 0x8aefae5525dd6e55],
    ),
    (
        "uniform k=256",
        [0x4b6379379604236a, 0xa96893456a97f473, 0xee9b750b9fe98e21],
    ),
    (
        "uniform k=2048",
        [0xb87c7f95fe58f71c, 0x4d19d30c92092244, 0x83e1c27b628a8f90],
    ),
    (
        "ties16 k=1",
        [0xfbd826abf9ffdee2, 0x2417bcd476ec5f86, 0xd7a64ca4a999c581],
    ),
    (
        "ties16 k=32",
        [0xf0351c78ae1214c8, 0x5ec723c7cbc9c3c4, 0x77084796a54f8c13],
    ),
    (
        "ties16 k=100",
        [0xa0389087c13a7e0d, 0xe5761863ee84e13d, 0xdf21ebcbd8b7d0ea],
    ),
    (
        "ties16 k=256",
        [0xb6603d8da27d905d, 0xc218c863e4ceee57, 0x53a757985d8fec9a],
    ),
    (
        "ties16 k=2048",
        [0xee82516525a610b5, 0x15e0128b05866c0e, 0x45cf55eecc73053e],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0x2417bcd476ec5f86, 0xd7a64ca4a999c581],
    ),
    (
        "equal k=32",
        [0x6ba96e3da701e625, 0x0b6f6c2d4fc2c39c, 0xd7a64ca4a999c581],
    ),
    (
        "equal k=100",
        [0x4b7de11ab729ed21, 0x044827ada7d3b4fe, 0x38c69ca416d9a554],
    ),
    (
        "equal k=256",
        [0x515b0c2b58a89b25, 0x092c53d755ba9558, 0x166a4288a10552a5],
    ),
    (
        "equal k=2048",
        [0xdfb0a349855ba925, 0x990144c1a5adf85a, 0x3d3a8940ce3f334a],
    ),
    (
        "adversarial24 k=1",
        [0x9c790a4b9ec64f19, 0x60b2fa19eb9961c8, 0x2ad3f4388a88db4c],
    ),
    (
        "adversarial24 k=32",
        [0x9fdb2f646b7a9250, 0x9b2bcc505106501d, 0x017e45e74e8c2399],
    ),
    (
        "adversarial24 k=100",
        [0x2b982a788cb2ceb7, 0x6250b3f67443a6e4, 0xeb8db3632a27a7c3],
    ),
    (
        "adversarial24 k=256",
        [0x6bd6628a4f492609, 0xca4e84d83bdeabb3, 0xe7a220d5d9c1291d],
    ),
    (
        "adversarial24 k=2048",
        [0x62515f53cc6c0e08, 0x174a82d086e449e5, 0x609b793f15fed2c3],
    ),
];
const AIR: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x4bc5e1d89b146cf0, 0x8b7fdb53392c8556, 0xfcfb7cf60cb8a0c6],
    ),
    (
        "uniform k=32",
        [0xecb4c479136e2eb3, 0xf56c3b82e2fb9a0b, 0xe813eaa10bb89ea6],
    ),
    (
        "uniform k=100",
        [0xd77bfb7007b1c9ec, 0xd3718d93fa6c0b23, 0xe813eaa10bb89ea6],
    ),
    (
        "uniform k=256",
        [0x96f02c54c81c6d42, 0xd6fb52a9e636c687, 0xe813eaa10bb89ea6],
    ),
    (
        "uniform k=2048",
        [0x888adcb2d05dcf84, 0x39aee7f30102a8c0, 0x6ce514fbf928b465],
    ),
    (
        "ties16 k=1",
        [0xfbd826abf9ffdee2, 0xe033fa120492f35f, 0xba580748fb0d2ac5],
    ),
    (
        "ties16 k=32",
        [0x002c0fc53e54d938, 0x643f8d3c9f95c028, 0xba580748fb0d2ac5],
    ),
    (
        "ties16 k=100",
        [0xfd93cecf80c4aa4d, 0x71b8a152cd57c179, 0xba580748fb0d2ac5],
    ),
    (
        "ties16 k=256",
        [0xd4c46a248ba3cc9d, 0xb7a8f81ecdf1bfa3, 0xba580748fb0d2ac5],
    ),
    (
        "ties16 k=2048",
        [0xbb6cf5757e953165, 0x39d17e8fe3544cd3, 0xba580748fb0d2ac5],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0xc7e40df64a04de9b, 0xba580748fb0d2ac5],
    ),
    (
        "equal k=32",
        [0x6ba96e3da701e625, 0xce5432ef182cdf9a, 0xba580748fb0d2ac5],
    ),
    (
        "equal k=100",
        [0x4b7de11ab729ed21, 0xb97b9506a7ba12f8, 0xba580748fb0d2ac5],
    ),
    (
        "equal k=256",
        [0x515b0c2b58a89b25, 0x391071add017bf69, 0xba580748fb0d2ac5],
    ),
    (
        "equal k=2048",
        [0xdfb0a349855ba925, 0xa5432f52ea479899, 0xba580748fb0d2ac5],
    ),
    (
        "adversarial24 k=1",
        [0x9c790a4b9ec64f19, 0xec64ba149f13ecd3, 0x8128db62855828e5],
    ),
    (
        "adversarial24 k=32",
        [0xec27b70a7faf9304, 0x2590ba8477ec3b1e, 0x8128db62855828e5],
    ),
    (
        "adversarial24 k=100",
        [0x9a63a3efbb5f4f4f, 0x9409bca149868464, 0x8128db62855828e5],
    ),
    (
        "adversarial24 k=256",
        [0x5d2888b0d38b4441, 0x61a18ec70ff26b07, 0x8128db62855828e5],
    ),
    (
        "adversarial24 k=2048",
        [0x418dfb302f78ff42, 0xe7c457992ebe5593, 0x8128db62855828e5],
    ),
];
const SELECT_LARGEST: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x066190b5ac9ff7c8, 0x168ae396ae19ab56, 0xfcfb7cf60cb8a0c6],
    ),
    (
        "uniform k=32",
        [0xb5f2295efe41f19b, 0x02009e0b39ef912b, 0x0f8b1b91ca2da607],
    ),
    (
        "uniform k=100",
        [0xff5cdd1b72ea4ee2, 0x765504b31b8218c2, 0x0f8b1b91ca2da607],
    ),
    (
        "uniform k=256",
        [0xeb932df9a83ef28a, 0x68dbaa09c8875bd5, 0x0f8b1b91ca2da607],
    ),
    (
        "uniform k=2048",
        [0xcbd6b472e208d138, 0xead3bff73d22151c, 0x0f8b1b91ca2da607],
    ),
    (
        "ties16 k=1",
        [0xfb06b2a524e9e40b, 0x76d03daa47aa5aab, 0xba580748fb0d2ac5],
    ),
    (
        "ties16 k=32",
        [0xab038b5ae3155cb1, 0x742b14639270e003, 0xba580748fb0d2ac5],
    ),
    (
        "ties16 k=100",
        [0x441572ef9de9f2f4, 0x4256d764e5e9f750, 0xba580748fb0d2ac5],
    ),
    (
        "ties16 k=256",
        [0xaa67fd49e8298c6d, 0x8c7157297c4ab8d4, 0xba580748fb0d2ac5],
    ),
    (
        "ties16 k=2048",
        [0x64aac03536336ae5, 0x05586805e19080e5, 0xba580748fb0d2ac5],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0x4d7292c698ea05ee, 0xba580748fb0d2ac5],
    ),
    (
        "equal k=32",
        [0x6ba96e3da701e625, 0x30049aef765af105, 0xba580748fb0d2ac5],
    ),
    (
        "equal k=100",
        [0x4b7de11ab729ed21, 0x406b11eaccb8f0e2, 0xba580748fb0d2ac5],
    ),
    (
        "equal k=256",
        [0x515b0c2b58a89b25, 0x758043f83343dda6, 0xba580748fb0d2ac5],
    ),
    (
        "equal k=2048",
        [0xdfb0a349855ba925, 0x49c66f545a0ee8a5, 0xba580748fb0d2ac5],
    ),
    (
        "adversarial24 k=1",
        [0x9702ab37ce42fa28, 0x2001243ef249c26d, 0x8128db62855828e5],
    ),
    (
        "adversarial24 k=32",
        [0xfa5fe447d4d57dad, 0xf3ae9ef1b7621335, 0x8128db62855828e5],
    ),
    (
        "adversarial24 k=100",
        [0xa598280f01bdfcf8, 0x38b21577d6209d70, 0x8128db62855828e5],
    ),
    (
        "adversarial24 k=256",
        [0xb9cba193c5c48206, 0xd3aa143800ec4950, 0x8128db62855828e5],
    ),
    (
        "adversarial24 k=2048",
        [0xd4a31955312eecdb, 0xdac5e167ebf70789, 0x8128db62855828e5],
    ),
];
const RADIK_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0xc575c286dd963564, 0x975b6cccf7ca1929],
    ),
    (
        "k=32",
        [0x048a71b2ce8c071c, 0x63b31982fe56b561, 0x975b6cccf7ca1929],
    ),
    (
        "k=100",
        [0xd3c79a512baf48df, 0xbacb00ca414fa0dd, 0x49fbae8fb54835ea],
    ),
    (
        "k=256",
        [0x34ec9c193afdff2a, 0xfd68a55946dc2aee, 0x975b6cccf7ca1929],
    ),
    (
        "k=2048",
        [0x7e06728cd187f28c, 0x1c0a912eeee9362f, 0x49fbae8fb54835ea],
    ),
];
const ROWWISE_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0x1a8619c1ee415341, 0x71bf4bd1cafccec0],
    ),
    (
        "k=32",
        [0x5574cc7ee68f0c0c, 0x359720766b3d7603, 0x4cac4ba3c7733903],
    ),
    (
        "k=100",
        [0xf21ac02a7a9128bb, 0x6663fabc3937c234, 0xdd734b19bcd677cc],
    ),
    (
        "k=256",
        [0xc4c4d3d077d60cd6, 0x136419358fc1933e, 0x6f66a0506525694e],
    ),
    (
        "k=2048",
        [0xbeffc154606d1944, 0x1b26d0a65e58ca77, 0xb98ca0ac6c3894c8],
    ),
];
const TWOSTAGE_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0xe68b45531de52194, 0xd946edf3cccbea04],
    ),
    (
        "k=32",
        [0x5b5bd2c56124e58c, 0x5f9c9b09857245d3, 0xd946edf3cccbea04],
    ),
    (
        "k=100",
        [0x4df9dfb983ad48f8, 0xb8c9bb81c48df5b9, 0xd946edf3cccbea04],
    ),
    (
        "k=256",
        [0xf90aea6f6964afa1, 0xa7d77c1ce7bb3233, 0xd946edf3cccbea04],
    ),
    (
        "k=2048",
        [0x737626ddb67bfd78, 0x88201fb960ff6465, 0xde9fa0da6fc22a85],
    ),
];
const BUCKETED_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0x332c22b4533ae3e1, 0x4003980ffcef8fe4],
    ),
    (
        "k=32",
        [0xc9547d3c8e72bdb7, 0xaac2a8e402c4e766, 0x4003980ffcef8fe4],
    ),
    (
        "k=100",
        [0xcfabf6e9f1fdac28, 0x35a426f71b22ffc6, 0x4003980ffcef8fe4],
    ),
    (
        "k=256",
        [0x0747055fddcc2d56, 0x7709964f0885a2f0, 0x4003980ffcef8fe4],
    ),
    (
        "k=2048",
        [0x564d24424f1b5842, 0x3b7e9a902ceebc41, 0x4003980ffcef8fe4],
    ),
];
const AIR_ONE_BLOCK_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0x73b88f8208482db4, 0xe746368c807c524a],
    ),
    (
        "k=32",
        [0x00effaefc2be7f38, 0x497ea69a88dd9281, 0x3305010eb3a6596b],
    ),
    (
        "k=100",
        [0x062eaf96dd1ff970, 0xe018bd81664d33b0, 0x3305010eb3a6596b],
    ),
    (
        "k=256",
        [0xc98935e30f902f86, 0x73f92c3bd48ab05f, 0x7d2b8feeb05bd4e8],
    ),
    (
        "k=2048",
        [0x2d33f4bc3c366341, 0x9da3788dd639bac0, 0xfffdbb81d4b8d0c9],
    ),
];
const AIR_MATRIX: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0xdc6617ff7e5e34cf, 0xc5d71e156610a0a6],
    ),
    (
        "k=32",
        [0x048a71b2ce8c071c, 0xcb20a6104d6813f8, 0xc5d71e156610a0a6],
    ),
    (
        "k=100",
        [0x591592bed2974dcb, 0x22d9bb5598517ec4, 0xa5a6dd73d39caf02],
    ),
    (
        "k=256",
        [0x373e0f7f7be60e9e, 0xeefec194fa10638e, 0xa5a6dd73d39caf02],
    ),
    (
        "k=2048",
        [0x03d5e20c03fd3068, 0xe418393fd34db72c, 0x0300d6de0297bd60],
    ),
];
const GRIDSELECT_MATRIX: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0xa756ca474f46fe39, 0x46d5650ff8b474ba],
    ),
    (
        "k=32",
        [0x4fe241cf87ff85b0, 0xee4c8b5d31d9243c, 0xcc22faefd48b3614],
    ),
    (
        "k=100",
        [0x83a88296f1b04983, 0x54fb54822fbc9118, 0xdf943e76d70bdc6c],
    ),
    (
        "k=256",
        [0x56b74ac2d8b7b926, 0xb6b2f63d1077fd1f, 0x9e99f61b5cbbcf09],
    ),
    (
        "k=2048",
        [0x6c69494740090dac, 0x5bbf1314efc34ba5, 0x8c8cb9dcfa02395b],
    ),
];
const GRIDSELECT_F64_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x18fd0c98c2f2c718, 0x2cbaf0a6d5e18ff2, 0xdf13dbcbadf2ce3b],
    ),
    (
        "k=32",
        [0x27cb1557ff03dbfa, 0x57df2c52d8527de7, 0xb2c97f845b4eb4c0],
    ),
    (
        "k=100",
        [0x6f5c6f80923a3452, 0x76e08614b1b32bc6, 0x499fe3058f0cce75],
    ),
    (
        "k=256",
        [0x6cb51827662882f9, 0x5d5ac6709f1bb50b, 0x52e11508ded4acb1],
    ),
    (
        "k=2048",
        [0xdd8051e49d6ef962, 0x312f089e41ab162f, 0x27fab68c3d220b3b],
    ),
];
const RADIK_F64_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x18fd0c98c2f2c718, 0xbb8fb3a1fa0a2785, 0xb93ee84302badd52],
    ),
    (
        "k=32",
        [0x89617689d4bfb23a, 0xae65bda0c62dedbc, 0xb93ee84302badd52],
    ),
    (
        "k=100",
        [0xdda63390666458be, 0x216c9c78f4bab48e, 0xb93ee84302badd52],
    ),
    (
        "k=256",
        [0xca8f319cf6022ec8, 0x6bae7ac9577c4c90, 0xb93ee84302badd52],
    ),
    (
        "k=2048",
        [0xc4e802f437e8adec, 0xa3208aeec5a84dfc, 0x70e6c3b5339c2468],
    ),
];
const UNFUSED_B11_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0xfc3904d5e6a1ed07, 0xde9fa0da6fc22a85],
    ),
    (
        "k=32",
        [0xe0a4926eff677cd0, 0xd0ad6463ce3d307b, 0xde9fa0da6fc22a85],
    ),
    (
        "k=100",
        [0xa9846fd5c1e44d6b, 0x652d940715cdd741, 0xde9fa0da6fc22a85],
    ),
    (
        "k=256",
        [0xa73325b5fa066ca6, 0x829307d69098ac2c, 0xde9fa0da6fc22a85],
    ),
    (
        "k=2048",
        [0xd292eddbeea46cf0, 0x4ca9f91ca27f1de6, 0xde9fa0da6fc22a85],
    ),
];
const UNFUSED_B8_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0x8dd18321c2fbb0d1, 0xde9fa0da6fc22a85],
    ),
    (
        "k=32",
        [0x5f40a370a9fdc478, 0x4b9024b3bd739ed2, 0xde9fa0da6fc22a85],
    ),
    (
        "k=100",
        [0x557006506b812bfb, 0x624443667b84ed19, 0xde9fa0da6fc22a85],
    ),
    (
        "k=256",
        [0xa392f9eee294b982, 0xb3f686dedba92c97, 0xde9fa0da6fc22a85],
    ),
    (
        "k=2048",
        [0x17643af935de8064, 0xc4d5abe566b564a2, 0xde9fa0da6fc22a85],
    ),
];
const AIR_B8_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0x7e345540997365c5, 0xba71a3bb192dbde0],
    ),
    (
        "k=32",
        [0x18ce94a1b44076cc, 0x5579847431634310, 0x661bf37c35bbb6c2],
    ),
    (
        "k=100",
        [0xcd9e19a6d7460dbf, 0xf75034901139ef44, 0x661bf37c35bbb6c2],
    ),
    (
        "k=256",
        [0x0e4d237de97dfb2a, 0xe7e2459c4fd9a7f6, 0x56f5845b38e49fa6],
    ),
    (
        "k=2048",
        [0xe307efe2f7a07c7c, 0x179c8b21505fd7a7, 0x9cb62610b4d0491a],
    ),
];
const AIR_NOT_ADAPTIVE_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0x533d2050e5509f08, 0x8f507d4913b8afa6],
    ),
    (
        "k=32",
        [0x048a71b2ce8c071c, 0x8d08851b139f706a, 0x8f507d4913b8afa6],
    ),
    (
        "k=100",
        [0x591592bed2974dcb, 0x3433b58e548daee4, 0x6f203ca78144be02],
    ),
    (
        "k=256",
        [0x373e0f7f7be60e9e, 0xd864d50f1dc8925b, 0x6f203ca78144be02],
    ),
    (
        "k=2048",
        [0x03d5e20c03fd3068, 0x24a1b1d2ddf561ae, 0x6f203ca78144be02],
    ),
];
const AIR_NO_EARLY_STOP_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0x61e73598f0cef4a4, 0x68c48afac61a2405],
    ),
    (
        "k=32",
        [0xe0a4926eff677cd0, 0xf7a578caab4aeabb, 0x68c48afac61a2405],
    ),
    (
        "k=100",
        [0xa9846fd5c1e44d6b, 0xc2107b3aaccbd59c, 0x68c48afac61a2405],
    ),
    (
        "k=256",
        [0xa73325b5fa066ca6, 0x3747777b64ed2dff, 0x68c48afac61a2405],
    ),
    (
        "k=2048",
        [0xd292eddbeea46cf0, 0xcdad8bbc4e3e8980, 0xc61e8464f5153263],
    ),
];
const RADIK_B8_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0x08ed2ac764d080ce, 0x624ae165e76f6367],
    ),
    (
        "k=32",
        [0x048a71b2ce8c071c, 0x7260257661c03f50, 0x624ae165e76f6367],
    ),
    (
        "k=100",
        [0x591592bed2974dcb, 0x01c471f0e7e72390, 0xaaca0c5a843814a4],
    ),
    (
        "k=256",
        [0x373e0f7f7be60e9e, 0xc2e98d972d3f6a8c, 0xaaca0c5a843814a4],
    ),
    (
        "k=2048",
        [0x7e06728cd187f28c, 0xa2314a03fa11262a, 0xa580e30e89d0e06d],
    ),
];
const AIR_F64_BATCH: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x18fd0c98c2f2c718, 0xe1a96c259921655a, 0x3ebbce354d3c3941],
    ),
    (
        "k=32",
        [0x49b9de7b218128ca, 0x02b086ca00173c71, 0x3ebbce354d3c3941],
    ),
    (
        "k=100",
        [0x9cde4cb571511c8e, 0x6a66da89456b1347, 0x3ebbce354d3c3941],
    ),
    (
        "k=256",
        [0x013d2d3273aa5a0c, 0x66cdd5eba8b93e91, 0x3ebbce354d3c3941],
    ),
    (
        "k=2048",
        [0x4bbbb143cdfb43cc, 0x117054c3c83be710, 0x3ebbce354d3c3941],
    ),
];

const ROWWISE_MATRIX: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0x1a8619c1ee415341, 0x71bf4bd1cafccec0],
    ),
    (
        "k=32",
        [0x5574cc7ee68f0c0c, 0x359720766b3d7603, 0x4cac4ba3c7733903],
    ),
    (
        "k=100",
        [0xf21ac02a7a9128bb, 0x6663fabc3937c234, 0xdd734b19bcd677cc],
    ),
    (
        "k=256",
        [0xc4c4d3d077d60cd6, 0x136419358fc1933e, 0x6f66a0506525694e],
    ),
    (
        "k=2048",
        [0xbeffc154606d1944, 0x1b26d0a65e58ca77, 0xb98ca0ac6c3894c8],
    ),
];

const BUCKETED_MATRIX: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0x332c22b4533ae3e1, 0x4003980ffcef8fe4],
    ),
    (
        "k=32",
        [0xc9547d3c8e72bdb7, 0xaac2a8e402c4e766, 0x4003980ffcef8fe4],
    ),
    (
        "k=100",
        [0xcfabf6e9f1fdac28, 0x35a426f71b22ffc6, 0x4003980ffcef8fe4],
    ),
    (
        "k=256",
        [0x0747055fddcc2d56, 0x7709964f0885a2f0, 0x4003980ffcef8fe4],
    ),
    (
        "k=2048",
        [0x564d24424f1b5842, 0x3b7e9a902ceebc41, 0x4003980ffcef8fe4],
    ),
];

const TWOSTAGE_MATRIX: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x910bec67397aedd0, 0xe68b45531de52194, 0xd946edf3cccbea04],
    ),
    (
        "k=32",
        [0x5b5bd2c56124e58c, 0x5f9c9b09857245d3, 0xd946edf3cccbea04],
    ),
    (
        "k=100",
        [0x4df9dfb983ad48f8, 0xb8c9bb81c48df5b9, 0xd946edf3cccbea04],
    ),
    (
        "k=256",
        [0xf90aea6f6964afa1, 0xa7d77c1ce7bb3233, 0xd946edf3cccbea04],
    ),
    (
        "k=2048",
        [0x737626ddb67bfd78, 0x88201fb960ff6465, 0xde9fa0da6fc22a85],
    ),
];

const ROWWISE_F64_MATRIX: &[(&str, [u64; 3])] = &[
    (
        "k=1",
        [0x18fd0c98c2f2c718, 0x443077373f4824ac, 0x7092f61118111c07],
    ),
    (
        "k=32",
        [0x121f2f900a461a82, 0x13c7dadd15e807f0, 0x27994b75c3e9a346],
    ),
    (
        "k=100",
        [0x7850facdaeff804a, 0x890d8b57cb7c714e, 0x71bf4bd1cafccec0],
    ),
    (
        "k=256",
        [0xcbf0e9d0e01c6450, 0x38439c23683adb35, 0x4cac4ba3c7733903],
    ),
    (
        "k=2048",
        [0xf6449b1664655444, 0x67646675e196f02e, 0x266cf5b510fdf08d],
    ),
];

const RADIXSELECT: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x4bc5e1d89b146cf0, 0xcbfb051e8043b5f3, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=32",
        [0xe70a3e92c9481bc7, 0x3ad7331ddcc490ec, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=100",
        [0x0b9735fbb3e8db20, 0x100a1fdb5a0add52, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=256",
        [0x54e030f4611a55ee, 0xe72b944cca5c42ac, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=2048",
        [0x100e57ec10f58fb8, 0x1a7252ff49b35a31, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=1",
        [0xfbd826abf9ffdee2, 0x44e855ab0f5f4f76, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=32",
        [0x002c0fc53e54d938, 0x81b3f4dcf8e6ed65, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=100",
        [0xfd93cecf80c4aa4d, 0x8d622fa0f0700ddf, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=256",
        [0xd4c46a248ba3cc9d, 0x02d8f518334f8d87, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=2048",
        [0xbb6cf5757e953165, 0x10a05088b90714ee, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0xafea21462e3f950c, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=32",
        [0x6ba96e3da701e625, 0x847b123eee01b121, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=100",
        [0x4b7de11ab729ed21, 0xa6d7befc8ca0408c, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=256",
        [0x515b0c2b58a89b25, 0xa4e375a21c416fe4, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=2048",
        [0xdfb0a349855ba925, 0x916b34d3358e2e39, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=1",
        [0x9c790a4b9ec64f19, 0x98a3d80b372a86fd, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=32",
        [0xec27b70a7faf9304, 0x6795dc24e513ff41, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=100",
        [0x9a63a3efbb5f4f4f, 0x7957ea7395606c09, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=256",
        [0x5d2888b0d38b4441, 0xc52b58a9f726be14, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=2048",
        [0x418dfb302f78ff42, 0x9ea83c51e996f5c4, 0xde9fa0da6fc22a85],
    ),
];

const QUICKSELECT: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x4bc5e1d89b146cf0, 0xf764b04667e0995c, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=32",
        [0x54cb03cd145e85f3, 0x67e4c3a21fcf5e54, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=100",
        [0x29b46668d3bed348, 0x0754287103562f9b, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=256",
        [0xd60a0747a71adb1a, 0x3f2300e002bdff08, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=2048",
        [0x90d71bc97f209588, 0xed6170869fabcedc, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=1",
        [0xfbd826abf9ffdee2, 0xda299f654904e36c, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=32",
        [0x002c0fc53e54d938, 0x344c6456b36bf984, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=100",
        [0xfd93cecf80c4aa4d, 0xd14a7b8b0cf55375, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=256",
        [0xd4c46a248ba3cc9d, 0x927d5e52054802b6, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=2048",
        [0xbb6cf5757e953165, 0xd63edd4a9110c3d3, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0xa4661c9fd71535f2, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=32",
        [0x6ba96e3da701e625, 0xcb931f381a6f54d2, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=100",
        [0x4b7de11ab729ed21, 0xa9e9612b24138f61, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=256",
        [0x515b0c2b58a89b25, 0xebe38d53e603d910, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=2048",
        [0xdfb0a349855ba925, 0xfedb2f20e7e854bc, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=1",
        [0x9c790a4b9ec64f19, 0x2aa3168bf58b4dcc, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=32",
        [0x0333ee80c8cb9fbc, 0xb50fa80cf58697a8, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=100",
        [0x703e495df03d5638, 0x14d431ba355df0d2, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=256",
        [0x9dfb12ea986e9e60, 0x9997baa8f9938e4a, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=2048",
        [0x817ef883e1639323, 0x1a159460ebe8d008, 0xde9fa0da6fc22a85],
    ),
];

const BUCKETSELECT: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x4bc5e1d89b146cf0, 0x1c0aed4215e89950, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=32",
        [0x7ba99bcc3b84cd1f, 0xe15bfc4dbe55f56e, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=100",
        [0x705b82375f5e6f78, 0x48bb2e94e23e0931, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=256",
        [0x44cfa09ef2466b62, 0x41b1da7ab045b7ee, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=2048",
        [0x9e33cfde9d14753c, 0x532e046010a36943, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=1",
        [0xfbd826abf9ffdee2, 0x24962eb09f800807, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=32",
        [0x002c0fc53e54d938, 0x074cca25c148007f, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=100",
        [0xfd93cecf80c4aa4d, 0x041faf992e977a94, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=256",
        [0xd4c46a248ba3cc9d, 0xa1e69aa68da6c707, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=2048",
        [0xbb6cf5757e953165, 0xd76dc89b495f0360, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0xcca4cc0759b3ddbb, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=32",
        [0x6ba96e3da701e625, 0x82252475ca78ba63, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=100",
        [0x4b7de11ab729ed21, 0xa92c41aea619cb14, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=256",
        [0x515b0c2b58a89b25, 0x4a6584507c485d3b, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=2048",
        [0xdfb0a349855ba925, 0xde7dcb4ebd09ae95, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=1",
        [0x9c790a4b9ec64f19, 0x01b2722e076f11ea, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=32",
        [0xec27b70a7faf9304, 0xab0ceb76555e0832, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=100",
        [0x9a63a3efbb5f4f4f, 0x657d18d31fc37fad, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=256",
        [0x5d2888b0d38b4441, 0xcd30904fd2dcf3f3, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=2048",
        [0xbe89e49712d7f1de, 0xb41460e61ee3d6c5, 0xde9fa0da6fc22a85],
    ),
];

const SAMPLESELECT: &[(&str, [u64; 3])] = &[
    (
        "uniform k=1",
        [0x4bc5e1d89b146cf0, 0x57cf0b3f245b478b, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=32",
        [0x54cb03cd145e85f3, 0xf15c6bd5418b8be3, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=100",
        [0x2bb4d0a875c17118, 0x9da3132aee3ce3a4, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=256",
        [0x4b6379379604236a, 0xf315592554dbe6f1, 0xde9fa0da6fc22a85],
    ),
    (
        "uniform k=2048",
        [0x040dc9b11af2ca60, 0xd043db0519f51763, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=1",
        [0xfbd826abf9ffdee2, 0xa89a5e62214ecc49, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=32",
        [0x002c0fc53e54d938, 0x5cc317f77ea8e061, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=100",
        [0xfd93cecf80c4aa4d, 0x816c05ce66927d36, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=256",
        [0xd4c46a248ba3cc9d, 0x2b49f26c33280d49, 0xde9fa0da6fc22a85],
    ),
    (
        "ties16 k=2048",
        [0xbb6cf5757e953165, 0x23a2fa032addd540, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=1",
        [0x05afe762d6f451d8, 0x0018bfd43d442deb, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=32",
        [0x6ba96e3da701e625, 0x1fd68813ca52dae3, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=100",
        [0x4b7de11ab729ed21, 0xf871283a43715674, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=256",
        [0x515b0c2b58a89b25, 0x928125c466666d6b, 0xde9fa0da6fc22a85],
    ),
    (
        "equal k=2048",
        [0xdfb0a349855ba925, 0x9e9d6c96a4c190a9, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=1",
        [0x9c790a4b9ec64f19, 0x66dfebde60ee9598, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=32",
        [0xec27b70a7faf9304, 0x3ed209f4689a1210, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=100",
        [0x9a63a3efbb5f4f4f, 0x5529daeb0cb7c76f, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=256",
        [0x5d2888b0d38b4441, 0x4058574952499492, 0xde9fa0da6fc22a85],
    ),
    (
        "adversarial24 k=2048",
        [0xbe89e49712d7f1de, 0xc40b7948bed7f0b2, 0xde9fa0da6fc22a85],
    ),
];
