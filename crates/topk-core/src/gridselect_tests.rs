//! Tests for [`super`] — split out to keep the implementation file
//! readable (the suite is as long as the algorithm itself).

use super::*;
use crate::verify::verify_topk;
use datagen::{generate, Distribution};
use gpu_sim::{DeviceSpec, Gpu};

fn gpu() -> Gpu {
    Gpu::new(DeviceSpec::a100())
}

fn run_case(alg: &GridSelect, data: &[f32], k: usize) {
    let mut g = gpu();
    let input = g.htod("in", data);
    let out = alg.select(&mut g, &input, k);
    verify_topk(data, k, &out.values.to_vec(), &out.indices.to_vec())
        .unwrap_or_else(|e| panic!("GridSelect failed: {e} (n = {}, k = {k})", data.len()));
}

#[test]
fn small_hand_case() {
    run_case(
        &GridSelect::default(),
        &[5.0, 1.0, 4.0, 1.5, -2.0, 8.0, 0.0],
        3,
    );
}

#[test]
fn all_distributions_many_shapes() {
    let alg = GridSelect::default();
    for dist in [
        Distribution::Uniform,
        Distribution::Normal,
        Distribution::RadixAdversarial { m_bits: 20 },
    ] {
        for (n, k) in [
            (1usize, 1usize),
            (50, 3),
            (1000, 7),
            (10_000, 100),
            (20_000, 2048),
            (4096, 1),
        ] {
            let data = generate(dist, n, 42);
            run_case(&alg, &data, k);
        }
    }
}

#[test]
fn descending_input_worst_case_for_queues() {
    // Strictly descending input: every element beats the threshold,
    // maximal queue churn.
    let data: Vec<f32> = (0..5000).map(|i| 5000.0 - i as f32).collect();
    run_case(&GridSelect::default(), &data, 100);
}

#[test]
fn ascending_input_best_case() {
    let data: Vec<f32> = (0..5000).map(|i| i as f32).collect();
    run_case(&GridSelect::default(), &data, 100);
}

#[test]
fn ties_and_specials() {
    let mut data = vec![1.0f32; 300];
    data.extend([-0.0, 0.0, f32::NEG_INFINITY, f32::INFINITY]);
    run_case(&GridSelect::default(), &data, 302);
}

#[test]
fn per_thread_queue_variant_is_correct() {
    let cfg = GridSelectConfig {
        queue: QueueKind::PerThread { len: 2 },
        ..GridSelectConfig::default()
    };
    let alg = GridSelect::new(cfg);
    for seed in 0..3 {
        let data = generate(Distribution::Normal, 8000, seed);
        run_case(&alg, &data, 64);
    }
}

#[test]
fn single_block_shape_is_correct() {
    // BlockSelect-like: one block per problem, direct output path.
    let cfg = GridSelectConfig {
        max_blocks_per_problem: 1,
        ..GridSelectConfig::default()
    };
    let data = generate(Distribution::Uniform, 9000, 2);
    run_case(&GridSelect::new(cfg), &data, 33);
}

#[test]
fn batch_is_correct() {
    let mut g = gpu();
    let alg = GridSelect::default();
    let datas: Vec<Vec<f32>> = (0..4)
        .map(|i| generate(Distribution::Uniform, 5000, i))
        .collect();
    let inputs: Vec<_> = datas
        .iter()
        .enumerate()
        .map(|(i, d)| g.htod(&format!("in{i}"), d))
        .collect();
    let outs = alg.select_batch(&mut g, &inputs, 17);
    for (d, o) in datas.iter().zip(&outs) {
        verify_topk(d, 17, &o.values.to_vec(), &o.indices.to_vec()).unwrap();
    }
}

#[test]
fn max_k_enforced() {
    assert_eq!(GridSelect::default().max_k(), Some(2048));
    let mut g = gpu();
    let data = generate(Distribution::Uniform, 10_000, 1);
    let input = g.htod("in", &data);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        GridSelect::default().select(&mut g, &input, 4096)
    }));
    assert!(r.is_err());
}

#[test]
fn shared_queue_flushes_less_than_per_thread() {
    // §4: "If qualified elements are centralized in a certain
    // thread queue, WarpSelect must frequently call these expensive
    // operations even if other thread queues are empty." Build that
    // adversarial layout: qualifying (ever-smaller) values land on
    // lane 0 only, everything else is huge.
    let n = 100_000;
    let data: Vec<f32> = (0..n)
        .map(|i| {
            if i % 32 == 0 {
                1_000_000.0 - i as f32
            } else {
                f32::MAX
            }
        })
        .collect();
    let count_ops = |queue: QueueKind| -> u64 {
        let mut g = gpu();
        let input = g.htod("in", &data);
        g.reset_profile();
        let cfg = GridSelectConfig {
            queue,
            ..GridSelectConfig::default()
        };
        let out = GridSelect::new(cfg).select(&mut g, &input, 256);
        verify_topk(&data, 256, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
        g.reports().iter().map(|r| r.stats.compute_ops).sum()
    };
    let shared = count_ops(QueueKind::Shared { len: 32 });
    let per_thread = count_ops(QueueKind::PerThread { len: 2 });
    assert!(
        shared < per_thread,
        "shared {shared} should do less flush work than per-thread {per_thread}"
    );
}

#[test]
fn on_the_fly_matches_buffered_selection() {
    // Producing values inside the kernel must give the same answer
    // as selecting over a materialised buffer — with zero input
    // traffic for the produced values.
    let n = 50_000;
    let k = 77;
    let score = |i: usize| ((i as f32) * 0.7531).sin() * 1000.0;
    let data: Vec<f32> = (0..n).map(score).collect();

    let mut g = gpu();
    g.reset_profile();
    let out = GridSelect::default()
        .select_on_the_fly(
            &mut g,
            n,
            k,
            |ctx, i| {
                ctx.ops(4); // the producer's own compute
                score(i)
            },
            |c| c, // the producer reads no device buffers
        )
        .unwrap();
    verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    // No N-sized input buffer was ever read.
    let read: u64 = g.reports().iter().map(|r| r.stats.bytes_read).sum();
    assert!(
        read < (n * 4 / 4) as u64,
        "fused path read {read} bytes; expected far less than {}",
        n * 4
    );
}

#[test]
fn sixty_four_bit_keys_work() {
    let mut g = gpu();
    let data: Vec<f64> = (0..40_000u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            (h as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect();
    let input = g.htod("in64", &data);
    let k = 123;
    let (vals, idxs) = GridSelect::default()
        .run_batch_typed(&mut g, &[input], k)
        .unwrap()
        .pop()
        .unwrap();
    let mut got = vals.to_vec();
    got.sort_by(f64::total_cmp);
    let mut expect = data.clone();
    expect.sort_by(f64::total_cmp);
    expect.truncate(k);
    assert_eq!(got, expect);
    for (v, i) in vals.to_vec().iter().zip(idxs.to_vec()) {
        assert_eq!(data[i as usize].to_bits(), v.to_bits());
    }
}

#[test]
fn u64_keys_single_block_shape() {
    let mut g = gpu();
    let data: Vec<u64> = (0..3000u64).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
    let input = g.htod("inu64", &data);
    let cfg = GridSelectConfig {
        max_blocks_per_problem: 1,
        ..GridSelectConfig::default()
    };
    let (vals, _) = GridSelect::new(cfg)
        .run_batch_typed(&mut g, &[input], 50)
        .unwrap()
        .pop()
        .unwrap();
    let mut got = vals.to_vec();
    got.sort_unstable();
    let mut expect = data.clone();
    expect.sort_unstable();
    expect.truncate(50);
    assert_eq!(got, expect);
}

#[test]
fn uses_two_kernel_types() {
    let mut g = gpu();
    let data = generate(Distribution::Uniform, 200_000, 1);
    let input = g.htod("in", &data);
    g.reset_profile();
    let _ = GridSelect::default().select(&mut g, &input, 128);
    let names: std::collections::HashSet<_> = g.reports().iter().map(|r| r.name.clone()).collect();
    assert!(names.contains("gridselect_kernel"));
    assert!(names.contains("gridselect_merge_kernel"));
    assert_eq!(g.timeline().memcpy_us(), 0.0);
}

/// `(blocks per problem, merge fan-ins)` of the default plan for f32
/// keys and GridSelect's block-shared bound.
fn plan_of(n: usize, k: usize, batch: usize) -> (usize, Vec<usize>) {
    let cfg = GridSelectConfig::default();
    let plan = GridPlan::new(&DeviceSpec::a100(), n, k, batch, &cfg, 4, true);
    (plan.blocks_per_problem, plan.merge_fanin)
}

#[test]
fn plan_pins_the_single_large_shapes() {
    // Batch 1 fills the A100 model's 1,728 saturating warps with 432
    // four-warp blocks; K = 2048 stops at the K cap (a warp's slice
    // must be well above K).
    assert_eq!(plan_of(1 << 22, 32, 1), (432, vec![16, 27]));
    assert_eq!(plan_of(1 << 23, 32, 1), (432, vec![16, 27]));
    assert_eq!(plan_of(1 << 22, 256, 1), (432, vec![8, 8, 7]));
    assert_eq!(plan_of(1 << 23, 256, 1), (432, vec![8, 8, 7]));
    assert_eq!(plan_of(1 << 22, 2048, 1), (64, vec![4, 4, 4]));
    assert_eq!(plan_of(1 << 23, 2048, 1), (128, vec![2, 4, 4, 4]));
}

#[test]
fn plan_stops_where_occupancy_stops_rising() {
    // 32 problems fill the device with 14 blocks each (was 64).
    assert_eq!(plan_of(1 << 18, 128, 32).0, 14);
    // K = 2048 lists take 66 KB of shared memory, two blocks per SM:
    // 216 blocks already reach the highest occupancy.
    assert_eq!(plan_of(1 << 26, 2048, 1).0, 216);
    // A hard cap still holds (BlockSelect's shape).
    let one = GridSelectConfig {
        max_blocks_per_problem: 1,
        ..GridSelectConfig::default()
    };
    let plan = GridPlan::new(&DeviceSpec::a100(), 1 << 22, 32, 1, &one, 4, false);
    assert_eq!((plan.blocks_per_problem, plan.launches.len()), (1, 1));
}

#[test]
fn a_cheap_cell_gets_a_wide_grid_and_a_multi_round_merge() {
    // One warp of one item per thread makes every block cheap, so the
    // plan gives the problem more than 256 blocks; their 16-long lists
    // are worth merging in more than one round.
    let cfg = GridSelectConfig {
        items_per_thread: 1,
        warps_per_block: 1,
        ..GridSelectConfig::default()
    };
    let (n, k) = (1 << 16, 16);
    let plan = GridPlan::new(&DeviceSpec::a100(), n, k, 1, &cfg, 4, true);
    assert!(plan.blocks_per_problem > 256, "{plan:?}");
    assert!(plan.merge_fanin.len() > 1, "{plan:?}");
    let data = generate(Distribution::Uniform, n, 9);
    let run = |workers: usize| {
        let mut g = Gpu::with_pool(DeviceSpec::a100(), gpu_sim::BlockPool::new(workers));
        let input = g.htod("in", &data);
        g.reset_profile();
        let out = GridSelect::new(cfg.clone()).select(&mut g, &input, k);
        let shapes: Vec<_> = g
            .reports()
            .iter()
            .map(|r| (r.cfg.grid_dim, r.cfg.block_dim, r.stats))
            .collect();
        (out.values.to_vec(), out.indices.to_vec(), shapes)
    };
    let one = run(1);
    verify_topk(&data, k, &one.0, &one.1).unwrap();
    let planned: Vec<_> = plan
        .launches
        .iter()
        .map(|l| (l.grid_dim, l.block_dim))
        .collect();
    let observed: Vec<_> = one.2.iter().map(|&(g, b, _)| (g, b)).collect();
    assert_eq!(observed, planned);
    assert_eq!(
        run(2),
        one,
        "the answer and meters depend on the worker count"
    );
}
