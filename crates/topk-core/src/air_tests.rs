//! Tests for [`super`] — split out to keep the implementation file
//! readable (the suite is as long as the algorithm itself).

use super::*;
use crate::matrix::RowSelect;
use crate::traits::TopKAlgorithm;
use crate::verify::verify_topk;
use datagen::{generate, Distribution};
use gpu_sim::{DeviceSpec, Gpu};

fn gpu() -> Gpu {
    Gpu::new(DeviceSpec::a100())
}

fn run_case(alg: &AirTopK, data: &[f32], k: usize) {
    let mut g = gpu();
    let input = g.htod("in", data);
    let out = alg.select(&mut g, &input, k);
    let v = out.values.to_vec();
    let i = out.indices.to_vec();
    verify_topk(data, k, &v, &i)
        .unwrap_or_else(|e| panic!("AIR failed: {e} (n = {}, k = {k})", data.len()));
}

#[test]
fn small_hand_case() {
    run_case(
        &AirTopK::default(),
        &[5.0, 1.0, 4.0, 1.5, -2.0, 8.0, 0.0],
        3,
    );
}

#[test]
fn all_distributions_many_shapes() {
    let alg = AirTopK::default();
    for dist in [
        Distribution::Uniform,
        Distribution::Normal,
        Distribution::RadixAdversarial { m_bits: 20 },
    ] {
        for (n, k) in [
            (1usize, 1usize),
            (100, 1),
            (100, 100),
            (1000, 7),
            (10000, 1000),
            (8192, 2048),
        ] {
            let data = generate(dist, n, 42);
            run_case(&alg, &data, k);
        }
    }
}

#[test]
fn k_equals_n_and_k_one() {
    let data = generate(Distribution::Normal, 5000, 7);
    run_case(&AirTopK::default(), &data, 5000);
    run_case(&AirTopK::default(), &data, 1);
}

#[test]
fn all_elements_identical() {
    run_case(&AirTopK::default(), &vec![3.25f32; 1000], 17);
}

#[test]
fn heavy_ties_at_boundary() {
    let mut data = vec![1.0f32; 500];
    data.extend(vec![2.0f32; 500]);
    run_case(&AirTopK::default(), &data, 750);
}

#[test]
fn negative_and_special_values() {
    let data = vec![
        -0.0,
        0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -1e30,
        1e-42,
        -1e-42,
        7.25,
    ];
    for k in 1..=8 {
        run_case(&AirTopK::default(), &data, k);
    }
}

#[test]
fn non_adaptive_matches_adaptive() {
    let data = generate(Distribution::RadixAdversarial { m_bits: 20 }, 20000, 3);
    let na = AirConfig {
        adaptive: false,
        ..AirConfig::default()
    };
    run_case(&AirTopK::new(na), &data, 333);
    run_case(&AirTopK::default(), &data, 333);
}

#[test]
fn early_stop_off_still_correct() {
    let cfg = AirConfig {
        early_stop: false,
        ..AirConfig::default()
    };
    let data = generate(Distribution::Uniform, 4096, 5);
    run_case(&AirTopK::new(cfg), &data, 4096);
}

#[test]
fn eight_bit_digits() {
    let cfg = AirConfig {
        bits_per_pass: 8,
        ..AirConfig::default()
    };
    let data = generate(Distribution::Normal, 30000, 11);
    run_case(&AirTopK::new(cfg), &data, 500);
}

#[test]
fn batch_is_correct_per_problem() {
    let mut g = gpu();
    let alg = AirTopK::default();
    let datas: Vec<Vec<f32>> = (0..5)
        .map(|i| generate(Distribution::Uniform, 3000, 100 + i))
        .collect();
    let inputs: Vec<_> = datas
        .iter()
        .enumerate()
        .map(|(i, d)| g.htod(&format!("in{i}"), d))
        .collect();
    let outs = alg.select_batch(&mut g, &inputs, 64);
    assert_eq!(outs.len(), 5);
    for (d, o) in datas.iter().zip(&outs) {
        verify_topk(d, 64, &o.values.to_vec(), &o.indices.to_vec()).unwrap();
    }
}

#[test]
fn batch_uses_one_set_of_launches() {
    let mut g = gpu();
    let alg = AirTopK::default();
    let datas: Vec<Vec<f32>> = (0..10)
        .map(|i| generate(Distribution::Uniform, 20_000, i))
        .collect();
    let inputs: Vec<_> = datas
        .iter()
        .enumerate()
        .map(|(i, d)| g.htod(&format!("b{i}"), d))
        .collect();
    g.reset_profile();
    alg.select_batch(&mut g, &inputs, 32);
    // 3 fused + last filter = 4 launches regardless of batch.
    assert_eq!(g.timeline().kernel_count(), 4);
    // And zero host-device transfers during the selection.
    assert_eq!(g.timeline().memcpy_us(), 0.0);
}

#[test]
fn one_block_fast_path_single_launch() {
    // RAFT's small-N fast path: everything in one kernel.
    let mut g = gpu();
    let data = generate(Distribution::Uniform, 2048, 3);
    let input = g.htod("in", &data);
    g.reset_profile();
    let out = AirTopK::default().select(&mut g, &input, 32);
    verify_topk(&data, 32, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    assert_eq!(g.timeline().kernel_count(), 1);
    let names: Vec<_> = g.reports().iter().map(|r| r.name.clone()).collect();
    assert_eq!(names, vec!["radix_topk_one_block_kernel"]);
    // Input is read exactly once.
    assert!(g.reports()[0].stats.bytes_read <= (2048 * 4 + 1024) as u64);
}

#[test]
fn one_block_fast_path_edge_cases() {
    let alg = AirTopK::default();
    // Boundary sizes around the threshold.
    for n in [
        ONE_BLOCK_THRESHOLD - 1,
        ONE_BLOCK_THRESHOLD,
        ONE_BLOCK_THRESHOLD + 1,
    ] {
        let data = generate(Distribution::Normal, n, n as u64);
        for k in [1usize, n / 2, n] {
            run_case(&alg, &data, k);
        }
    }
    // Ties and identical values through the fast path.
    run_case(&alg, &vec![1.5f32; 4096], 1000);
}

#[test]
fn kernel_launch_count_matches_figure_3() {
    let mut g = gpu();
    let data = generate(Distribution::Uniform, 100_000, 1);
    let input = g.htod("in", &data);
    g.reset_profile();
    let _ = AirTopK::default().select(&mut g, &input, 2048);
    // Fig. 3: exactly 3 iteration-fused kernels + 1 last filter.
    let names: Vec<_> = g.reports().iter().map(|r| r.name.clone()).collect();
    assert_eq!(
        names,
        vec![
            "iteration_fused_kernel",
            "iteration_fused_kernel",
            "iteration_fused_kernel",
            "last_filter_kernel"
        ]
    );
    assert_eq!(g.timeline().memcpy_us(), 0.0, "AIR never touches PCIe");
    // Only launch overhead, no host sync — and all launches after
    // the first pipeline down to the stream gap (Fig. 8's "too
    // narrow to be observed").
    let expected_idle = g.spec().kernel_launch_us + 3.0 * g.spec().kernel_gap_us;
    assert!((g.timeline().idle_us() - expected_idle).abs() < 1e-9);
}

#[test]
fn adaptive_reduces_traffic_on_adversarial_data() {
    let data = generate(Distribution::RadixAdversarial { m_bits: 20 }, 200_000, 5);
    let run = |adaptive: bool| -> u64 {
        let mut g = gpu();
        let input = g.htod("in", &data);
        g.reset_profile();
        let cfg = AirConfig {
            adaptive,
            ..AirConfig::default()
        };
        let out = AirTopK::new(cfg).select(&mut g, &input, 1000);
        verify_topk(&data, 1000, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
        g.reports().iter().map(|r| r.stats.total_mem_bytes()).sum()
    };
    let with = run(true);
    let without = run(false);
    assert!(
        with < without / 2,
        "adaptive {with} should be well under non-adaptive {without}"
    );
}

#[test]
fn k_equals_n_takes_trivial_copy_path() {
    let mut g = gpu();
    let data = generate(Distribution::Uniform, 100_000, 5);
    let input = g.htod("in", &data);
    g.reset_profile();
    let out = AirTopK::default().select(&mut g, &input, data.len());
    verify_topk(
        &data,
        data.len(),
        &out.values.to_vec(),
        &out.indices.to_vec(),
    )
    .unwrap();
    assert_eq!(g.timeline().kernel_count(), 1);
    assert_eq!(g.reports()[0].name, "trivial_copy_kernel");
}

#[test]
fn early_stop_reduces_time_when_candidates_collapse() {
    // Three distinct values; K covering the two smallest groups
    // makes the remaining-K equal the candidate count right after
    // pass 0 — the §3.3 early-stop trigger.
    let n = 300_000;
    let mut data = Vec::with_capacity(n);
    for i in 0..n {
        data.push(match i % 3 {
            0 => 1.0f32,
            1 => 2.0,
            _ => 4.0,
        });
    }
    let k = 2 * n / 3;
    let run = |early: bool| -> f64 {
        let mut g = gpu();
        let input = g.htod("in", &data);
        g.reset_profile();
        let cfg = AirConfig {
            early_stop: early,
            ..AirConfig::default()
        };
        let out = AirTopK::new(cfg).select(&mut g, &input, k);
        verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
        g.elapsed_us()
    };
    let with = run(true);
    let without = run(false);
    assert!(with < without, "early stop {with} vs {without}");
}

#[test]
fn memory_footprint_capped_by_alpha() {
    let n = 128 * 1024;
    let data = generate(Distribution::Uniform, n, 5);
    let mut g = gpu();
    let input = g.htod("in", &data);
    let base = g.mem_allocated(); // input already counted here
    let _ = AirTopK::default().select(&mut g, &input, 100);
    // §3.2: candidate buffers are at most N/α elements each (two
    // ping-pong val+idx pairs), plus small control structures.
    let cap_bytes = (n / 128) * 4 * 4;
    let overhead = g.mem_high_water() - base;
    assert!(
        overhead <= cap_bytes + 64 * 1024,
        "workspace {overhead} exceeds adaptive cap {cap_bytes}"
    );
}

#[test]
#[should_panic(expected = "alpha")]
fn alpha_lower_bound_enforced() {
    AirTopK::new(AirConfig {
        alpha: 2,
        ..AirConfig::default()
    });
}

#[test]
fn generic_u32_keys() {
    let mut g = gpu();
    // Values that exercise the full u32 range (n above the
    // one-block threshold so the multi-pass path runs too).
    let data: Vec<u32> = (0..20_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let input = g.htod("in", &data);
    for k in [1usize, 100, 9000] {
        let mut out = AirTopK::default()
            .run_batch_typed(&mut g, std::slice::from_ref(&input), k)
            .unwrap();
        let (vals, idxs) = out.pop().unwrap();
        let mut got = vals.to_vec();
        got.sort_unstable();
        let mut expect = data.clone();
        expect.sort_unstable();
        expect.truncate(k);
        assert_eq!(got, expect, "k = {k}");
        for (v, i) in vals.to_vec().iter().zip(idxs.to_vec()) {
            assert_eq!(data[i as usize], *v);
        }
    }
}

#[test]
fn sixty_four_bit_keys_run_six_passes() {
    // f64 keys: 6 fused passes (⌈64/11⌉) + last filter.
    let mut g = gpu();
    let data: Vec<f64> = (0..30_000u64)
        .map(|i| {
            let h = i.wrapping_mul(0x9E3779B97F4A7C15);
            (h as f64 / u64::MAX as f64) * 2e15 - 1e15
        })
        .collect();
    let input = g.htod("in", &data);
    g.reset_profile();
    let k = 500;
    let mut out = AirTopK::default()
        .run_batch_typed(&mut g, &[input], k)
        .unwrap();
    let fused = g
        .reports()
        .iter()
        .filter(|r| r.name == "iteration_fused_kernel")
        .count();
    assert_eq!(fused, 6, "64-bit keys need ⌈64/11⌉ = 6 passes");
    let (vals, idxs) = out.pop().unwrap();
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
fn u64_and_i64_keys_small_and_large_paths() {
    let mut g = gpu();
    // Small n -> one-block path; large n -> multi-pass path.
    for n in [4096usize, 20_000] {
        let du: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let iu = g.htod("u64in", &du);
        let (vals, _) = AirTopK::default()
            .run_batch_typed(&mut g, &[iu], 99)
            .unwrap()
            .pop()
            .unwrap();
        let mut got = vals.to_vec();
        got.sort_unstable();
        let mut expect = du.clone();
        expect.sort_unstable();
        expect.truncate(99);
        assert_eq!(got, expect, "u64 n={n}");

        let di: Vec<i64> = du.iter().map(|&x| x as i64).collect();
        let ii = g.htod("i64in", &di);
        let (vals, _) = AirTopK::default()
            .run_batch_typed(&mut g, &[ii], 99)
            .unwrap()
            .pop()
            .unwrap();
        let mut got = vals.to_vec();
        got.sort_unstable();
        let mut expect = di.clone();
        expect.sort_unstable();
        expect.truncate(99);
        assert_eq!(got, expect, "i64 n={n}");
        assert!(got[0] < 0);
    }
}

#[test]
fn generic_i32_keys_with_negatives() {
    let mut g = gpu();
    let data: Vec<i32> = (0..10_000i64)
        .map(|i| ((i * 2654435761) % 100_000 - 50_000) as i32)
        .collect();
    let input = g.htod("in", &data);
    let k = 257;
    let mut out = AirTopK::default()
        .run_batch_typed(&mut g, &[input], k)
        .unwrap();
    let (vals, _) = out.pop().unwrap();
    let mut got = vals.to_vec();
    got.sort_unstable();
    let mut expect = data.clone();
    expect.sort_unstable();
    expect.truncate(k);
    assert_eq!(got, expect);
    assert!(got[0] < 0, "negative keys must order correctly");
}

#[test]
fn kth_value_matches_sorted_reference() {
    let mut g = gpu();
    for (n, k) in [
        (20_000usize, 1usize),
        (20_000, 777),
        (4096, 4095),
        (50_000, 50_000),
    ] {
        let data = generate(Distribution::Normal, n, k as u64);
        let input = g.htod("in", &data);
        let kth = AirTopK::default().kth_value(&mut g, &input, k).unwrap();
        let mut sorted = data.clone();
        sorted.sort_by(f32::total_cmp);
        assert_eq!(kth.to_bits(), sorted[k - 1].to_bits(), "n={n} k={k}");
    }
}

#[test]
fn a_corrupted_kth_value_readback_is_an_error() {
    use crate::error::TopKError;
    use gpu_sim::{FaultKind, FaultPlan, ScriptedFault, SimError};
    let mut g = gpu();
    let input = g.htod("in", &generate(Distribution::Uniform, 50_000, 3));
    let before = g.mem_allocated();
    // Transfers count from the injector's attachment: the selection
    // moves nothing over PCIe, so the one-word readback is the first.
    let plan = FaultPlan::seeded(1).with_scripted(ScriptedFault {
        device: 0,
        kind: FaultKind::TransferCorruption,
        nth: 0,
    });
    g.set_fault_injector(plan.injector_for(0));
    let got = AirTopK::default().kth_value(&mut g, &input, 100);
    assert!(
        matches!(
            got,
            Err(TopKError::Sim(SimError::TransferCorruption { .. }))
        ),
        "{got:?}"
    );
    assert_eq!(
        g.mem_allocated(),
        before,
        "the error path frees its workspace"
    );
}

#[test]
fn kth_value_on_integer_keys() {
    let mut g = gpu();
    let data: Vec<u32> = (0..30_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
    let input = g.htod("in", &data);
    let kth = AirTopK::default()
        .kth_value_typed(&mut g, &input, 1000)
        .unwrap();
    let mut sorted = data.clone();
    sorted.sort_unstable();
    assert_eq!(kth, sorted[999]);
}

#[test]
fn proptest_like_sweep() {
    // A quick deterministic sweep over awkward (n, k) pairs.
    let alg = AirTopK::default();
    for n in [1usize, 2, 3, 31, 32, 33, 511, 513, 8191] {
        let data = generate(Distribution::Normal, n, n as u64);
        for k in [1usize, 2, n / 2, n.saturating_sub(1), n] {
            if k >= 1 && k <= n {
                run_case(&alg, &data, k);
            }
        }
    }
}
