//! Cross-algorithm agreement and failure-injection tests.
//!
//! The strongest correctness statement the benchmark can make is that
//! *every independent implementation agrees*: the 8 baselines, the 2
//! contributions, the hybrid layer, the auto-dispatcher, and the two
//! approximate selectors in their exact-degenerate configurations must
//! all return the same top-K multiset on the same input. Plus the
//! contract edges: NaN rejection, device-memory exhaustion, and
//! shared-memory overflow — and, for the approximate configurations,
//! the analytic recall bound.

use gpu_topk::gpu_sim::{LaunchConfig, SimError};
use gpu_topk::prelude::*;
use topk_core::keys::RadixKey;
use topk_core::{measured_recall, BucketedTopK, TwoStageTopK, UnfusedRadix};

fn everything() -> Vec<Box<dyn TopKAlgorithm>> {
    let mut algs = gpu_topk::all_algorithms();
    algs.push(Box::new(DrTopK::new(AirTopK::default())));
    algs.push(Box::new(topk_core::SelectK::default()));
    algs.push(Box::new(UnfusedRadix::default()));
    // The approximate selectors in exact-degenerate configurations:
    // one bucket covering the whole of K, and two partitions each
    // keeping a full top-K superset — both must match the exact
    // multiset bit-for-bit, which pins the degenerate ends of the
    // degradation ladder to the same contract as everything else.
    algs.push(Box::new(BucketedTopK::new(1024)));
    algs.push(Box::new(TwoStageTopK::new(2, 1024)));
    algs
}

#[test]
fn fifteen_implementations_agree_on_the_multiset() {
    for dist in Distribution::benchmark_set() {
        let data = datagen::generate(dist, 30_000, 1234);
        for k in [1usize, 100, 1024] {
            let mut reference: Option<Vec<u32>> = None;
            for alg in everything() {
                if alg.max_k().is_some_and(|mk| k > mk) {
                    continue;
                }
                let mut gpu = Gpu::new(DeviceSpec::a100());
                let input = gpu.htod("in", &data);
                let out = alg.select(&mut gpu, &input, k);
                verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec())
                    .unwrap_or_else(|e| panic!("{} ({}): {e}", alg.name(), dist.name()));
                let mut multiset: Vec<u32> =
                    out.values.to_vec().iter().map(|v| v.to_ordered()).collect();
                multiset.sort_unstable();
                match &reference {
                    None => reference = Some(multiset),
                    Some(r) => assert_eq!(
                        *r,
                        multiset,
                        "{} disagrees on {} k={k}",
                        alg.name(),
                        dist.name()
                    ),
                }
            }
        }
    }
}

#[test]
fn approximate_selectors_meet_their_analytic_recall_bound() {
    // In genuinely lossy configurations the two approximate selectors
    // cannot join the multiset agreement above; their contract is the
    // analytic expected-recall bound instead. Planned for a 0.9 target
    // on i.i.d. inputs, the measured recall must clear the bound minus
    // a statistical tolerance on every benchmark distribution.
    let (n, k) = (30_000, 100);
    for dist in Distribution::benchmark_set() {
        let data = datagen::generate(dist, n, 4321);
        let algs: Vec<(Box<dyn TopKAlgorithm>, f64)> = vec![
            {
                let a = BucketedTopK::for_recall(n, k, 0.9);
                let e = a.expected_recall(k);
                (Box::new(a), e)
            },
            {
                let a = TwoStageTopK::for_recall(n, k, 0.9);
                let e = a.expected_recall(k);
                (Box::new(a), e)
            },
        ];
        for (alg, expected) in algs {
            assert!(expected >= 0.9, "{}: planner missed target", alg.name());
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let input = gpu.htod("in", &data);
            let out = alg.select(&mut gpu, &input, k);
            let got = measured_recall(&data, k, &out.values.to_vec());
            assert!(
                got >= expected - 0.1,
                "{} on {}: measured recall {got:.4} far below analytic bound {expected:.4}",
                alg.name(),
                dist.name()
            );
            // Indices must still point at the values they claim.
            let vals = out.values.to_vec();
            for (v, i) in vals.iter().zip(out.indices.to_vec()) {
                assert_eq!(data[i as usize].to_bits(), v.to_bits(), "{}", alg.name());
            }
        }
    }
}

#[test]
fn largest_k_is_the_mirror_of_smallest_k() {
    let data = datagen::generate(Distribution::Normal, 10_000, 5);
    let k = 200;
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let input = gpu.htod("in", &data);

    let largest = SelectLargest::new(AirTopK::default()).select(&mut gpu, &input, k);
    let negated: Vec<f32> = data
        .iter()
        .map(|&x| f32::from_ordered(!x.to_ordered()))
        .collect();
    let neg_input = gpu.htod("neg", &negated);
    let smallest_of_neg = AirTopK::default().select(&mut gpu, &neg_input, k);

    let mut a: Vec<u32> = largest
        .values
        .to_vec()
        .iter()
        .map(|v| v.to_ordered())
        .collect();
    let mut b: Vec<u32> = smallest_of_neg
        .values
        .to_vec()
        .iter()
        .map(|v| !v.to_ordered())
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

#[test]
fn verifier_catches_nan_poisoned_input() {
    let mut data = datagen::generate(Distribution::Uniform, 100, 1);
    data[50] = f32::NAN;
    // The algorithms' contract is NaN-free input; the verifier is the
    // backstop that refuses to bless any output computed from it.
    assert_eq!(
        verify_topk(&data, 10, &data[..10], &(0..10u32).collect::<Vec<_>>()),
        Err(topk_core::VerifyError::NaN)
    );
}

#[test]
fn device_out_of_memory_is_reported_not_hidden() {
    let mut gpu = Gpu::new(DeviceSpec::test_tiny());
    // A quarter of device memory, in u32 elements.
    let quarter = gpu.spec().device_mem_bytes / 4 / 4;
    let _a = gpu.try_alloc::<u32>("a", quarter).unwrap();
    let _b = gpu.try_alloc::<u32>("b", quarter).unwrap();
    let _c = gpu.try_alloc::<u32>("c", quarter).unwrap();
    let err = gpu.try_alloc::<u32>("d", quarter + 1).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("out of device memory"), "{msg}");
}

#[test]
fn injected_oom_mid_selection_leaks_no_scratch() {
    // Sweep a scripted device-OOM across every algorithm's allocation
    // sites: whichever scratch allocation fails, `try_select` must
    // surface the fault AND release everything it allocated before
    // the failure — the engine's retry path re-runs selections on the
    // same device, so a single leaked block per fault would
    // accumulate into a real OOM. Contract enforcement stays armed for
    // the whole sweep: the `catch_unwind` recovery inside `try_select`
    // must not let a contracted launch slip through with a static
    // violation or a conformance finding either.
    let data = datagen::generate(Distribution::Uniform, 30_000, 77);
    let k = 100;
    for alg in everything() {
        if alg.max_k().is_some_and(|mk| k > mk) {
            continue;
        }
        let mut fired = 0u32;
        for nth in 0..24u64 {
            let mut gpu = Gpu::new(DeviceSpec::a100());
            gpu.enable_sanitizer(SanitizerMode::off().with_contracts());
            let input = gpu.htod("in", &data);
            // Install the injector after the upload so the scripted
            // OOM targets the selection's allocations, not the input.
            let baseline = gpu.mem_allocated();
            let plan = FaultPlan::seeded(0xB0F).with_scripted(ScriptedFault {
                device: 0,
                kind: FaultKind::Oom,
                nth,
            });
            gpu.set_fault_injector(plan.injector_for(0));
            let result = alg.try_select(&mut gpu, &input, k);
            let report = gpu.sanitizer_report().expect("sanitizer was armed");
            assert!(
                report.is_clean(),
                "{} contract findings leaked through recovery at allocation #{nth}:\n{}",
                alg.name(),
                report
                    .findings
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            match result {
                Ok(out) => {
                    // Success may hand back device-accounted output
                    // buffers (algorithm-dependent); scratch beyond
                    // them must still be gone.
                    let out_bytes = (out.values.len() + out.indices.len()) * 4;
                    assert!(
                        gpu.mem_allocated() <= baseline + out_bytes,
                        "{} leaked scratch on a successful selection",
                        alg.name()
                    );
                    if gpu.fault_events().is_empty() {
                        // nth is past the algorithm's allocation
                        // count; larger values cannot fire either.
                        break;
                    }
                }
                Err(e) => {
                    fired += 1;
                    assert!(
                        e.is_device_fault(),
                        "{}: expected a device fault, got {e}",
                        alg.name()
                    );
                    assert_eq!(
                        gpu.mem_allocated(),
                        baseline,
                        "{} leaked scratch after injected OOM at allocation #{nth}",
                        alg.name()
                    );
                }
            }
        }
        assert!(
            fired > 0,
            "{}: the OOM sweep never hit an allocation site",
            alg.name()
        );
    }
}

/// Sort hands out its results in device memory like the other batched
/// selectors: a selection grows `mem_allocated` by exactly its
/// `8·K·batch` output bytes, and freeing the outputs restores it. So
/// Dr. Top-K over Sort, which adopts its base's outputs as scratch,
/// releases only what was granted.
#[test]
fn sort_outputs_are_device_allocated() {
    let data = datagen::generate(Distribution::Uniform, 10_000, 5);
    let (k, batch) = (100, 3);
    let algs: [&dyn TopKAlgorithm; 2] = [&SortTopK, &DrTopK::new(SortTopK)];
    for alg in algs {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let inputs: Vec<_> = (0..batch)
            .map(|i| gpu.htod(&format!("in{i}"), &data))
            .collect();
        let before = gpu.mem_allocated();
        let outs = alg.select_batch(&mut gpu, &inputs, k);
        assert_eq!(
            gpu.mem_allocated(),
            before + 8 * k * batch,
            "{}",
            alg.name()
        );
        for out in &outs {
            verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
            gpu.free(&out.values);
            gpu.free(&out.indices);
        }
        assert_eq!(gpu.mem_allocated(), before, "{}", alg.name());
    }
}

#[test]
fn shared_memory_overflow_fails_loudly() {
    // A block that asks for more shared memory than the device has must
    // fault like an over-subscribed CUDA launch, not corrupt memory.
    // test_tiny has 16 KiB per block; 4096 key/index pairs need 32 KiB.
    // (The radix selectors plan around that limit; see the next test.)
    let mut gpu = Gpu::new(DeviceSpec::test_tiny());
    let r = gpu.try_launch("oversubscribed", LaunchConfig::grid_1d(1, 256), |ctx| {
        ctx.shared_alloc::<u64>(4096);
    });
    assert!(
        matches!(r, Err(SimError::SharedMemExceeded { .. })),
        "launch exceeding shared memory must fault"
    );
}

#[test]
fn small_shared_memory_falls_back_from_the_one_block_path() {
    // test_tiny has 16 KiB of shared memory per block and the one-block
    // radix path keeps 8 bytes per f32 candidate, so these shapes do not
    // fit it. AIR and RadiK must take the multi-pass path instead of
    // failing the launch, and the tuner must still find a candidate.
    for (n, k) in [(4096, 2048), (8192, 2048), (8192, 4096)] {
        let data = datagen::generate(Distribution::Uniform, n, 7);
        let algs: [Box<dyn TopKAlgorithm>; 3] = [
            Box::new(AirTopK::default()),
            Box::new(topk_core::RadiK::default()),
            Box::new(topk_core::SelectK::default()),
        ];
        for alg in &algs {
            let mut gpu = Gpu::new(DeviceSpec::test_tiny());
            let input = gpu.htod("in", &data);
            let out = alg
                .try_select(&mut gpu, &input, k)
                .unwrap_or_else(|e| panic!("{} n={n} k={k}: {e}", alg.name()));
            verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec())
                .unwrap_or_else(|e| panic!("{} n={n} k={k}: {e}", alg.name()));
        }
    }
}

#[test]
fn batch_with_mismatched_lengths_is_rejected() {
    let mut gpu = Gpu::new(DeviceSpec::a100());
    let a = gpu.htod("a", &vec![1.0f32; 100]);
    let b = gpu.htod("b", &vec![1.0f32; 200]);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        AirTopK::default().select_batch(&mut gpu, &[a, b], 5)
    }));
    assert!(r.is_err());
}

#[test]
fn dispatcher_and_components_agree_at_the_crossover() {
    // Right at the dispatch boundary both components must be correct
    // and identical in result.
    let s = topk_core::SelectK::default();
    let data = datagen::generate(Distribution::Uniform, 1 << 16, 3);
    for k in [255usize, 256, 257] {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input = gpu.htod("in", &data);
        let out = s.select(&mut gpu, &input, k);
        verify_topk(&data, k, &out.values.to_vec(), &out.indices.to_vec()).unwrap();
    }
}
