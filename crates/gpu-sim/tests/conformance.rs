//! The simulator's behavioural contract: transfers round-trip, error
//! paths are typed and leak nothing, warp collectives match their
//! scalar references and the clock only moves forward. Each `check_*`
//! asserts one slice of it and leaves the device with no extra memory
//! allocated; every test runs the full battery, with and without the
//! sanitizer armed.
//!
//! The checks use a seeded xorshift generator, so every run is
//! reproducible.

use gpu_sim::device::WARP_SIZE;
use gpu_sim::warp::{self, Lanes};
use gpu_sim::{DeviceSpec, Gpu, LaunchConfig, SanitizerMode, SimError};

/// Deterministic xorshift64* stream for test data.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u32(&mut self) -> u32 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
    }
}

/// Host↔device transfers must round-trip exactly and the allocator
/// must account for every byte until freed.
fn check_transfer_roundtrip(dev: &mut Gpu) {
    let base = dev.mem_allocated();
    let mut rng = XorShift::new(7);
    let data: Vec<u32> = (0..257).map(|_| rng.next_u32()).collect();

    let buf = dev.htod("conformance-rt", &data);
    assert_eq!(
        dev.mem_allocated(),
        base + data.len() * 4,
        "htod must charge the allocator for every element"
    );
    assert!(
        dev.mem_high_water() >= dev.mem_allocated(),
        "high-water mark cannot sit below the live total"
    );
    assert_eq!(
        dev.dtoh(&buf),
        data,
        "dtoh must return the bytes htod staged"
    );
    assert_eq!(
        dev.dtoh_range(&buf, 100, 7),
        data[100..107],
        "ranged readback must honour offsets"
    );

    dev.free(&buf);
    assert_eq!(dev.mem_allocated(), base, "free must return every byte");
}

/// Fallible entry points must report bounds violations as typed
/// errors, not panics, and failed allocations must not leak.
fn check_fallible_paths(dev: &mut Gpu) {
    let base = dev.mem_allocated();
    let buf = dev.try_htod("conformance-err", &[1u32, 2, 3]).unwrap();

    assert!(
        matches!(
            dev.try_dtoh_range(&buf, 2, 5),
            Err(SimError::OutOfBounds { .. })
        ),
        "out-of-range readback must be OutOfBounds"
    );
    assert_eq!(dev.try_dtoh(&buf).unwrap(), vec![1, 2, 3]);

    let huge = dev.spec().device_mem_bytes;
    assert!(
        dev.try_alloc::<u32>("conformance-huge", huge).is_err(),
        "device-exceeding allocation must fail"
    );
    dev.free(&buf);
    assert_eq!(dev.mem_allocated(), base, "error paths must not leak");
}

/// Kernel launches must reject bad grids and surface out-of-bounds
/// device accesses as errors carrying the offending index.
fn check_launch_errors(dev: &mut Gpu) {
    let base = dev.mem_allocated();
    let buf = dev.htod("conformance-oob", &[0u32; 8]);

    // Two conforming behaviours: fail the launch with the offending
    // index, or (with memcheck armed) trap the access and record it as
    // a finding while the launch completes.
    let outcome = dev
        .try_launch(
            "conformance oob-ld",
            LaunchConfig::grid_1d(1, WARP_SIZE),
            |ctx| {
                let _ = ctx.ld(&buf, 64);
            },
        )
        .map(|report| report.sanitizer_findings);
    match outcome {
        Err(err) => assert!(
            matches!(
                err,
                SimError::OutOfBounds {
                    len: 8,
                    idx: 64,
                    ..
                }
            ),
            "expected OutOfBounds{{len: 8, idx: 64}}, got {err:?}"
        ),
        Ok(findings) => assert!(
            findings > 0,
            "an out-of-bounds load must either error or be flagged by the sanitizer"
        ),
    }

    assert!(
        matches!(
            dev.try_launch(
                "conformance bad-grid",
                LaunchConfig::grid_1d(0, WARP_SIZE),
                |_| {}
            ),
            Err(SimError::InvalidLaunch(_))
        ),
        "a zero-block grid must be InvalidLaunch"
    );

    dev.free(&buf);
    assert_eq!(dev.mem_allocated(), base);
}

/// Warp collectives executed inside a launched kernel must match their
/// scalar reference semantics lane-for-lane.
fn check_warp_primitives(dev: &mut Gpu) {
    let base = dev.mem_allocated();
    let mut rng = XorShift::new(42);
    let vals: Lanes<u32> = std::array::from_fn(|_| rng.next_u32() % 1000);
    let preds: Lanes<bool> = std::array::from_fn(|i| vals[i].is_multiple_of(3));

    // Scalar references.
    let ref_ballot = preds
        .iter()
        .enumerate()
        .fold(0u32, |m, (i, &p)| if p { m | (1 << i) } else { m });
    let ref_sum: u32 = vals.iter().sum();
    let ref_min = *vals.iter().min().unwrap();
    let ref_max = *vals.iter().max().unwrap();
    let mut ref_excl = [0u32; WARP_SIZE];
    let mut running = 0;
    for i in 0..WARP_SIZE {
        ref_excl[i] = running;
        running += vals[i];
    }
    let ref_incl: Vec<u32> = (0..WARP_SIZE).map(|i| ref_excl[i] + vals[i]).collect();

    // Slots: ballot, sum, min, max, shfl(5), then the two scans.
    let out = dev.alloc::<u32>("conformance-warp", 5 + 2 * WARP_SIZE);
    dev.launch(
        "conformance warp",
        LaunchConfig::grid_1d(1, WARP_SIZE),
        |ctx| {
            ctx.st(&out, 0, warp::ballot(&preds));
            ctx.st(&out, 1, warp::reduce_sum(&vals));
            ctx.st(&out, 2, warp::reduce_min(&vals));
            ctx.st(&out, 3, warp::reduce_max(&vals));
            ctx.st(&out, 4, warp::shfl(&vals, 5));
            let excl = warp::exclusive_scan(&vals);
            let incl = warp::inclusive_scan(&vals);
            for lane in 0..WARP_SIZE {
                ctx.st(&out, 5 + lane, excl[lane]);
                ctx.st(&out, 5 + WARP_SIZE + lane, incl[lane]);
            }
        },
    );
    let got = dev.dtoh(&out);
    assert_eq!(got[0], ref_ballot, "ballot: lane i must drive bit i");
    assert_eq!(got[1], ref_sum, "reduce_sum");
    assert_eq!(got[2], ref_min, "reduce_min");
    assert_eq!(got[3], ref_max, "reduce_max");
    assert_eq!(got[4], vals[5], "shfl must broadcast the source lane");
    assert_eq!(&got[5..5 + WARP_SIZE], &ref_excl, "exclusive_scan");
    assert_eq!(&got[5 + WARP_SIZE..], &ref_incl[..], "inclusive_scan");

    // lane_rank composes with ballot: rank of lane i among set bits
    // strictly below it.
    for lane in 0..WARP_SIZE {
        let expect = (ref_ballot & ((1u32 << lane) - 1)).count_ones();
        assert_eq!(
            warp::lane_rank(ref_ballot, lane),
            expect,
            "lane_rank({lane})"
        );
    }

    dev.free(&out);
    assert_eq!(dev.mem_allocated(), base);
}

/// Device time must advance monotonically through work and host
/// compute must be chargeable.
fn check_clock_monotonic(dev: &mut Gpu) {
    let t0 = dev.elapsed_us();
    let buf = dev.htod("conformance-clock", &[0u32; 64]);
    let t1 = dev.elapsed_us();
    assert!(t1 >= t0, "htod must not rewind the clock");
    dev.launch(
        "conformance tick",
        LaunchConfig::grid_1d(1, WARP_SIZE),
        |ctx| {
            let v = ctx.ld(&buf, 0);
            ctx.st(&buf, 0, v + 1);
        },
    );
    let t2 = dev.elapsed_us();
    assert!(t2 > t1, "a kernel launch must advance device time");
    dev.host_compute("conformance host work", 5.0);
    assert!(
        dev.elapsed_us() >= t2 + 5.0,
        "host_compute must charge time"
    );
    dev.host_sync();
    dev.free(&buf);
}

/// The full battery, in dependency-free order.
fn run_all(dev: &mut Gpu) {
    check_transfer_roundtrip(dev);
    check_fallible_paths(dev);
    check_launch_errors(dev);
    check_warp_primitives(dev);
    check_clock_monotonic(dev);
}

#[test]
fn gpu_sim_passes_conformance() {
    let mut gpu = Gpu::new(DeviceSpec::test_tiny());
    run_all(&mut gpu);
}

#[test]
fn gpu_sim_passes_conformance_on_every_preset() {
    for spec in [DeviceSpec::a100(), DeviceSpec::h100(), DeviceSpec::a10()] {
        let mut gpu = Gpu::new(spec);
        run_all(&mut gpu);
    }
}

#[test]
fn conformance_holds_under_the_armed_sanitizer() {
    // The contract checks deliberately include error paths (OOB loads,
    // failed allocations); the sanitizer must observe them without
    // changing the behaviour the contract asserts.
    let mut gpu = Gpu::new(DeviceSpec::test_tiny());
    gpu.enable_sanitizer(SanitizerMode {
        armed: true,
        leakcheck: false,
    });
    run_all(&mut gpu);
}

#[test]
fn xorshift_is_deterministic_and_nontrivial() {
    let mut a = XorShift::new(9);
    let mut b = XorShift::new(9);
    let xs: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
    let ys: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
    assert_eq!(xs, ys);
    assert!(xs.windows(2).any(|w| w[0] != w[1]));
}
