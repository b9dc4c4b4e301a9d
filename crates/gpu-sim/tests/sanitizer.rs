//! Integration tests for the sanitizer: negative controls that MUST be
//! flagged (a racy kernel, a stale-scratch read, a use-after-free, an
//! out-of-bounds access) and positive controls that MUST stay clean
//! (grid-sync patterns, initialised reads, identical cost digests with
//! the sanitizer on or off).

use gpu_sim::sanitizer::Analysis;
use gpu_sim::{
    AccessKind, BlockCtx, BlockPool, DeviceBuffer, DeviceSpec, Footprint, Gpu, KernelContract,
    LaunchConfig, SanitizerMode, SanitizerReport, SimError,
};

/// A one-worker A100 with every access analysis armed.
fn armed_gpu() -> Gpu {
    let mut g = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1));
    g.enable_sanitizer(SanitizerMode {
        armed: true,
        leakcheck: false,
    });
    g
}

/// Occurrences of `analysis` in `report`, over its deduplicated
/// findings.
fn count(report: &SanitizerReport, analysis: Analysis) -> u64 {
    report
        .findings
        .iter()
        .filter(|f| f.analysis == analysis)
        .map(|f| f.count)
        .sum()
}

// ---- negative controls: these MUST be detected ------------------------

#[test]
fn racecheck_flags_unsynchronised_cross_block_writes() {
    let mut g = armed_gpu();
    let out = g.alloc::<u32>("racy_out", 4);
    // Every block writes the same word non-atomically — the canonical
    // lost-update race. Detection must not depend on the schedule: the
    // shadow keeps the first block's record, so the second access
    // conflicts even under sequential block execution.
    g.launch("racy_kernel", LaunchConfig::grid_1d(8, 32), |ctx| {
        ctx.st(&out, 0, ctx.block_idx as u32);
    });
    let report = g.sanitizer_report().expect("sanitizer armed");
    assert!(report.counts.racecheck > 0, "race must be flagged");
    let f = report
        .findings
        .iter()
        .find(|f| f.analysis == Analysis::Racecheck)
        .expect("racecheck finding");
    assert_eq!(f.buffer, "racy_out", "buffer label attribution");
    assert_eq!(f.kernel, "racy_kernel", "kernel attribution");
    assert_eq!(f.launch, 1, "first launch on this device");
    assert_eq!(f.index, 0);
    assert_eq!(f.access, AccessKind::Write);
    // The per-launch delta lands on the report of the racy launch.
    assert!(g.reports()[0].sanitizer_findings > 0);
}

#[test]
fn racecheck_flags_mixed_atomic_and_plain_access() {
    let mut g = armed_gpu();
    let out = g.alloc::<u32>("counter", 1);
    g.launch("mixed_kernel", LaunchConfig::grid_1d(4, 32), |ctx| {
        if ctx.block_idx == 0 {
            ctx.st(&out, 0, 1); // plain write...
        } else {
            ctx.atomic_add(&out, 0, 1); // ...racing atomic RMWs
        }
    });
    let report = g.sanitizer_report().unwrap();
    assert!(count(&report, Analysis::Racecheck) > 0, "{report:?}");
}

#[test]
fn initcheck_flags_stale_scratch_read() {
    let mut g = armed_gpu();
    // The stale-scratch shape: a kernel consumes a freshly allocated
    // workspace word that nothing ever wrote, silently relying on the
    // allocator zeroing (real cudaMalloc returns garbage).
    let scratch = g.alloc::<u32>("stale_scratch", 64);
    let sink = g.alloc::<u32>("sink", 64);
    g.launch("stale_read_kernel", LaunchConfig::grid_1d(1, 32), |ctx| {
        for i in 0..64 {
            let v = ctx.ld(&scratch, i);
            ctx.st(&sink, i, v);
        }
    });
    let report = g.sanitizer_report().unwrap();
    assert_eq!(
        report.counts.initcheck, 64,
        "all 64 reads are uninitialised"
    );
    let f = report
        .findings
        .iter()
        .find(|f| f.analysis == Analysis::Initcheck)
        .expect("initcheck finding");
    assert_eq!(f.buffer, "stale_scratch");
    assert_eq!(f.kernel, "stale_read_kernel");
    assert_eq!(f.launch, 1);
    assert_eq!(f.count, 64, "occurrences fold into one finding");
}

#[test]
fn memcheck_flags_use_after_free() {
    let mut g = armed_gpu();
    let buf = g.alloc::<u32>("recycled", 16);
    buf.fill(7);
    g.free(&buf); // bytes returned; the handle still aliases them
    let sink = g.alloc::<u32>("sink", 1);
    g.launch("uaf_kernel", LaunchConfig::grid_1d(1, 32), |ctx| {
        let v = ctx.ld(&buf, 3);
        ctx.st(&sink, 0, v);
    });
    let report = g.sanitizer_report().unwrap();
    assert!(report.counts.memcheck > 0);
    let f = report
        .findings
        .iter()
        .find(|f| f.analysis == Analysis::MemcheckUseAfterFree)
        .expect("use-after-free finding");
    assert_eq!(f.buffer, "recycled");
    assert_eq!(f.kernel, "uaf_kernel");
}

#[test]
fn memcheck_flags_host_readback_of_freed_buffer() {
    let mut g = armed_gpu();
    let buf = g.alloc::<u32>("freed_for_dtoh", 8);
    buf.fill(1);
    g.free(&buf);
    let _ = g.dtoh(&buf);
    let report = g.sanitizer_report().unwrap();
    assert!(report
        .findings
        .iter()
        .any(|f| f.analysis == Analysis::MemcheckUseAfterFree && f.buffer == "freed_for_dtoh"));
}

#[test]
fn memcheck_squashes_out_of_bounds_instead_of_panicking() {
    let mut g = armed_gpu();
    let small = g.alloc::<u32>("small", 4);
    small.fill(9);
    let sink = g.alloc::<u32>("sink", 1);
    g.launch("oob_kernel", LaunchConfig::grid_1d(1, 32), |ctx| {
        let v = ctx.ld(&small, 100); // squashed: returns 0
        ctx.st(&small, 200, 5); // squashed: no-op
        ctx.st(&sink, 0, v);
    });
    assert_eq!(sink.get(0), 0, "squashed load reads zero");
    let report = g.sanitizer_report().unwrap();
    assert_eq!(report.counts.memcheck, 2);
    let f = report
        .findings
        .iter()
        .find(|f| f.analysis == Analysis::MemcheckOob)
        .expect("oob finding");
    assert_eq!(f.buffer, "small");
    assert_eq!(f.index, 100);
}

#[test]
fn without_sanitizer_oob_is_a_labeled_launch_error() {
    let mut g = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1));
    let small = g.alloc::<u32>("small", 4);
    let err = g
        .try_launch("oob_kernel", LaunchConfig::grid_1d(1, 32), |ctx| {
            let _ = ctx.ld(&small, 100);
        })
        .unwrap_err();
    assert_eq!(
        err,
        SimError::OutOfBounds {
            buffer: "small".into(),
            idx: 100,
            len: 4,
        }
    );
    assert!(g.reports().is_empty(), "no report for an aborted launch");
}

#[test]
fn shared_mem_overflow_is_a_launch_error() {
    let mut g = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1));
    let cap = g.spec().shared_mem_per_block;
    let err = g
        .try_launch("greedy_kernel", LaunchConfig::grid_1d(1, 32), |ctx| {
            let _: Vec<u8> = ctx.shared_alloc(cap + 1);
        })
        .unwrap_err();
    assert_eq!(
        err,
        SimError::SharedMemExceeded {
            used: 0,
            requested: cap + 1,
            capacity: cap,
        }
    );
}

// ---- positive controls: these MUST stay clean -------------------------

#[test]
fn grid_sync_last_block_pattern_is_not_a_race() {
    // AIR's fused-kernel shape: every block bumps a histogram with
    // atomics, the last block (after an AcqRel grid sync) reads the
    // whole histogram with plain loads. Racecheck must stay silent.
    let mut g = armed_gpu();
    let hist = g.alloc::<u32>("hist", 16);
    hist.fill(0);
    let total = g.alloc::<u32>("total", 1);
    total.fill(0);
    g.launch("last_block_kernel", LaunchConfig::grid_1d(32, 32), |ctx| {
        ctx.atomic_add(&hist, ctx.block_idx % 16, 1);
        if ctx.mark_block_done() {
            let mut acc = 0;
            for i in 0..16 {
                acc += ctx.ld(&hist, i);
            }
            ctx.st(&total, 0, acc);
        }
    });
    assert_eq!(total.get(0), 32);
    let report = g.sanitizer_report().unwrap();
    assert!(
        report.is_clean(),
        "grid-synced reads must not be flagged: {:?}",
        report.findings
    );
}

#[test]
fn atomic_add_sync_exempts_subsequent_reads() {
    // The per-problem done-counter variant (AIR's batched kernel):
    // whoever observes the final count reads everyone's plain stores.
    let mut g = armed_gpu();
    let partials = g.alloc::<u32>("partials", 8);
    partials.fill(0);
    let done = g.alloc::<u32>("done", 1);
    done.fill(0);
    let sum = g.alloc::<u32>("sum", 1);
    sum.fill(0);
    let grid = 8;
    g.launch(
        "sync_counter_kernel",
        LaunchConfig::grid_1d(grid, 32),
        |ctx| {
            ctx.st(&partials, ctx.block_idx, ctx.block_idx as u32);
            if ctx.atomic_add_sync(&done, 0, 1) == grid as u32 - 1 {
                let mut acc = 0;
                for i in 0..grid {
                    acc += ctx.ld(&partials, i);
                }
                ctx.st(&sum, 0, acc);
            }
        },
    );
    assert_eq!(sum.get(0), (0..8).sum::<u32>());
    let report = g.sanitizer_report().unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn initialised_reads_are_clean_via_htod_fill_and_stores() {
    let mut g = armed_gpu();
    let a = g.htod("uploaded", &[1u32, 2, 3, 4]); // H2D marks valid
    let b = g.alloc::<u32>("filled", 4);
    b.fill(0); // fill marks valid
    let c = g.alloc::<u32>("stored", 4);
    c.set(2, 9); // host set marks one word
    let sink = g.alloc::<u32>("sink", 4);
    g.launch("clean_kernel", LaunchConfig::grid_1d(1, 32), |ctx| {
        let v = ctx.ld(&a, 0) + ctx.ld(&b, 1) + ctx.ld(&c, 2);
        ctx.st(&sink, 0, v); // device store marks valid...
        let w = ctx.ld(&sink, 0); // ...so this read is fine
        ctx.st(&sink, 1, w);
    });
    let report = g.sanitizer_report().unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
}

// ---- bulk transfer paths: one-pass staging keeps the shadow exact ----

#[test]
fn htod_buffer_reads_clean_under_the_armed_sanitizer() {
    let mut g = armed_gpu();
    // 200 words: three full valid-bitmap words plus a partial one.
    let data: Vec<u32> = (0..200).collect();
    let up = g.htod("bulk_upload", &data);
    let sum = g.alloc::<u32>("sum", 1);
    g.launch("read_all", LaunchConfig::grid_1d(1, 32), |ctx| {
        let mut acc = 0u32;
        for i in 0..200 {
            acc = acc.wrapping_add(ctx.ld(&up, i));
        }
        ctx.st(&sum, 0, acc);
    });
    assert_eq!(g.dtoh(&up), data);
    assert_eq!(sum.get(0), (0..200).sum::<u32>());
    let report = g.sanitizer_report().unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn htod_into_prefix_leaves_the_tail_uninitialised() {
    let mut g = armed_gpu();
    let buf = g.alloc::<u32>("params", 130);
    g.htod_into(&buf, &[7u32; 70]);
    let sink = g.alloc::<u32>("sink", 1);
    g.launch("read_past_prefix", LaunchConfig::grid_1d(1, 32), |ctx| {
        let mut acc = 0u32;
        for i in 0..=70 {
            acc = acc.wrapping_add(ctx.ld(&buf, i));
        }
        ctx.st(&sink, 0, acc);
    });
    let report = g.sanitizer_report().unwrap();
    assert_eq!(count(&report, Analysis::Initcheck), 1, "{report:?}");
    let f = report
        .findings
        .iter()
        .find(|f| f.analysis == Analysis::Initcheck)
        .expect("initcheck finding");
    assert_eq!((f.buffer.as_str(), f.index), ("params", 70));
}

#[test]
fn dtoh_of_a_freed_upload_records_the_host_use_after_free() {
    let mut g = armed_gpu();
    let buf = g.htod("freed_upload", &[1u32, 2, 3, 4]);
    g.free(&buf);
    assert_eq!(g.dtoh(&buf), vec![1, 2, 3, 4], "the readback still copies");
    let report = g.sanitizer_report().unwrap();
    assert_eq!(report.counts.memcheck, 1, "{:?}", report.findings);
    assert!(report
        .findings
        .iter()
        .any(|f| f.analysis == Analysis::MemcheckUseAfterFree && f.buffer == "freed_upload"));
}

#[test]
#[should_panic(expected = "out-of-bounds access to buffer \"short\": index 4 >= len 4")]
fn dtoh_range_past_the_end_is_a_labeled_out_of_bounds_panic() {
    let mut g = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1));
    let buf = g.htod("short", &[1u32, 2, 3, 4]);
    let _ = g.dtoh_range(&buf, 2, 3);
}

#[test]
fn disjoint_block_writes_are_not_a_race() {
    let mut g = armed_gpu();
    let out = g.alloc::<u32>("partitioned", 64);
    g.launch("disjoint_kernel", LaunchConfig::grid_1d(8, 32), |ctx| {
        for i in 0..8 {
            ctx.st(&out, ctx.block_idx * 8 + i, 1);
        }
    });
    let report = g.sanitizer_report().unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
}

// ---- tile loads: the same findings as the element-wise loop -----------

/// Reads `start..end` of a buffer inside a kernel.
type Read = fn(&mut BlockCtx<'_>, &DeviceBuffer<u32>, usize, usize) -> Vec<u32>;

fn by_tile(ctx: &mut BlockCtx<'_>, buf: &DeviceBuffer<u32>, start: usize, end: usize) -> Vec<u32> {
    ctx.ld_tile(buf, start, end).iter().collect()
}

fn by_ld(ctx: &mut BlockCtx<'_>, buf: &DeviceBuffer<u32>, start: usize, end: usize) -> Vec<u32> {
    (start..end).map(|i| ctx.ld(buf, i)).collect()
}

/// A scenario run with one way of reading: the sanitizer report, the
/// values block 1 read, and the launch's read meter.
type Outcome = (SanitizerReport, Vec<u32>, u64);

/// Run `scenario` once reading through `ld_tile` and once through the
/// equivalent `ld` loop, and require identical deduplicated findings,
/// occurrence counts, values and metering. Returns the tile run's.
fn tile_matches_ld_loop(scenario: fn(Read) -> Outcome) -> Outcome {
    let tile = scenario(by_tile);
    let ld = scenario(by_ld);
    assert_eq!(tile.0.counts, ld.0.counts);
    assert_eq!(
        format!("{:?}", tile.0.findings),
        format!("{:?}", ld.0.findings)
    );
    assert_eq!((&tile.1, tile.2), (&ld.1, ld.2));
    assert!(!tile.0.findings.is_empty(), "each scenario must fire");
    tile
}

/// Block 1 of a two-block launch reads `start..end` of `buf` with
/// `read`; block 0 runs `block0` first (one-worker pool, so in order).
fn two_block_read(
    g: &mut Gpu,
    contract: Option<&KernelContract>,
    buf: &DeviceBuffer<u32>,
    (start, end): (usize, usize),
    read: Read,
    block0: fn(&mut BlockCtx<'_>, &DeviceBuffer<u32>),
) -> Outcome {
    let got = std::sync::Mutex::new(Vec::new());
    let kernel = |ctx: &mut BlockCtx<'_>| {
        if ctx.block_idx == 0 {
            block0(ctx, buf);
        } else {
            *got.lock().unwrap() = read(ctx, buf, start, end);
        }
    };
    let cfg = LaunchConfig::grid_1d(2, 32);
    let bytes_read = match contract {
        Some(c) => g.launch_checked(c, cfg, kernel),
        None => g.launch("tile_kernel", cfg, kernel),
    }
    .stats
    .bytes_read;
    (
        g.sanitizer_report().unwrap(),
        got.into_inner().unwrap(),
        bytes_read,
    )
}

#[test]
fn tile_memcheck_squash_matches_the_ld_loop() {
    let (report, values, _) = tile_matches_ld_loop(|read| {
        let mut g = armed_gpu();
        let buf = g.htod("short", &[1u32, 2, 3, 4]);
        two_block_read(&mut g, None, &buf, (2, 8), read, |_, _| {})
    });
    assert_eq!(values, [3, 4, 0, 0, 0, 0], "squashed words read zero");
    let f = &report.findings[0];
    assert_eq!(
        (f.analysis, f.index, f.count),
        (Analysis::MemcheckOob, 4, 4)
    );
}

#[test]
fn tile_initcheck_of_unwritten_words_matches_the_ld_loop() {
    let (report, _, _) = tile_matches_ld_loop(|read| {
        let mut g = armed_gpu();
        let buf = g.alloc::<u32>("half_written", 16);
        for i in 0..6 {
            buf.set(i, 1);
        }
        two_block_read(&mut g, None, &buf, (0, 16), read, |_, _| {})
    });
    let f = (report.findings.iter())
        .find(|f| f.analysis == Analysis::Initcheck)
        .expect("initcheck finding");
    assert_eq!((f.index, f.count), (6, 10));
}

#[test]
fn tile_cross_block_race_matches_the_ld_loop() {
    let (report, _, _) = tile_matches_ld_loop(|read| {
        let mut g = armed_gpu();
        let buf = g.htod("shared_row", &[0u32; 16]);
        two_block_read(&mut g, None, &buf, (0, 16), read, |ctx, buf| {
            for i in 8..12 {
                ctx.st(buf, i, 7);
            }
        })
    });
    let f = (report.findings.iter())
        .find(|f| f.analysis == Analysis::Racecheck)
        .expect("racecheck finding");
    assert_eq!((f.block, f.index, f.count), (1, 8, 4));
}

#[test]
fn tile_read_outside_the_contract_matches_the_ld_loop() {
    let (report, _, _) = tile_matches_ld_loop(|read| {
        let mut g = armed_gpu();
        let buf = g.htod("declared_head", &[5u32; 8]);
        let c = KernelContract::new("tile_kernel").reads(&buf, Footprint::fixed(0, 4));
        two_block_read(&mut g, Some(&c), &buf, (2, 8), read, |_, _| {})
    });
    let f = &report.findings[0];
    assert_eq!(
        (f.analysis, f.index, f.count),
        (Analysis::ContractConformance, 4, 4)
    );
}

// ---- zero-cost-when-off: identical cost digests -----------------------

/// Run the same little pipeline and digest every cost-model quantity.
fn cost_digest(sanitize: bool) -> Vec<u64> {
    let mut g = if sanitize {
        armed_gpu()
    } else {
        Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1))
    };
    let data: Vec<u32> = (0..4096).collect();
    let input = g.htod("in", &data);
    let hist = g.alloc::<u32>("hist", 256);
    hist.fill(0);
    let out = g.alloc::<u32>("out", 256);
    g.launch("histogram", LaunchConfig::grid_1d(16, 256), |ctx| {
        for i in 0..256 {
            let v = ctx.ld(&input, ctx.block_idx * 256 + i);
            ctx.atomic_add(&hist, (v % 256) as usize, 1);
        }
        if ctx.mark_block_done() {
            for i in 0..256 {
                let h = ctx.ld(&hist, i);
                ctx.st(&out, i, h);
            }
        }
    });
    let _ = g.dtoh(&out);
    let mut digest = vec![g.elapsed_us().to_bits()];
    for r in g.reports() {
        digest.extend([
            r.stats.bytes_read,
            r.stats.bytes_written,
            r.stats.bytes_scattered,
            r.stats.atomic_ops,
            r.stats.compute_ops,
            r.stats.shared_mem_bytes,
            r.cost.exec_us.to_bits(),
            r.cost.launch_us.to_bits(),
            r.start_us.to_bits(),
        ]);
    }
    digest
}

#[test]
fn sanitizer_never_perturbs_the_cost_model() {
    let off = cost_digest(false);
    let on = cost_digest(true);
    assert_eq!(off, on, "cost digests must be bit-identical");
}
