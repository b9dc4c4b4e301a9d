//! Integration tests for kernel access contracts and the barrier-aware
//! synccheck: negative controls that MUST each produce exactly one
//! deduplicated finding (overlapping exclusive write footprints, an
//! out-of-bounds footprint, a contract narrower than the observed
//! accesses, a barrier-divergent kernel, an unsynchronised same-block
//! write pair) plus the positive controls (the same pair exonerated by
//! `block_sync()`, hard errors without a sanitizer, bit-identical cost
//! digests with contracts on vs off).

use gpu_sim::sanitizer::Analysis;
use gpu_sim::{
    AccessKind, BlockPool, DeviceSpec, Footprint, Gpu, KernelContract, LaunchConfig, SanitizerMode,
    SimError,
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

// ---- negative controls: each MUST yield exactly one finding -----------

#[test]
fn overlapping_write_footprint_is_one_finding() {
    let mut g = armed_gpu();
    let out = g.alloc::<u32>("overlap_out", 64);
    // An exclusive `.writes` claim with an `all` footprint cannot be
    // cross-block disjoint at grid 4: flagged statically, before the
    // kernel runs. The kernel itself writes disjointly so no *dynamic*
    // analysis fires — the finding is purely the contract's.
    let run = |g: &mut Gpu| {
        let c = KernelContract::new("overlap_kernel").writes(&out, Footprint::all());
        g.launch_checked(&c, LaunchConfig::grid_1d(4, 32), |ctx| {
            for i in 0..16 {
                ctx.st(&out, ctx.block_idx * 16 + i, 1);
            }
        });
    };
    run(&mut g);
    run(&mut g); // second launch must fold into the same finding
    let report = g.sanitizer_report().expect("sanitizer armed");
    let findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.analysis == Analysis::ContractViolation)
        .collect();
    assert_eq!(findings.len(), 1, "{:?}", report.findings);
    assert_eq!(findings[0].buffer, "overlap_out");
    assert_eq!(findings[0].kernel, "overlap_kernel");
    assert_eq!(findings[0].count, 2, "occurrences fold into one finding");
    assert!(findings[0].detail.contains("not cross-block disjoint"));
    assert_eq!(g.reports().len(), 2, "the launches still ran");
}

#[test]
fn oob_footprint_is_one_finding() {
    let mut g = armed_gpu();
    let out = g.alloc::<u32>("short_out", 8);
    // per_block(8) reaches index 15 at grid 2 — past the 8-element
    // buffer. Static OOB, no execution needed; block 1 never actually
    // touches the buffer so memcheck stays silent.
    let run = |g: &mut Gpu| {
        let c = KernelContract::new("oob_kernel").writes(&out, Footprint::per_block(8));
        g.launch_checked(&c, LaunchConfig::grid_1d(2, 32), |ctx| {
            if ctx.block_idx == 0 {
                ctx.st(&out, 0, 1);
            }
        });
    };
    run(&mut g);
    run(&mut g);
    let report = g.sanitizer_report().unwrap();
    assert_eq!(report.counts.memcheck, 0, "no dynamic OOB occurred");
    let findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.analysis == Analysis::ContractViolation)
        .collect();
    assert_eq!(findings.len(), 1, "{:?}", report.findings);
    assert_eq!(findings[0].buffer, "short_out");
    assert!(
        findings[0].detail.contains("outside"),
        "{}",
        findings[0].detail
    );
}

#[test]
fn contract_narrower_than_observed_is_one_conformance_finding() {
    let mut g = armed_gpu();
    let out = g.alloc::<u32>("narrow_out", 8);
    // The contract only admits writes to [0, 4); the kernel writes
    // index 5 repeatedly. Every occurrence is a conformance violation,
    // deduplicated to a single finding.
    let c = KernelContract::new("narrow_kernel").writes(&out, Footprint::fixed(0, 4));
    g.launch_checked(&c, LaunchConfig::grid_1d(1, 32), |ctx| {
        for _ in 0..3 {
            ctx.st(&out, 5, 7);
        }
        ctx.st(&out, 1, 7); // admitted: inside the declared range
    });
    let report = g.sanitizer_report().unwrap();
    let findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.analysis == Analysis::ContractConformance)
        .collect();
    assert_eq!(findings.len(), 1, "{:?}", report.findings);
    assert_eq!(findings[0].buffer, "narrow_out");
    assert_eq!(findings[0].index, 5);
    assert_eq!(findings[0].access, AccessKind::Write);
    assert_eq!(findings[0].count, 3, "occurrences fold into one finding");
    assert!(
        findings[0].detail.contains("outside every declared entry"),
        "{}",
        findings[0].detail
    );
}

#[test]
fn undeclared_buffer_access_is_a_conformance_finding() {
    let mut g = armed_gpu();
    let declared = g.alloc::<u32>("declared", 8);
    let stowaway = g.alloc::<u32>("stowaway", 8);
    stowaway.fill(1);
    let c = KernelContract::new("stowaway_kernel").writes(&declared, Footprint::all());
    g.launch_checked(&c, LaunchConfig::grid_1d(1, 32), |ctx| {
        let v = ctx.ld(&stowaway, 0); // never declared
        ctx.st(&declared, 0, v);
    });
    let report = g.sanitizer_report().unwrap();
    let f = report
        .findings
        .iter()
        .find(|f| f.analysis == Analysis::ContractConformance)
        .expect("undeclared-buffer finding");
    assert_eq!(f.buffer, "stowaway");
    assert!(f.detail.contains("not declared"), "{}", f.detail);
}

#[test]
fn barrier_divergent_kernel_is_one_finding() {
    let mut g = armed_gpu();
    // Block 0 reaches one barrier, every other block reaches none — the
    // classic conditional-__syncthreads deadlock shape.
    g.launch("divergent_kernel", LaunchConfig::grid_1d(4, 32), |ctx| {
        if ctx.block_idx == 0 {
            ctx.block_sync();
        }
    });
    let report = g.sanitizer_report().unwrap();
    let findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.analysis == Analysis::Synccheck)
        .collect();
    assert_eq!(findings.len(), 1, "{:?}", report.findings);
    assert_eq!(findings[0].buffer, "<barrier>");
    assert_eq!(findings[0].kernel, "divergent_kernel");
    assert!(
        findings[0].detail.contains("barrier divergence"),
        "{}",
        findings[0].detail
    );
}

#[test]
fn same_block_write_pair_flagged_without_sync_and_exonerated_with_it() {
    // Without a barrier between them, two writes of the same word by
    // one block would race across that block's threads on real
    // hardware: exactly one deduplicated synccheck finding.
    let mut g = armed_gpu();
    let out = g.alloc::<u32>("unsynced", 4);
    g.launch("unsynced_kernel", LaunchConfig::grid_1d(2, 32), |ctx| {
        ctx.st(&out, ctx.block_idx, 1);
        ctx.st(&out, ctx.block_idx, 2); // no block_sync() in between
    });
    let report = g.sanitizer_report().unwrap();
    let findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.analysis == Analysis::Synccheck)
        .collect();
    assert_eq!(findings.len(), 1, "{:?}", report.findings);
    assert_eq!(findings[0].buffer, "unsynced");
    assert!(
        findings[0].detail.contains("no block_sync()"),
        "{}",
        findings[0].detail
    );

    // The same pair separated by block_sync() is the legitimate
    // multi-pass shape (bitonic stages): must stay clean.
    let mut g = armed_gpu();
    let out = g.alloc::<u32>("synced", 4);
    g.launch("synced_kernel", LaunchConfig::grid_1d(2, 32), |ctx| {
        ctx.st(&out, ctx.block_idx, 1);
        ctx.block_sync();
        ctx.st(&out, ctx.block_idx, 2);
    });
    let report = g.sanitizer_report().unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
}

#[test]
fn contract_violation_without_sanitizer_is_a_hard_error() {
    let mut g = Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1));
    let out = g.alloc::<u32>("out", 8);
    let c = KernelContract::new("bad_kernel").writes(&out, Footprint::per_block(8));
    let err = g
        .try_launch_checked(&c, LaunchConfig::grid_1d(4, 32), |ctx| {
            if ctx.block_idx == 0 {
                ctx.st(&out, 0, 1);
            }
        })
        .unwrap_err();
    assert!(
        matches!(&err, SimError::ContractViolation { kernel, .. } if kernel == "bad_kernel"),
        "{err}"
    );
    assert!(!err.is_device_fault(), "caller mistake, not a device fault");
    assert!(g.reports().is_empty(), "the kernel never ran");
}

// ---- positive controls ------------------------------------------------

#[test]
fn valid_contract_passes_and_conformance_stays_silent() {
    let mut g = armed_gpu();
    let input = g.htod("vals", &(0..128u32).collect::<Vec<_>>());
    let out = g.alloc::<u32>("out", 4);
    let c = KernelContract::new("tile_sum")
        .reads(&input, Footprint::per_block(32))
        .writes(&out, Footprint::per_block(1));
    g.launch_checked(&c, LaunchConfig::grid_1d(4, 32), |ctx| {
        let mut acc = 0;
        for i in 0..32 {
            acc += ctx.ld(&input, ctx.block_idx * 32 + i);
        }
        ctx.st(&out, ctx.block_idx, acc);
    });
    assert_eq!(out.get(0), (0..32).sum::<u32>());
    let report = g.sanitizer_report().unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
}

/// Run an annotated pipeline and digest every cost-model quantity.
fn contract_digest(contracts: bool) -> Vec<u64> {
    let mut g = if contracts {
        armed_gpu()
    } else {
        Gpu::with_pool(DeviceSpec::a100(), BlockPool::new(1))
    };
    let data: Vec<u32> = (0..4096).collect();
    let input = g.htod("in", &data);
    let out = g.alloc::<u32>("out", 16);
    let c = KernelContract::new("tile_max")
        .reads(&input, Footprint::per_block(256))
        .writes(&out, Footprint::per_block(1));
    g.launch_checked(&c, LaunchConfig::grid_1d(16, 256), |ctx| {
        let mut m = 0;
        for i in 0..256 {
            m = m.max(ctx.ld(&input, ctx.block_idx * 256 + i));
        }
        ctx.block_sync();
        ctx.st(&out, ctx.block_idx, m);
    });
    let _ = g.dtoh(&out);
    let mut digest = vec![g.elapsed_us().to_bits()];
    for r in g.reports() {
        digest.extend([
            r.stats.bytes_read,
            r.stats.bytes_written,
            r.stats.atomic_ops,
            r.stats.compute_ops,
            r.cost.exec_us.to_bits(),
            r.cost.launch_us.to_bits(),
            r.start_us.to_bits(),
        ]);
    }
    digest
}

#[test]
fn contracts_never_perturb_the_cost_model() {
    let off = contract_digest(false);
    let on = contract_digest(true);
    assert_eq!(off, on, "cost digests must be bit-identical");
}
