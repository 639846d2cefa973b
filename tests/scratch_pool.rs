//! Pooled scratch arenas: the decoded engines' register files outlive a
//! launch and are shared by every live `Gpu` in the process. An arena last
//! used for another kernel — or another decoding of the same kernel — is
//! re-prepared in place, so reuse must never be observable.
//!
//! This file holds a single test on purpose: the pool is process-wide, and
//! a sibling test launching on its own threads would add arenas to it.

use isp_core::Variant;
use isp_dsl::runner::{run_filter_with, ExecMode, ExecStrategy, FilterOutput};
use isp_dsl::{CompiledKernel, Compiler};
use isp_exec::PAPER_BLOCK;
use isp_image::{BorderPattern, Image, ImageGenerator};
use isp_sim::{DeviceSpec, ExecEngine, Gpu};

/// Alternating big and small kernels — Bilateral 13x13's register file is
/// tens of MB, Gaussian's a few KB — over fused and unfused clones sharing
/// the pool leaves every launch bit-identical to the same launch on a
/// fresh `Gpu` with a fresh pool, and the pool never keeps more arenas
/// than there are workers.
#[test]
fn pooled_scratch_arenas_are_reused_bit_identically_across_kernels() {
    let compiler = Compiler::new();
    let sigma = vec![isp_filters::bilateral::range_param(0.1)];
    let bilateral = |p| compiler.compile(&isp_filters::bilateral::spec(13), p, Variant::IspBlock);
    let gaussian = |p| compiler.compile(&isp_filters::gaussian::spec(5), p, Variant::IspBlock);
    // (kernel, user params, size, fused): the Gaussian clamp kernel runs
    // fused, then unfused on the arena it just left. Every step has its own
    // trace-cache key, so a fresh `Gpu` records exactly what the shared
    // family records.
    let steps: Vec<(CompiledKernel, Vec<f32>, usize, bool)> = vec![
        (bilateral(BorderPattern::Clamp), sigma.clone(), 64, true),
        (gaussian(BorderPattern::Clamp), vec![], 96, true),
        (gaussian(BorderPattern::Clamp), vec![], 64, false),
        (bilateral(BorderPattern::Repeat), sigma, 64, false),
        (gaussian(BorderPattern::Repeat), vec![], 96, true),
    ];
    let images: Vec<Image<f32>> = steps
        .iter()
        .enumerate()
        .map(|(i, s)| ImageGenerator::new(i as u64).natural::<f32>(s.2, s.2))
        .collect();
    let workers = rayon::threads().max(1);
    for engine in [ExecEngine::Replay, ExecEngine::Decoded] {
        for strategy in [ExecStrategy::Serial, ExecStrategy::Parallel] {
            let run = |gpu: &Gpu, i: usize| {
                let (ck, params, _, _) = &steps[i];
                run_filter_with(
                    gpu,
                    ck,
                    Variant::IspBlock,
                    &[&images[i]],
                    params,
                    0.0,
                    PAPER_BLOCK,
                    ExecMode::Exhaustive,
                    strategy,
                )
                .unwrap_or_else(|e| panic!("{engine:?} {strategy:?} step {i}: {e}"))
            };
            let new_gpu = |fused| {
                Gpu::new(DeviceSpec::gtx680())
                    .with_engine(engine)
                    .with_fusion(fused)
            };
            // Baselines first, each on a Gpu that is the only one alive, so
            // each starts from an empty pool.
            let fresh: Vec<FilterOutput> = (0..steps.len())
                .map(|i| {
                    let gpu = new_gpu(steps[i].3);
                    assert_eq!(gpu.pooled_scratch_arenas(), 0, "no Gpu outlived its step");
                    run(&gpu, i)
                })
                .collect();

            let fused = new_gpu(true);
            let unfused = fused.clone().with_fusion(false);
            for (i, fresh) in fresh.iter().enumerate() {
                let label = format!("{engine:?} {strategy:?} step {i}");
                let shared = run(if steps[i].3 { &fused } else { &unfused }, i);
                let pixels = |r: &FilterOutput| r.image.as_ref().expect("pixels").raw().to_vec();
                assert_eq!(pixels(&shared), pixels(fresh), "{label}: pixels");
                assert_eq!(shared.report.counters, fresh.report.counters, "{label}");
                assert_eq!(
                    shared.report.timing.cycles, fresh.report.timing.cycles,
                    "{label}: cycles"
                );
                assert_eq!(shared.per_region, fresh.per_region, "{label}");
                if strategy == ExecStrategy::Serial {
                    assert_eq!(
                        shared.per_region_trace, fresh.per_region_trace,
                        "{label}: per-class trace stats"
                    );
                } else {
                    // Which block of a class records is scheduling-dependent
                    // under the parallel strategy; the blocks per class are not.
                    let blocks = |r: &FilterOutput| {
                        r.per_region_trace
                            .iter()
                            .map(|(c, s)| (*c, s.recorded + s.replayed + s.deopted))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(blocks(&shared), blocks(fresh), "{label}: trace blocks");
                }
                let pooled = fused.pooled_scratch_arenas();
                assert!(
                    (1..=workers).contains(&pooled),
                    "{label}: {pooled} pooled arenas for {workers} workers"
                );
                assert_eq!(pooled, unfused.pooled_scratch_arenas(), "one shared pool");
            }
        }
    }
}
