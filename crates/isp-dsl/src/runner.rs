//! Host-side launch glue: build buffers and parameters from a compiled
//! variant, pick grids, classify blocks for sampled runs, and (for the
//! `isp+m` policy) consult the analytic model.

use crate::compile::{CompiledKernel, CompiledVariant, ParamKind};
use isp_core::bounds::Geometry;
use isp_core::{
    region_of_block, warp_refinement_applicable, IndexBounds, Plan, Planner, PredictionInputs,
    Region, Variant, WarpBounds,
};
use isp_image::Image;
use isp_sim::launch::{PathTable, SimMode};
use isp_sim::{
    occupancy, DeviceBuffer, Gpu, LaunchConfig, LaunchReport, ParamValue, PerfCounters, SimError,
    TexAddressMode, TexDesc, TraceStats,
};

pub use isp_sim::ExecStrategy;

/// How a filter run should execute on the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Interpret every block; returns pixels (correctness runs).
    Exhaustive,
    /// Region-sampled performance estimation; no pixels returned.
    Sampled,
}

/// Result of running one filter variant.
#[derive(Debug, Clone)]
pub struct FilterOutput {
    /// The output image (`None` in sampled mode).
    pub image: Option<Image<f32>>,
    /// The simulator's launch report.
    pub report: LaunchReport,
    /// The variant that actually ran.
    pub variant: Variant,
    /// Counters attributed to each of the nine ISP regions (sorted in
    /// [`Region::ALL`] order). Exact per-block attribution in exhaustive
    /// mode, population-scaled representative counters in sampled mode;
    /// empty when the partition is degenerate. The entries merge
    /// bit-identically to `report.counters`.
    pub per_region: Vec<(Region, PerfCounters)>,
    /// Trace-replay reuse attributed to each ISP region (sorted in
    /// [`Region::ALL`] order). Populated only by exhaustive classified runs
    /// under the replay engine; empty otherwise.
    pub per_region_trace: Vec<(Region, TraceStats)>,
}

/// Derive the partition geometry for a compiled kernel on a given image and
/// block size.
pub fn geometry_for(
    ck: &CompiledKernel,
    width: usize,
    height: usize,
    block: (u32, u32),
) -> Geometry {
    let (m, n) = ck.spec.window();
    Geometry {
        sx: width,
        sy: height,
        m,
        n,
        tx: block.0,
        ty: block.1,
    }
}

/// Build the scalar parameter vector for a variant from its layout.
fn build_params(
    cv: &CompiledVariant,
    geom: &Geometry,
    bounds: &IndexBounds,
    warp_bounds: Option<&WarpBounds>,
    border_const: f32,
    user_params: &[f32],
) -> Vec<ParamValue> {
    cv.params
        .iter()
        .map(|kind| match kind {
            ParamKind::Width => ParamValue::I32(geom.sx as i32),
            ParamKind::Height => ParamValue::I32(geom.sy as i32),
            ParamKind::Stride => ParamValue::I32(geom.sx as i32),
            ParamKind::BhL => ParamValue::I32(bounds.bh_l as i32),
            ParamKind::BhR => ParamValue::I32(bounds.bh_r as i32),
            ParamKind::BhT => ParamValue::I32(bounds.bh_t as i32),
            ParamKind::BhB => ParamValue::I32(bounds.bh_b as i32),
            ParamKind::WL => ParamValue::I32(warp_bounds.expect("warp bounds").w_l as i32),
            ParamKind::WR => ParamValue::I32(warp_bounds.expect("warp bounds").w_r as i32),
            ParamKind::BorderConst => ParamValue::F32(border_const),
            ParamKind::User(i) => ParamValue::F32(user_params[*i]),
        })
        .collect()
}

/// Check the generated kernels' Mirror/Repeat precondition (`radius <
/// image size`): the lowering emits a single reflection (Mirror) and two
/// unrolled wraps (Repeat) per side, which match the *total* reference
/// resolver only on that domain. The reference (`isp_image::resolve_1d`)
/// itself has no such restriction.
fn check_preconditions(ck: &CompiledKernel, geom: &Geometry) -> Result<(), SimError> {
    let (rx, ry) = (geom.rx(), geom.ry());
    if rx >= geom.sx || ry >= geom.sy {
        return Err(SimError::BadLaunch(format!(
            "kernel '{}': stencil radius ({rx},{ry}) must be smaller than the image ({},{})",
            ck.spec.name, geom.sx, geom.sy
        )));
    }
    Ok(())
}

/// Run one compiled variant of a filter over `inputs` with the default
/// (parallel) exhaustive strategy. Thin compatibility shim over
/// [`run_filter_with`]; new code should go through `isp_exec::Engine`.
#[allow(clippy::too_many_arguments)]
pub fn run_filter(
    gpu: &Gpu,
    ck: &CompiledKernel,
    variant: Variant,
    inputs: &[&Image<f32>],
    user_params: &[f32],
    border_const: f32,
    block: (u32, u32),
    mode: ExecMode,
) -> Result<FilterOutput, SimError> {
    run_filter_with(
        gpu,
        ck,
        variant,
        inputs,
        user_params,
        border_const,
        block,
        mode,
        ExecStrategy::Parallel,
    )
}

/// Run one compiled variant of a filter over `inputs`.
///
/// All inputs must share dimensions; the output matches them. `mode`
/// selects exhaustive interpretation (pixels + counters) or region-sampled
/// estimation (counters + timing only); `strategy` picks the exhaustive
/// block-worker scheduling (parallel and serial are bit-identical).
#[allow(clippy::too_many_arguments)]
pub fn run_filter_with(
    gpu: &Gpu,
    ck: &CompiledKernel,
    variant: Variant,
    inputs: &[&Image<f32>],
    user_params: &[f32],
    border_const: f32,
    block: (u32, u32),
    mode: ExecMode,
    strategy: ExecStrategy,
) -> Result<FilterOutput, SimError> {
    let cv = ck
        .variant(variant)
        .ok_or_else(|| SimError::BadLaunch(format!("variant {variant} was not compiled")))?;
    assert_eq!(
        inputs.len(),
        ck.spec.num_inputs,
        "input image count mismatch"
    );
    if user_params.len() != ck.spec.user_params.len() {
        return Err(SimError::BadLaunch(format!(
            "kernel '{}' takes {} user parameter(s) ({}), got {}",
            ck.spec.name,
            ck.spec.user_params.len(),
            ck.spec.user_params.join(", "),
            user_params.len()
        )));
    }
    let (w, h) = inputs[0].dims();
    for img in inputs {
        assert_eq!(img.dims(), (w, h), "inputs must share dimensions");
    }

    let geom = geometry_for(ck, w, h, block);
    check_preconditions(ck, &geom)?;
    let bounds = IndexBounds::new(&geom);
    if variant.is_isp() && !bounds.is_valid() {
        return Err(SimError::BadLaunch(format!(
            "kernel '{}': degenerate partition for {}x{} with {}x{} blocks — use the naive variant",
            ck.spec.name, w, h, block.0, block.1
        )));
    }
    if variant == Variant::Texture && ck.texture.is_none() {
        return Err(SimError::BadLaunch(format!(
            "kernel '{}': no texture variant was compiled",
            ck.spec.name
        )));
    }
    if variant == Variant::IspWarp && !warp_refinement_applicable(&bounds, block.0) {
        return Err(SimError::BadLaunch(format!(
            "kernel '{}': warp-grained ISP needs warp-aligned blocks wider than one warp",
            ck.spec.name
        )));
    }
    let warp_bounds = (variant == Variant::IspWarp)
        .then(|| WarpBounds::new(geom.sx, geom.rx(), geom.tx, geom.grid().0));

    let params = build_params(
        cv,
        &geom,
        &bounds,
        warp_bounds.as_ref(),
        border_const,
        user_params,
    );
    // Texture variants bind every input as a 2D texture with the address
    // mode matching the requested border pattern (exactly the CUDA
    // cudaTextureAddressMode mapping).
    let tex_mode = (variant == Variant::Texture).then_some(match ck.pattern {
        isp_image::BorderPattern::Clamp => TexAddressMode::Clamp,
        isp_image::BorderPattern::Repeat => TexAddressMode::Wrap,
        isp_image::BorderPattern::Mirror => TexAddressMode::Mirror,
        isp_image::BorderPattern::Constant => TexAddressMode::Border(border_const),
    });
    let mut buffers: Vec<DeviceBuffer> = inputs
        .iter()
        .map(|img| {
            let buf = DeviceBuffer::from_f32_rows((0..h).map(|y| img.row(y)));
            match tex_mode {
                Some(mode) => buf.with_texture(TexDesc {
                    width: w,
                    height: h,
                    mode,
                }),
                None => buf,
            }
        })
        .collect();
    buffers.push(DeviceBuffer::zeroed(w * h));

    let cfg = LaunchConfig::for_image(w, h, block);
    let classifier = move |bx: u32, by: u32| region_of_block(bx, by, &bounds).index() as u32;
    let path_table = cv.region_footprints.map(|fp| PathTable {
        path_of_class: (0..9).collect(),
        footprint_of_class: fp.to_vec(),
    });

    // Region attribution needs a valid partition; on degenerate geometries
    // (possible for naive runs, which don't require one) fall back to the
    // unclassified exhaustive mode and report no per-region counters.
    let report = match (mode, bounds.is_valid()) {
        (ExecMode::Exhaustive, true) => gpu.launch_with(
            &cv.kernel,
            cfg,
            &params,
            &mut buffers,
            SimMode::ExhaustiveClassified {
                classifier: &classifier,
            },
            strategy,
        )?,
        (ExecMode::Exhaustive, false) => gpu.launch_with(
            &cv.kernel,
            cfg,
            &params,
            &mut buffers,
            SimMode::Exhaustive,
            strategy,
        )?,
        (ExecMode::Sampled, _) => gpu.launch(
            &cv.kernel,
            cfg,
            &params,
            &mut buffers,
            SimMode::RegionSampled {
                classifier: &classifier,
                paths: path_table.as_ref(),
            },
        )?,
    };
    let per_region: Vec<(Region, PerfCounters)> = report
        .per_class
        .iter()
        .map(|(c, counters)| (Region::ALL[*c as usize], counters.clone()))
        .collect();
    let per_region_trace: Vec<(Region, TraceStats)> = report
        .per_class_trace
        .iter()
        .map(|&(c, stats)| (Region::ALL[c as usize], stats))
        .collect();

    let image = match mode {
        ExecMode::Exhaustive => {
            let out = buffers.pop().expect("output buffer");
            Some(
                Image::from_vec(w, h, out.into_f32())
                    .expect("output buffer has width*height elements"),
            )
        }
        ExecMode::Sampled => None,
    };
    Ok(FilterOutput {
        image,
        report,
        variant,
        per_region,
        per_region_trace,
    })
}

/// Run a standalone [`CompiledVariant`] (currently the tiled variant) whose
/// parameters are limited to geometry, the border constant, and user
/// scalars. The block size must match the one the variant was compiled for.
#[allow(clippy::too_many_arguments)]
pub fn run_compiled(
    gpu: &Gpu,
    cv: &crate::compile::CompiledVariant,
    inputs: &[&Image<f32>],
    user_params: &[f32],
    border_const: f32,
    block: (u32, u32),
    mode: ExecMode,
) -> Result<FilterOutput, SimError> {
    let (w, h) = inputs[0].dims();
    for img in inputs {
        assert_eq!(img.dims(), (w, h), "inputs must share dimensions");
    }
    let params: Vec<ParamValue> = cv
        .params
        .iter()
        .map(|kind| match kind {
            ParamKind::Width => ParamValue::I32(w as i32),
            ParamKind::Height => ParamValue::I32(h as i32),
            ParamKind::Stride => ParamValue::I32(w as i32),
            ParamKind::BorderConst => ParamValue::F32(border_const),
            ParamKind::User(i) => ParamValue::F32(user_params[*i]),
            other => unreachable!("standalone variants have no {other:?} parameter"),
        })
        .collect();
    let mut buffers: Vec<DeviceBuffer> = inputs
        .iter()
        .map(|img| DeviceBuffer::from_f32_rows((0..h).map(|y| img.row(y))))
        .collect();
    buffers.push(DeviceBuffer::zeroed(w * h));
    let cfg = LaunchConfig::for_image(w, h, block);
    let report = match mode {
        ExecMode::Exhaustive => {
            gpu.launch(&cv.kernel, cfg, &params, &mut buffers, SimMode::Exhaustive)?
        }
        ExecMode::Sampled => gpu.launch(
            &cv.kernel,
            cfg,
            &params,
            &mut buffers,
            SimMode::RegionSampled {
                classifier: &|_, _| 0,
                paths: None,
            },
        )?,
    };
    let image = match mode {
        ExecMode::Exhaustive => {
            let out = buffers.pop().expect("output buffer");
            Some(Image::from_vec(w, h, out.into_f32()).expect("sized output"))
        }
        ExecMode::Sampled => None,
    };
    Ok(FilterOutput {
        image,
        report,
        variant: cv.variant,
        // Standalone variants carry no region partition.
        per_region: Vec::new(),
        per_region_trace: Vec::new(),
    })
}

/// The `isp+m` decision for a compiled kernel on a given geometry: combine
/// the IR-statistics `R_reduced` with the two theoretical occupancies into
/// the Eq. (10) gain and pick a variant.
pub fn plan_for(gpu: &Gpu, ck: &CompiledKernel, geom: &Geometry) -> Plan {
    let Some(isp) = ck.isp.as_ref() else {
        return Plan {
            variant: Variant::Naive,
            predicted_gain: 1.0,
        };
    };
    let bounds = IndexBounds::new(geom);
    let threads = geom.tx * geom.ty;
    let model = ck
        .ir_stats_model_for(gpu.device())
        .expect("isp variant implies stats");
    let occ_naive = occupancy(gpu.device(), threads, ck.naive.regs.data_regs).occupancy;
    let occ_isp = occupancy(gpu.device(), threads, isp.regs.data_regs).occupancy;
    let inputs = PredictionInputs {
        r_reduced: model.r_reduced(&bounds),
        occ_naive,
        occ_isp,
    };
    Planner.choose(isp.variant, &bounds, &inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Compiler;
    use crate::eval::reference_run;
    use crate::spec::KernelSpec;
    use isp_image::{BorderPattern, BorderSpec, ImageGenerator, Mask};
    use isp_sim::DeviceSpec;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::gtx680())
    }

    fn gauss3() -> KernelSpec {
        KernelSpec::convolution("gauss3", &Mask::gaussian(3, 0.85).unwrap())
    }

    #[test]
    fn all_variants_match_reference_for_all_patterns() {
        // THE correctness theorem of the repo: naive, ISP-block, and
        // ISP-warp produce exactly the reference pixels, all four patterns.
        let spec = gauss3();
        let img = ImageGenerator::new(21).uniform_noise::<f32>(384, 64);
        let gpu = gpu();
        for pattern in BorderPattern::ALL {
            let border = BorderSpec {
                pattern,
                constant: 0.25,
            };
            let golden = reference_run(&spec, &[&img], border, &[]);
            for (granularity, block) in [
                (Variant::IspBlock, (32u32, 4u32)),
                (Variant::IspWarp, (128, 1)),
            ] {
                let ck = Compiler::new().compile(&spec, pattern, granularity);
                for variant in [Variant::Naive, granularity] {
                    let out = run_filter(
                        &gpu,
                        &ck,
                        variant,
                        &[&img],
                        &[],
                        0.25,
                        block,
                        ExecMode::Exhaustive,
                    )
                    .unwrap_or_else(|e| panic!("{pattern}/{variant}: {e}"));
                    let d = out.image.unwrap().max_abs_diff(&golden).unwrap();
                    assert!(d < 1e-4, "{pattern}/{variant}: max diff {d}");
                }
            }
        }
    }

    #[test]
    fn sampled_counters_match_exhaustive() {
        let spec = gauss3();
        let gpu = gpu();
        let img = ImageGenerator::new(5).uniform_noise::<f32>(128, 64);
        let ck = Compiler::new().compile(&spec, BorderPattern::Clamp, Variant::IspBlock);
        for variant in [Variant::Naive, Variant::IspBlock] {
            let ex = run_filter(
                &gpu,
                &ck,
                variant,
                &[&img],
                &[],
                0.0,
                (32, 4),
                ExecMode::Exhaustive,
            )
            .unwrap();
            let sa = run_filter(
                &gpu,
                &ck,
                variant,
                &[&img],
                &[],
                0.0,
                (32, 4),
                ExecMode::Sampled,
            )
            .unwrap();
            assert_eq!(
                ex.report.counters.warp_instructions, sa.report.counters.warp_instructions,
                "{variant}: sampled warp-instructions must be exact"
            );
            assert_eq!(
                ex.report.counters.histogram, sa.report.counters.histogram,
                "{variant}"
            );
            assert!(sa.image.is_none());
        }
    }

    #[test]
    fn isp_executes_fewer_instructions_on_large_images() {
        let spec = gauss3();
        let gpu = gpu();
        let img = ImageGenerator::new(5).uniform_noise::<f32>(512, 512);
        let ck = Compiler::new().compile(&spec, BorderPattern::Repeat, Variant::IspBlock);
        let naive = run_filter(
            &gpu,
            &ck,
            Variant::Naive,
            &[&img],
            &[],
            0.0,
            (32, 4),
            ExecMode::Sampled,
        )
        .unwrap();
        let isp = run_filter(
            &gpu,
            &ck,
            Variant::IspBlock,
            &[&img],
            &[],
            0.0,
            (32, 4),
            ExecMode::Sampled,
        )
        .unwrap();
        assert!(
            isp.report.counters.warp_instructions < naive.report.counters.warp_instructions,
            "isp {} vs naive {}",
            isp.report.counters.warp_instructions,
            naive.report.counters.warp_instructions
        );
    }

    #[test]
    fn degenerate_partition_is_rejected_for_isp() {
        let big = KernelSpec::convolution("big", &Mask::box_filter(13).unwrap());
        let ck = Compiler::new().compile(&big, BorderPattern::Clamp, Variant::IspBlock);
        let img = ImageGenerator::new(1).uniform_noise::<f32>(32, 64);
        let err = run_filter(
            &gpu(),
            &ck,
            Variant::IspBlock,
            &[&img],
            &[],
            0.0,
            (32, 4),
            ExecMode::Exhaustive,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BadLaunch(_)));
        // Naive still works on the same geometry.
        let ok = run_filter(
            &gpu(),
            &ck,
            Variant::Naive,
            &[&img],
            &[],
            0.0,
            (32, 4),
            ExecMode::Exhaustive,
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn plan_for_picks_isp_on_large_cheap_kernels() {
        let spec = gauss3();
        let gpu = gpu();
        let ck = Compiler::new().compile(&spec, BorderPattern::Repeat, Variant::IspBlock);
        let geom = geometry_for(&ck, 2048, 2048, (32, 4));
        let plan = plan_for(&gpu, &ck, &geom);
        assert_eq!(
            plan.variant,
            Variant::IspBlock,
            "gain {}",
            plan.predicted_gain
        );
    }

    #[test]
    fn plan_for_point_op_is_naive() {
        let spec = KernelSpec::new("id", 1, vec![], crate::expr::Expr::at(0, 0));
        let ck = Compiler::new().compile(&spec, BorderPattern::Clamp, Variant::IspBlock);
        let geom = geometry_for(&ck, 512, 512, (32, 4));
        assert_eq!(plan_for(&gpu(), &ck, &geom).variant, Variant::Naive);
    }

    #[test]
    fn oversized_radius_rejected() {
        let spec = KernelSpec::convolution("huge", &Mask::box_filter(65).unwrap());
        let ck = Compiler::new().compile(&spec, BorderPattern::Repeat, Variant::IspBlock);
        let img = ImageGenerator::new(1).uniform_noise::<f32>(24, 24);
        let err = run_filter(
            &gpu(),
            &ck,
            Variant::Naive,
            &[&img],
            &[],
            0.0,
            (8, 8),
            ExecMode::Exhaustive,
        )
        .unwrap_err();
        assert!(err.to_string().contains("radius"));
    }
}

#[cfg(test)]
mod param_validation_tests {
    use super::*;
    use crate::Compiler;
    use isp_image::{BorderPattern, ImageGenerator};
    use isp_sim::DeviceSpec;

    #[test]
    fn missing_user_params_is_a_friendly_error() {
        let spec = crate::KernelSpec::new(
            "scaled",
            1,
            vec!["gain".into()],
            crate::Expr::at(0, 0) * crate::Expr::param(0),
        );
        let ck = Compiler::new().compile(&spec, BorderPattern::Clamp, Variant::IspBlock);
        let gpu = Gpu::new(DeviceSpec::gtx680());
        let img = ImageGenerator::new(1).uniform_noise::<f32>(64, 32);
        let err = run_filter(
            &gpu,
            &ck,
            Variant::Naive,
            &[&img],
            &[], // missing "gain"
            0.0,
            (32, 4),
            ExecMode::Sampled,
        )
        .unwrap_err();
        assert!(err.to_string().contains("gain"), "{err}");
    }
}
