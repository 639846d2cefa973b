//! The measurement loop every workload shares: timed set-up repetitions,
//! the measured window, the canonical metric lists and the layer probes
//! (compile, decode, plan, predict and input generation timed through the
//! public API on fresh engines).

use crate::procfs::{peak_rss_mb, ProcSample};
use crate::stats::{self, PolicyCycles};
use crate::trace::Tracer;
use isp_core::Variant;
use isp_dsl::pipeline::Policy;
use isp_dsl::runner::geometry_for;
use isp_exec::{bench_image, CacheStats, Engine, Outcome, Request};
use isp_image::Image;
use isp_json::Json;
use isp_sim::{DeviceSpec, Gpu, SimError};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Pixel tolerance against `Pipeline::reference` (as in the repository's
/// correctness tests).
pub const PIXEL_TOLERANCE: f32 = 2e-4;

/// End-to-end metrics: (name, unit). Every workload reports each of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("host_op_p50_ms", "ms"),
    ("host_op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("virt_p50_ms", "ms_virt"),
    ("virt_tail_ms", "ms_virt"),
    ("virt_capacity_rps", "1/s_virt"),
    ("virt_cycles", "cycles"),
    ("ispm_geomean_speedup", "ratio"),
];

/// The five paper applications, in reporting order.
pub const APPS: [&str; 5] = ["Gaussian", "Laplace", "Bilateral", "Sobel", "Night"];

/// The paper's Table IV geometric-mean isp+m speed-ups.
pub const TABLE4: [f64; 5] = [1.438, 1.422, 1.355, 1.877, 1.102];

/// Every size any workload generates inputs at.
pub const INPUT_SIZES: [usize; 5] = [128, 256, 512, 1536, 4096];

/// The serving ladder's rate labels (thousands of virtual requests per
/// second); see `serve_open::LADDER`.
pub const RUNG_LABELS: [&str; 5] = ["16k", "32k", "64k", "80k", "96k"];

/// Span names; each reports a `self.<name>_s` self time.
pub const SPANS: [&str; 12] = [
    "op",
    "setup",
    "serve.run",
    "engine.new",
    "engine.run_on",
    "engine.compile_pipeline",
    "engine.plan",
    "engine.predict",
    "engine.plan_wall",
    "engine.exec_wall",
    "gpu.decode",
    "input.generate",
];

/// Per-layer metrics: (name, unit). Every workload reports each of them in
/// a traced run, 0 where the workload does not exercise the layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("compile.host_s", "s"),
        ("compile.kernels", "count"),
        ("compile.opt_ops_removed", "count"),
        ("decode.host_s", "s"),
        ("decode.kernels", "count"),
        ("decode.dispatches_saved", "count"),
        ("plan.host_s", "s"),
        ("plan.misses", "count"),
        ("predict.host_us", "us"),
        ("model.pearson_r", "ratio"),
        ("model.mispredictions", "count"),
        ("sim.exec_host_s", "s"),
        ("sim.winst_per_host_s", "1/s"),
        ("sim.host_ns_per_kcycle", "ns"),
        ("sim.trace_recorded", "count"),
        ("sim.trace_replayed", "count"),
        ("sim.replay_share", "ratio"),
        ("sim.cross_launch_hits", "count"),
        ("sim.deopts", "count"),
        ("sim.deopt_share", "ratio"),
        ("sim.guard_batched_share", "ratio"),
        ("proc.minor_faults_per_op", "count"),
        ("proc.sys_share", "ratio"),
        ("proc.cpu_s", "s"),
        ("exec.kernel_hit_ratio", "ratio"),
        ("exec.plan_hit_ratio", "ratio"),
        ("exec.plan_host_s", "s"),
        ("serve.run_host_s", "s"),
        ("serve.engine_host_s", "s"),
        ("serve.batches", "count"),
        ("serve.mean_batch", "count"),
        ("serve.rejected", "count"),
        ("serve.max_queue_depth", "count"),
        ("serve.virt_queue_p50_ms", "ms_virt"),
        ("serve.virt_exec_p50_ms", "ms_virt"),
        ("serve.shard0.images", "count"),
        ("serve.shard1.images", "count"),
        ("serve.shard0.virt_busy_share", "ratio"),
        ("serve.shard1.virt_busy_share", "ratio"),
        ("trace.overhead_share", "ratio"),
        ("trace.spans", "count"),
        ("host.sim_threads", "count"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for app in APPS {
        v.push((format!("model.ispm_geomean.{app}"), "ratio"));
    }
    for rung in RUNG_LABELS {
        v.push((format!("serve.rung{rung}.mean_batch"), "count"));
        v.push((format!("serve.rung{rung}.rejected"), "count"));
        v.push((format!("serve.rung{rung}.virt_tail_ms"), "ms_virt"));
        v.push((format!("serve.rung{rung}.shard0.virt_busy_share"), "ratio"));
        v.push((format!("serve.rung{rung}.shard1.virt_busy_share"), "ratio"));
    }
    for size in INPUT_SIZES {
        v.push((format!("input.gen_ms.{size}"), "ms"));
    }
    for span in SPANS {
        v.push((format!("self.{span}_s"), "s"));
    }
    v
}

/// The stream input images are generated from.
pub const IMAGE_STREAM: u64 = 1 << 32;

/// Seed of input stream `stream` for benchmark seed `seed`. The program's
/// generators are SplitMix64 streams whose state advances by a fixed step,
/// so seeds one step apart would replay each other's streams shifted by
/// one draw; hashing both inputs through the SplitMix64 finaliser keeps
/// every (seed, stream) pair independent.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    mix(mix(seed.wrapping_add(0x9E37_79B9_7F4A_7C15)) ^ stream)
}

/// Named metric values (units come from the canonical lists).
pub type Metrics = BTreeMap<String, f64>;

/// Counts and host time of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    /// Completed ops.
    pub ops: u64,
    /// Host milliseconds per op.
    pub op_host_ms: Vec<f64>,
    /// Ops (and output checks) attempted.
    pub attempted: u64,
    /// Ops (and output checks) that failed.
    pub failed: u64,
    /// Wall seconds of the window.
    pub host_s: f64,
    /// Process counters accrued over the window.
    pub proc: ProcSample,
    /// Passes run.
    pub passes: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
}

impl Window {
    /// Count one check; `ok == false` is a failure described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    /// Record `n` failed ops.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Ops per host second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.host_s
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Generate oracles and run the output checks that stay outside both
    /// `setup_s` and the measured window.
    fn prepare(&mut self, _t: &Tracer, _checks: &mut Window) -> Result<(), String> {
        Ok(())
    }
    /// Build the program's state afresh and warm it: timed as `setup_s`.
    fn setup(&mut self, t: &Tracer, checks: &mut Window) -> Result<(), String>;
    /// Host seconds one pass takes on the reference host (2 cores): a
    /// window of `s` seconds runs `round(s / pass_seconds)` passes.
    fn pass_seconds(&self) -> f64;
    /// Passes a window runs at least.
    fn min_passes(&self) -> u64 {
        1
    }
    /// Reset per-window accumulators before a window starts.
    fn begin_window(&mut self);
    /// One pass over the workload's ops.
    fn pass(&mut self, t: &Tracer, w: &mut Window);
    /// Workload-specific end-to-end metrics (everything but `setup_s`,
    /// `host_ops_per_s` and `peak_rss_mb`).
    fn end_to_end(&self, w: &Window, m: &mut Metrics);
    /// Per-layer metrics of the last window, layer probes included.
    fn layers(&mut self, t: &Tracer, w: &Window, m: &mut Metrics) -> Result<(), String>;
    /// Lines printed before the result (fidelity tables and the like).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Time `SETUP_REPS` set-ups; returns their durations.
pub fn timed_setups(
    wl: &mut dyn Workload,
    t: &Tracer,
    checks: &mut Window,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        t.span("setup", || wl.setup(t, checks))?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// Passes in a window of `seconds`. The count is fixed by the workload's
/// nominal pass time rather than by the clock, so every run of one
/// workload has the same sample size and its percentiles sit at the same
/// ranks; a run lasts about `seconds` on the reference host.
pub fn window_passes(wl: &dyn Workload, seconds: f64) -> u64 {
    ((seconds / wl.pass_seconds()).round() as u64).max(wl.min_passes())
}

/// Run one measured window of `window_passes` passes.
pub fn run_window(wl: &mut dyn Workload, t: &Tracer, seconds: f64) -> Result<Window, String> {
    let mut w = Window::default();
    let passes = window_passes(wl, seconds);
    wl.begin_window();
    let p0 = ProcSample::now()?;
    let t0 = Instant::now();
    while w.passes < passes {
        wl.pass(t, &mut w);
        w.passes += 1;
    }
    w.host_s = t0.elapsed().as_secs_f64();
    w.proc = ProcSample::now()?.since(&p0);
    Ok(w)
}

/// The metrics every workload computes the same way.
pub fn common_end_to_end(setup_times: &[f64], w: &Window, m: &mut Metrics) -> Result<(), String> {
    m.insert("setup_s".into(), stats::p50(setup_times));
    m.insert("host_ops_per_s".into(), w.ops_per_s());
    m.insert("peak_rss_mb".into(), peak_rss_mb()?);
    Ok(())
}

/// Host-op percentiles from the window's per-op times.
pub fn host_op_metrics(w: &Window, m: &mut Metrics) {
    m.insert("host_op_p50_ms".into(), stats::p50(&w.op_host_ms));
    m.insert("host_op_tail_ms".into(), stats::tail(&w.op_host_ms).value);
}

/// Process-layer metrics of a window.
pub fn proc_layers(w: &Window, m: &mut Metrics) {
    let p = &w.proc;
    m.insert(
        "proc.minor_faults_per_op".into(),
        p.minflt as f64 / w.ops.max(1) as f64,
    );
    m.insert(
        "proc.sys_share".into(),
        if p.cpu_s() > 0.0 {
            p.sys_s / p.cpu_s()
        } else {
            0.0
        },
    );
    m.insert("proc.cpu_s".into(), p.cpu_s());
}

/// Host and simulated totals the outcomes of a window reported.
#[derive(Debug, Default)]
pub struct SimTotals {
    /// Σ `exec_wall_ns`.
    pub exec_wall_ns: u64,
    /// Σ `plan_wall_ns`.
    pub plan_wall_ns: u64,
    /// Σ warp instructions.
    pub warp_instructions: u64,
    /// Σ simulated cycles.
    pub cycles: u64,
}

/// `f` applied field-wise to the counters [`sim_layers`] reads.
fn zip_counters(a: &CacheStats, b: &CacheStats, f: impl Fn(u64, u64) -> u64) -> CacheStats {
    CacheStats {
        kernel_hits: f(a.kernel_hits, b.kernel_hits),
        kernel_misses: f(a.kernel_misses, b.kernel_misses),
        plan_hits: f(a.plan_hits, b.plan_hits),
        plan_misses: f(a.plan_misses, b.plan_misses),
        trace_recorded: f(a.trace_recorded, b.trace_recorded),
        trace_replayed: f(a.trace_replayed, b.trace_replayed),
        trace_cross_launch_hits: f(a.trace_cross_launch_hits, b.trace_cross_launch_hits),
        trace_deopts: f(a.trace_deopts, b.trace_deopts),
        guard_batched_replays: f(a.guard_batched_replays, b.guard_batched_replays),
        ..CacheStats::default()
    }
}

/// Counter differences `after - before`.
pub fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    zip_counters(after, before, |a, b| a - b)
}

/// Sum of cache counters (one entry per engine).
pub fn cache_sum(stats: &[CacheStats]) -> CacheStats {
    stats.iter().fold(CacheStats::default(), |s, c| {
        zip_counters(&s, c, |a, b| a + b)
    })
}

/// The disk cache must stay off: every `disk_cache_*` counter is 0.
pub fn assert_no_disk_cache(stats: &CacheStats) -> Result<(), String> {
    let disk = [
        stats.disk_cache_hits,
        stats.disk_cache_misses,
        stats.disk_cache_stale,
        stats.disk_cache_corrupt,
        stats.disk_cache_stores,
    ];
    if disk.iter().any(|&c| c != 0) {
        return Err(format!("disk cache in use: {disk:?}"));
    }
    Ok(())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Simulator-launch and engine-cache layer metrics.
pub fn sim_layers(delta: &CacheStats, totals: &SimTotals, m: &mut Metrics) {
    let exec_s = totals.exec_wall_ns as f64 / 1e9;
    m.insert("sim.exec_host_s".into(), exec_s);
    m.insert(
        "sim.winst_per_host_s".into(),
        if exec_s > 0.0 {
            totals.warp_instructions as f64 / exec_s
        } else {
            0.0
        },
    );
    m.insert(
        "sim.host_ns_per_kcycle".into(),
        ratio(totals.exec_wall_ns * 1000, totals.cycles),
    );
    m.insert("sim.trace_recorded".into(), delta.trace_recorded as f64);
    m.insert("sim.trace_replayed".into(), delta.trace_replayed as f64);
    let blocks = delta.trace_recorded + delta.trace_replayed;
    m.insert(
        "sim.replay_share".into(),
        ratio(delta.trace_replayed, blocks),
    );
    m.insert(
        "sim.cross_launch_hits".into(),
        delta.trace_cross_launch_hits as f64,
    );
    m.insert("sim.deopts".into(), delta.trace_deopts as f64);
    m.insert(
        "sim.deopt_share".into(),
        ratio(delta.trace_deopts, delta.trace_replayed),
    );
    m.insert(
        "sim.guard_batched_share".into(),
        ratio(delta.guard_batched_replays, delta.trace_replayed),
    );
    m.insert(
        "exec.kernel_hit_ratio".into(),
        ratio(delta.kernel_hits, delta.kernel_hits + delta.kernel_misses),
    );
    m.insert(
        "exec.plan_hit_ratio".into(),
        ratio(delta.plan_hits, delta.plan_hits + delta.plan_misses),
    );
    m.insert("exec.plan_host_s".into(), totals.plan_wall_ns as f64 / 1e9);
}

/// Whether a simulated image matches its oracle.
pub fn pixels_match(out: Option<&Image<f32>>, reference: &Image<f32>) -> bool {
    out.is_some_and(|img| {
        img.dims() == reference.dims()
            && stats::max_abs_diff(img.raw(), reference.raw()) < PIXEL_TOLERANCE
    })
}

/// `Engine::run_on` inside an `engine.run_on` span, with the plan and
/// execute host times the outcome reports as its children.
pub fn run_on(
    t: &Tracer,
    engine: &Engine,
    req: &Request,
    source: &Image<f32>,
) -> Result<Outcome, SimError> {
    t.span_with(
        "engine.run_on",
        || engine.run_on(req, source),
        |r| match r {
            Ok(o) => vec![
                ("engine.plan_wall", o.latency.plan_wall_ns),
                ("engine.exec_wall", o.latency.exec_wall_ns),
            ],
            Err(_) => Vec::new(),
        },
    )
}

/// A request under another policy.
pub fn with_policy(req: &Request, policy: Policy) -> Request {
    Request {
        policy,
        ..req.clone()
    }
}

/// The paper's three policies.
pub const POLICIES: [Policy; 3] = [
    Policy::Naive,
    Policy::AlwaysIsp(Variant::IspBlock),
    Policy::Model(Variant::IspBlock),
];

/// The Eq. (10) gain of a pipeline with exactly one stencil stage (the
/// points `model.pearson_r` correlates), `None` otherwise.
pub fn single_stage_gain(engine: &Engine, req: &Request) -> Option<f64> {
    let compiled = engine.compile_pipeline(&req.app.pipeline, req.pattern, req.granularity);
    let stencils: Vec<_> = compiled.iter().filter(|ck| ck.isp.is_some()).collect();
    match stencils.as_slice() {
        [ck] => {
            let geom = geometry_for(ck, req.size, req.size, req.block);
            Some(engine.plan(ck, &geom).predicted_gain)
        }
        _ => None,
    }
}

/// Model-fidelity summary over a set of points.
#[derive(Debug, Default, Clone)]
pub struct ModelFidelity {
    /// (app, naive / isp+m cycles) per point.
    pub speedups: Vec<(&'static str, f64)>,
    /// Three-policy cycles, for the points that ran all three policies.
    pub cycles: Vec<PolicyCycles>,
    /// (predicted G, measured naive/isp) for single-stencil-stage points.
    pub gains: Vec<(f64, f64)>,
}

impl ModelFidelity {
    /// Record a point that ran all three policies.
    pub fn add(&mut self, app: &'static str, p: PolicyCycles, gain: Option<f64>) {
        self.speedups.push((app, p.ispm_speedup()));
        self.cycles.push(p);
        if let Some(g) = gain {
            self.gains.push((g, p.naive as f64 / p.isp as f64));
        }
    }

    /// Geomean of naive / isp+m over every point.
    pub fn geomean(&self) -> f64 {
        let s: Vec<f64> = self.speedups.iter().map(|(_, s)| *s).collect();
        stats::geomean(&s)
    }

    /// Geomean of naive / isp+m over one app's points (0 without points).
    pub fn app_geomean(&self, app: &str) -> f64 {
        let s: Vec<f64> = self
            .speedups
            .iter()
            .filter(|(a, _)| *a == app)
            .map(|(_, s)| *s)
            .collect();
        stats::geomean(&s)
    }

    /// Model-layer metrics.
    pub fn layers(&self, m: &mut Metrics) {
        m.insert(
            "model.mispredictions".into(),
            stats::mispredictions(&self.cycles) as f64,
        );
        let (g, s): (Vec<f64>, Vec<f64>) = self.gains.iter().copied().unzip();
        m.insert("model.pearson_r".into(), stats::pearson(&g, &s));
        for app in APPS {
            m.insert(format!("model.ispm_geomean.{app}"), self.app_geomean(app));
        }
    }

    /// The per-app geomeans beside the paper's Table IV, labelled with the
    /// subset they cover.
    pub fn table4_lines(&self, subset: &str) -> Vec<String> {
        let mut lines = vec![format!(
            "model fidelity: isp+m geomean speed-up vs paper Table IV \
             (gap covers this workload's subset only: {subset})"
        )];
        for (app, paper) in APPS.iter().zip(TABLE4) {
            let ours = self.app_geomean(app);
            if ours > 0.0 {
                lines.push(format!(
                    "  model.ispm_geomean.{app:<9} {ours:.3}  paper {paper:.3}  gap {:+.3}",
                    ours - paper
                ));
            }
        }
        lines
    }
}

/// Compile, decode, plan, predict and input-generation probes over a set
/// of request templates, each through the public API on fresh engines and
/// `Gpu`s.
pub fn layer_probes(t: &Tracer, devices: &[DeviceSpec], templates: &[Request], m: &mut Metrics) {
    let (mut compile_s, mut plan_s, mut decode_s) = (0.0, 0.0, 0.0);
    let (mut kernels, mut opt_removed, mut plan_misses) = (0u64, 0u64, 0u64);
    let (mut decoded, mut saved) = (0u64, 0u64);
    let mut predict_us = Vec::new();
    for device in devices {
        let engine = t.span("engine.new", || Engine::new(device.clone()));
        let gpu = Gpu::new(device.clone());
        for req in templates {
            let t0 = Instant::now();
            let compiled = t.span("engine.compile_pipeline", || {
                engine.compile_pipeline(&req.app.pipeline, req.pattern, req.granularity)
            });
            compile_s += t0.elapsed().as_secs_f64();
            for ck in &compiled {
                let geom = geometry_for(ck, req.size, req.size, req.block);
                let t0 = Instant::now();
                t.span("engine.plan", || engine.plan(ck, &geom));
                plan_s += t0.elapsed().as_secs_f64();
                for variant in [Some(&ck.naive), ck.isp.as_ref(), ck.texture.as_ref()]
                    .into_iter()
                    .flatten()
                {
                    let t0 = Instant::now();
                    t.span("gpu.decode", || gpu.decode(&variant.kernel));
                    decode_s += t0.elapsed().as_secs_f64();
                }
            }
            for _ in 0..5 {
                let t0 = Instant::now();
                std::hint::black_box(t.span("engine.predict", || engine.predict(req)));
                predict_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        let stats = engine.cache_stats();
        kernels += stats.kernel_misses;
        opt_removed += stats.opt_ops_removed;
        plan_misses += stats.plan_misses;
        let decode = gpu.decode_stats();
        decoded += decode.misses;
        saved += gpu.fusion_stats().dispatches_saved;
    }
    m.insert("compile.host_s".into(), compile_s);
    m.insert("compile.kernels".into(), kernels as f64);
    m.insert("compile.opt_ops_removed".into(), opt_removed as f64);
    m.insert("decode.host_s".into(), decode_s);
    m.insert("decode.kernels".into(), decoded as f64);
    m.insert("decode.dispatches_saved".into(), saved as f64);
    m.insert("plan.host_s".into(), plan_s);
    m.insert("plan.misses".into(), plan_misses as f64);
    m.insert("predict.host_us".into(), stats::p50(&predict_us));
    let mut sizes: Vec<usize> = templates.iter().map(|r| r.size).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for size in sizes {
        let reps = if size >= 2048 { 1 } else { 3 };
        let ms: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(t.span("input.generate", || bench_image(size)));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        m.insert(format!("input.gen_ms.{size}"), stats::p50(&ms));
    }
}

/// Render the result line.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut obj = Json::obj();
    for (name, value, unit) in metrics {
        obj = obj.set(name, Json::obj().set("value", *value).set("unit", *unit));
    }
    Json::obj()
        .set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", obj)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn derived_seeds_are_not_shifted_streams() {
        // Seeds one SplitMix64 step apart must not map to states one step
        // apart, and streams of one seed must differ.
        let step = 0x9E37_79B9_7F4A_7C15u64;
        for s in 0..64u64 {
            let (a, b) = (derive_seed(s, 0), derive_seed(s + 1, 0));
            assert_ne!(b.wrapping_sub(a), step);
            assert_ne!(derive_seed(s, 0), derive_seed(s, 1));
        }
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
    }
}
