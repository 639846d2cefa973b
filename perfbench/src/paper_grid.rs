//! `paper-grid`: the paper's three-policy point (naive / isp / isp+m,
//! region-sampled) on fresh engines for both devices every pass, over
//! every app under Clamp and Repeat at the smallest and largest paper
//! sizes. Plans come from `Engine::plan` on `geometry_for`. The op is one
//! grid point (three launches, plus the cold compile for the first size of
//! each app and pattern).

use crate::bench::{
    self, assert_no_disk_cache, cache_sum, Metrics, ModelFidelity, SimTotals, Window, Workload,
    POLICIES,
};
use crate::stats::{self, PolicyCycles};
use crate::trace::Tracer;
use isp_dsl::runner::geometry_for;
use isp_exec::{CacheStats, Engine, Sweep};
use isp_filters::all_apps;
use isp_image::{BorderPattern, Image, ImageGenerator};
use isp_sim::DeviceSpec;
use std::time::Instant;

/// Smallest and largest paper sizes.
const SIZES: [usize; 2] = [512, 4096];

/// Clamp holds the known mispredictions (the cheap kernels at 512^2);
/// Repeat is the most ISP-friendly pattern.
const PATTERNS: [BorderPattern; 2] = [BorderPattern::Clamp, BorderPattern::Repeat];

pub struct PaperGrid {
    seed: u64,
    images: Vec<Image<f32>>,
    devices: Vec<DeviceSpec>,
    /// (device, sweep) per op, in pass order.
    points: Vec<(usize, Sweep)>,
    model: ModelFidelity,
    /// isp+m simulated ms per point, from the first pass.
    ispm_ms: Vec<f64>,
    ispm_cycles: Vec<u64>,
    cache: Vec<CacheStats>,
    totals: SimTotals,
    compile_s: f64,
    plan_s: f64,
}

impl PaperGrid {
    pub fn new(seed: u64) -> PaperGrid {
        let devices = vec![DeviceSpec::gtx680(), DeviceSpec::rtx2080()];
        let mut points = Vec::new();
        for d in 0..devices.len() {
            for app in all_apps() {
                for pattern in PATTERNS {
                    for size in SIZES {
                        points.push((d, Sweep::paper(app.clone(), pattern, size)));
                    }
                }
            }
        }
        PaperGrid {
            seed,
            images: Vec::new(),
            devices,
            points,
            model: ModelFidelity::default(),
            ispm_ms: Vec::new(),
            ispm_cycles: Vec::new(),
            cache: Vec::new(),
            totals: SimTotals::default(),
            compile_s: 0.0,
            plan_s: 0.0,
        }
    }

    fn image(&self, size: usize) -> &Image<f32> {
        &self.images[SIZES.iter().position(|&s| s == size).expect("grid size")]
    }
}

impl Workload for PaperGrid {
    /// Generate the inputs. Engines are built fresh in every pass, as a
    /// user regenerating the tables pays for them.
    fn setup(&mut self, t: &Tracer, _checks: &mut Window) -> Result<(), String> {
        self.images = t.span("input.generate", || {
            SIZES
                .iter()
                .map(|&s| {
                    ImageGenerator::new(bench::derive_seed(self.seed, bench::IMAGE_STREAM))
                        .natural::<f32>(s, s)
                })
                .collect()
        });
        Ok(())
    }

    fn pass_seconds(&self) -> f64 {
        23.5
    }

    fn begin_window(&mut self) {
        self.model = ModelFidelity::default();
        self.ispm_ms.clear();
        self.ispm_cycles.clear();
        self.cache.clear();
        self.totals = SimTotals::default();
        self.compile_s = 0.0;
        self.plan_s = 0.0;
    }

    fn pass(&mut self, t: &Tracer, w: &mut Window) {
        let engines: Vec<Engine> = self
            .devices
            .iter()
            .map(|d| t.span("engine.new", || Engine::new(d.clone())))
            .collect();
        let first = self.ispm_cycles.is_empty();
        for (i, (d, sweep)) in self.points.iter().enumerate() {
            let engine = &engines[*d];
            let source = self.image(sweep.size);
            t.set_op(w.passes * self.points.len() as u64 + i as u64);
            let what = || {
                format!(
                    "{} {} {} {}",
                    self.devices[*d].name, sweep.app.name, sweep.pattern, sweep.size
                )
            };
            let t0 = Instant::now();
            let point = t.span("op", || {
                let c0 = Instant::now();
                let compiled = t.span("engine.compile_pipeline", || {
                    engine.compile_pipeline(&sweep.app.pipeline, sweep.pattern, sweep.granularity)
                });
                let c1 = Instant::now();
                let mut gains = Vec::new();
                for ck in &compiled {
                    let geom = geometry_for(ck, sweep.size, sweep.size, sweep.block);
                    let plan = t.span("engine.plan", || engine.plan(ck, &geom));
                    if ck.isp.is_some() {
                        gains.push(plan.predicted_gain);
                    }
                }
                let c2 = Instant::now();
                let outs: Vec<_> = POLICIES
                    .into_iter()
                    .map(|policy| bench::run_on(t, engine, &sweep.request(policy), source))
                    .collect();
                (c1 - c0, c2 - c1, gains, outs)
            });
            let host_ms = t0.elapsed().as_secs_f64() * 1e3;
            let (compile, plan, gains, outs) = point;
            self.compile_s += compile.as_secs_f64();
            self.plan_s += plan.as_secs_f64();
            let outs: Result<Vec<_>, _> = outs.into_iter().collect();
            let outs = match outs {
                Ok(o) => o,
                Err(e) => {
                    w.check(false, || format!("{}: {e}", what()));
                    continue;
                }
            };
            w.ops += 1;
            w.op_host_ms.push(host_ms);
            for o in &outs {
                self.totals.exec_wall_ns += o.latency.exec_wall_ns;
                self.totals.plan_wall_ns += o.latency.plan_wall_ns;
                self.totals.warp_instructions += o.counters.warp_instructions;
                self.totals.cycles += o.total_cycles;
            }
            let p = PolicyCycles {
                naive: outs[0].total_cycles,
                isp: outs[1].total_cycles,
                ispm: outs[2].total_cycles,
            };
            // A single-kernel isp+m launch runs exactly the naive or the isp
            // kernel, so its cycles must equal one of them.
            let single = sweep.app.pipeline.stages.len() == 1;
            let consistent = !single || p.ispm == p.naive || p.ispm == p.isp;
            let repeatable = first || self.ispm_cycles[i] == p.ispm;
            w.check(consistent && repeatable, || {
                format!("{}: isp+m cycles {p:?} inconsistent", what())
            });
            if first {
                let device = &self.devices[*d];
                self.ispm_cycles.push(p.ispm);
                self.ispm_ms.push(device.cycles_to_ms(p.ispm));
                let gain = match gains.as_slice() {
                    [g] => Some(*g),
                    _ => None,
                };
                self.model.add(sweep.app.name, p, gain);
            }
        }
        self.cache.push(cache_sum(
            &engines.iter().map(|e| e.cache_stats()).collect::<Vec<_>>(),
        ));
        for e in &engines {
            if let Err(msg) = assert_no_disk_cache(&e.cache_stats()) {
                w.check(false, || msg);
            }
        }
    }

    fn end_to_end(&self, w: &Window, m: &mut Metrics) {
        bench::host_op_metrics(w, m);
        m.insert("virt_p50_ms".into(), stats::p50(&self.ispm_ms));
        m.insert("virt_tail_ms".into(), stats::tail(&self.ispm_ms).value);
        m.insert(
            "virt_capacity_rps".into(),
            self.ispm_ms.len() as f64 / (self.ispm_ms.iter().sum::<f64>() / 1e3),
        );
        m.insert(
            "virt_cycles".into(),
            self.ispm_cycles.iter().sum::<u64>() as f64,
        );
        m.insert("ispm_geomean_speedup".into(), self.model.geomean());
    }

    fn layers(&mut self, t: &Tracer, w: &Window, m: &mut Metrics) -> Result<(), String> {
        let delta = cache_sum(&self.cache);
        bench::sim_layers(&delta, &self.totals, m);
        bench::proc_layers(w, m);
        self.model.layers(m);
        let templates: Vec<_> = self
            .points
            .iter()
            .filter(|(d, _)| *d == 0)
            .map(|(_, s)| s.request(isp_dsl::pipeline::Policy::Model(s.granularity)))
            .collect();
        bench::layer_probes(t, &self.devices, &templates, m);
        // The grid compiles and plans inside every pass; report its own
        // per-pass figures in place of the probe's.
        let passes = w.passes.max(1) as f64;
        m.insert("compile.host_s".into(), self.compile_s / passes);
        m.insert("plan.host_s".into(), self.plan_s / passes);
        Ok(())
    }

    fn notes(&self) -> Vec<String> {
        let mut lines = self.model.table4_lines(
            "5 apps x {clamp, repeat} x {512^2, 4096^2}, region-sampled, GTX680 + RTX2080",
        );
        let wrong: Vec<String> = self
            .points
            .iter()
            .zip(&self.model.cycles)
            .filter(|(_, p)| p.mispredicted())
            .map(|((d, s), _)| {
                format!(
                    "{} {} {} {}",
                    self.devices[*d].name, s.app.name, s.pattern, s.size
                )
            })
            .collect();
        lines.push(format!("model mispredictions: {}", wrong.join("; ")));
        lines
    }
}
