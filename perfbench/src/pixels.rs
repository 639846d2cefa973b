//! `pixels`: direct `Engine::run_on` calls on one warm GTX680 engine. All
//! five apps under Clamp and Repeat, exhaustive, on pre-generated images;
//! every output is checked against `Pipeline::reference`. The op is one
//! request.

use crate::bench::{
    self, assert_no_disk_cache, cache_delta, with_policy, Metrics, ModelFidelity, SimTotals,
    Window, Workload,
};
use crate::stats;
use crate::trace::Tracer;
use isp_core::Variant;
use isp_dsl::pipeline::Policy;
use isp_exec::{CacheStats, Engine, Request};
use isp_filters::by_name;
use isp_image::{BorderPattern, BorderSpec, Image, ImageGenerator};
use isp_sim::DeviceSpec;
use std::collections::BTreeMap;
use std::time::Instant;

/// (app, square size). A Bilateral launch costs about half a second at any
/// size (its per-launch fault churn), and its 13x13 oracle grows fast with
/// size, so it runs at 256^2 (512 blocks per launch); the other apps run
/// at 1536^2 (18432 blocks per launch), which keeps Bilateral near half of
/// a pass.
const APPS: [(&str, usize); 5] = [
    ("gaussian", 1536),
    ("laplace", 1536),
    ("bilateral", 256),
    ("sobel", 1536),
    ("night", 1536),
];

const PATTERNS: [BorderPattern; 2] = [BorderPattern::Clamp, BorderPattern::Repeat];

pub struct Pixels {
    seed: u64,
    templates: Vec<Request>,
    references: Vec<Image<f32>>,
    images: BTreeMap<usize, Image<f32>>,
    engine: Option<Engine>,
    model: ModelFidelity,
    /// Naive simulated cycles per template.
    naive: Vec<u64>,
    /// Simulated cycles per template, from the warm-up; every pass must
    /// reproduce them.
    cycles: Vec<u64>,
    cache_before: CacheStats,
    totals: SimTotals,
}

fn images(seed: u64, templates: &[Request]) -> BTreeMap<usize, Image<f32>> {
    let mut images = BTreeMap::new();
    for r in templates {
        images.entry(r.size).or_insert_with(|| {
            ImageGenerator::new(bench::derive_seed(seed, bench::IMAGE_STREAM))
                .natural::<f32>(r.size, r.size)
        });
    }
    images
}

impl Pixels {
    pub fn new(seed: u64) -> Pixels {
        let mut templates = Vec::new();
        for (app, size) in APPS {
            for pattern in PATTERNS {
                let app = by_name(app).expect("registered app");
                templates.push(
                    Request::paper(app, pattern, size, Policy::Model(Variant::IspBlock))
                        .exhaustive(),
                );
            }
        }
        Pixels {
            seed,
            templates,
            references: Vec::new(),
            images: BTreeMap::new(),
            engine: None,
            model: ModelFidelity::default(),
            naive: Vec::new(),
            cycles: Vec::new(),
            cache_before: CacheStats::default(),
            totals: SimTotals::default(),
        }
    }

    fn device() -> DeviceSpec {
        DeviceSpec::gtx680()
    }
}

impl Workload for Pixels {
    /// Oracles for every template (computed on the simulator threads'
    /// budget in parallel), then naive runs on a separate engine, checked
    /// against them: with the warm-up's isp+m cycles they give the
    /// naive / isp+m speed-ups. (Model accuracy proper is paper-grid's.)
    fn prepare(&mut self, t: &Tracer, checks: &mut Window) -> Result<(), String> {
        let images = t.span("input.generate", || images(self.seed, &self.templates));
        let workers = crate::sim_threads().max(1);
        let templates = &self.templates;
        let mut references: Vec<Option<Image<f32>>> = vec![None; templates.len()];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|k| {
                    let images = &images;
                    s.spawn(move || {
                        (k..templates.len())
                            .step_by(workers)
                            .map(|i| {
                                let r = &templates[i];
                                let border = BorderSpec::from_pattern(r.pattern);
                                (i, r.app.pipeline.reference(&images[&r.size], border))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, img) in h.join().expect("reference worker panicked") {
                    references[i] = Some(img);
                }
            }
        });
        self.references = references.into_iter().flatten().collect();
        let engine = Engine::new(Self::device());
        self.naive.clear();
        for (req, reference) in self.templates.iter().zip(&self.references) {
            let out = engine.run_on(&with_policy(req, Policy::Naive), &images[&req.size]);
            let ok = out
                .as_ref()
                .is_ok_and(|o| bench::pixels_match(o.image.as_ref(), reference));
            checks.check(ok, || format!("{} {} naive", req.app.name, req.pattern));
            self.naive.push(out.map_or(0, |o| o.total_cycles));
        }
        assert_no_disk_cache(&engine.cache_stats())
    }

    /// Generate the inputs, build the engine and run one warm-up pass that
    /// compiles, decodes and records every template.
    fn setup(&mut self, t: &Tracer, checks: &mut Window) -> Result<(), String> {
        self.engine = None;
        self.images = t.span("input.generate", || images(self.seed, &self.templates));
        let engine = t.span("engine.new", || Engine::new(Self::device()));
        self.cycles.clear();
        for (req, reference) in self.templates.iter().zip(&self.references) {
            let out = bench::run_on(t, &engine, req, &self.images[&req.size])
                .map_err(|e| format!("warm-up {} {}: {e}", req.app.name, req.pattern))?;
            checks.check(bench::pixels_match(out.image.as_ref(), reference), || {
                format!("warm-up {} {}", req.app.name, req.pattern)
            });
            self.cycles.push(out.total_cycles);
        }
        self.model = ModelFidelity::default();
        for ((req, naive), ispm) in self.templates.iter().zip(&self.naive).zip(&self.cycles) {
            self.model
                .speedups
                .push((req.app.name, *naive as f64 / *ispm as f64));
        }
        assert_no_disk_cache(&engine.cache_stats())?;
        self.engine = Some(engine);
        Ok(())
    }

    fn pass_seconds(&self) -> f64 {
        2.7
    }

    fn begin_window(&mut self) {
        self.cache_before = self.engine.as_ref().expect("set up").cache_stats();
        self.totals = SimTotals::default();
    }

    fn pass(&mut self, t: &Tracer, w: &mut Window) {
        let engine = self.engine.as_ref().expect("set up");
        for (i, req) in self.templates.iter().enumerate() {
            let source = &self.images[&req.size];
            t.set_op(w.passes * self.templates.len() as u64 + i as u64);
            let t0 = Instant::now();
            let out = bench::run_on(t, engine, req, source);
            let host_ms = t0.elapsed().as_secs_f64() * 1e3;
            let what = || format!("{} {}", req.app.name, req.pattern);
            match out {
                Ok(o) => {
                    w.ops += 1;
                    w.op_host_ms.push(host_ms);
                    w.check(
                        bench::pixels_match(o.image.as_ref(), &self.references[i])
                            && o.total_cycles == self.cycles[i],
                        || format!("{}: pixels or cycles differ", what()),
                    );
                    self.totals.exec_wall_ns += o.latency.exec_wall_ns;
                    self.totals.plan_wall_ns += o.latency.plan_wall_ns;
                    self.totals.warp_instructions += o.counters.warp_instructions;
                    self.totals.cycles += o.total_cycles;
                }
                Err(e) => w.check(false, || format!("{}: {e}", what())),
            }
        }
    }

    fn end_to_end(&self, w: &Window, m: &mut Metrics) {
        bench::host_op_metrics(w, m);
        let device = Self::device();
        let virt_ms: Vec<f64> = self
            .cycles
            .iter()
            .map(|&c| device.cycles_to_ms(c))
            .collect();
        m.insert("virt_p50_ms".into(), stats::p50(&virt_ms));
        m.insert("virt_tail_ms".into(), stats::tail(&virt_ms).value);
        m.insert(
            "virt_capacity_rps".into(),
            virt_ms.len() as f64 / (virt_ms.iter().sum::<f64>() / 1e3),
        );
        m.insert("virt_cycles".into(), self.cycles.iter().sum::<u64>() as f64);
        m.insert("ispm_geomean_speedup".into(), self.model.geomean());
    }

    fn layers(&mut self, t: &Tracer, w: &Window, m: &mut Metrics) -> Result<(), String> {
        let after = self.engine.as_ref().expect("set up").cache_stats();
        assert_no_disk_cache(&after)?;
        bench::sim_layers(&cache_delta(&self.cache_before, &after), &self.totals, m);
        bench::proc_layers(w, m);
        self.model.layers(m);
        bench::layer_probes(t, &[Self::device()], &self.templates, m);
        Ok(())
    }

    fn notes(&self) -> Vec<String> {
        self.model.table4_lines(
            "5 apps x {clamp, repeat}, exhaustive on GTX680, Bilateral at 256^2, others at 1024^2",
        )
    }
}
