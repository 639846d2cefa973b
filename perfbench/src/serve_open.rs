//! `serve-open`: open-loop exponential arrivals through `Server::run` on
//! the two-device fleet, stepping through a fixed ladder of virtual rates
//! from well below saturation to above it. The op is one request.

use crate::bench::{
    self, assert_no_disk_cache, cache_delta, cache_sum, with_policy, Metrics, ModelFidelity,
    SimTotals, Window, Workload, POLICIES, RUNG_LABELS,
};
use crate::stats;
use crate::trace::Tracer;
use isp_core::Variant;
use isp_dsl::pipeline::Policy;
use isp_exec::{bench_image, CacheStats, Engine, Request};
use isp_filters::by_name;
use isp_image::{BorderPattern, BorderSpec};
use isp_serve::{Arrivals, ServeConfig, ServeReport, Server, Workload as ServeWorkload};
use isp_sim::DeviceSpec;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Request image size.
const SIZE: usize = 128;

/// The mix: four apps under four patterns, 16 templates.
const APPS: [&str; 4] = ["gaussian", "laplace", "sobel", "night"];
const PATTERNS: [BorderPattern; 4] = [
    BorderPattern::Clamp,
    BorderPattern::Mirror,
    BorderPattern::Repeat,
    BorderPattern::Constant,
];

/// (virtual requests per second, requests offered) per rung. The fleet
/// saturates near 68-72k; the 64-deep queue starts rejecting near 80k.
const LADDER: [(f64, usize); 5] = [
    (16_000.0, 100),
    (32_000.0, 1000),
    (64_000.0, 300),
    (80_000.0, 600),
    (96_000.0, 200),
];

/// The nominal rung: the one below the capacity rung, where the latency
/// figures are read. It carries the most requests, for steady percentiles.
const NOMINAL: usize = 1;

/// Virtual tail-latency SLO a rung must meet to count towards capacity.
/// Over 20 seeds the 64k rung's tail stayed below 0.57 ms and the 80k
/// rung's (600 requests, past saturation) above 0.78 ms.
const SLO_MS: f64 = 0.7;

/// Requests per template in the warm-up, offered at once so that both
/// shards execute (and record traces for) every template.
const WARM_REQUESTS: usize = 6;

/// Rung results that depend only on the seed (virtual clock).
#[derive(Debug, Clone, Default)]
struct Rung {
    digest: u64,
    latencies_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    cycles: u64,
    rejected: u64,
    max_queue_depth: usize,
    batches: u64,
    mean_batch: f64,
    shard_images: Vec<u64>,
    shard_busy_share: Vec<f64>,
}

impl Rung {
    fn of(report: &ServeReport) -> Rung {
        let mut h = DefaultHasher::new();
        for r in &report.completed {
            (
                r.id,
                r.shard,
                r.batch_size,
                r.arrival_ns,
                r.start_ns,
                r.done_ns,
            )
                .hash(&mut h);
            (r.latency.exec_cycles, r.latency.queue_cycles).hash(&mut h);
        }
        (report.admitted, report.rejected, report.batches).hash(&mut h);
        let makespan = report.makespan_ns.max(1) as f64;
        Rung {
            digest: h.finish(),
            latencies_ms: report.latencies_ms(),
            queue_ms: report.completed.iter().map(|r| r.queue_ms()).collect(),
            exec_ms: report.completed.iter().map(|r| r.exec_ms()).collect(),
            cycles: report.completed.iter().map(|r| r.latency.exec_cycles).sum(),
            rejected: report.rejected,
            max_queue_depth: report.max_queue_depth,
            batches: report.batches,
            mean_batch: report.mean_batch_size(),
            shard_images: report.shards.iter().map(|s| s.images).collect(),
            shard_busy_share: report
                .shards
                .iter()
                .map(|s| s.busy_ns as f64 / makespan)
                .collect(),
        }
    }

    fn meets_slo(&self) -> bool {
        self.rejected == 0 && stats::tail(&self.latencies_ms).value < SLO_MS
    }
}

pub struct ServeOpen {
    seed: u64,
    templates: Vec<Request>,
    server: Option<Server>,
    model: ModelFidelity,
    rungs: Vec<Option<Rung>>,
    cache_before: CacheStats,
    run_host_s: f64,
    engine_wall: SimTotals,
}

impl ServeOpen {
    pub fn new(seed: u64) -> ServeOpen {
        let mut templates = Vec::new();
        for app in APPS {
            for pattern in PATTERNS {
                let app = by_name(app).expect("registered app");
                templates.push(
                    Request::paper(app, pattern, SIZE, Policy::Model(Variant::IspBlock))
                        .exhaustive(),
                );
            }
        }
        ServeOpen {
            seed,
            templates,
            server: None,
            model: ModelFidelity::default(),
            rungs: vec![None; LADDER.len()],
            cache_before: CacheStats::default(),
            run_host_s: 0.0,
            engine_wall: SimTotals::default(),
        }
    }

    fn devices() -> [DeviceSpec; 2] {
        [DeviceSpec::gtx680(), DeviceSpec::rtx2080()]
    }

    fn server_cache(&self) -> Vec<CacheStats> {
        self.server
            .as_ref()
            .map(|s| s.shards().iter().map(|sh| sh.cache_stats()).collect())
            .unwrap_or_default()
    }

    fn nominal(&self) -> &Rung {
        self.rungs[NOMINAL].as_ref().expect("a pass ran")
    }

    /// Highest rate whose rung, and every rung below it, meets the SLO
    /// without rejections.
    fn capacity_rps(&self) -> f64 {
        let mut capacity = 0.0;
        for (rung, (rate, _)) in self.rungs.iter().zip(LADDER) {
            match rung {
                Some(r) if r.meets_slo() => capacity = rate,
                _ => break,
            }
        }
        capacity
    }
}

impl Workload for ServeOpen {
    /// Check every template once against the oracle on both devices under
    /// all three policies; the same runs give the model-fidelity figures.
    fn prepare(&mut self, t: &Tracer, checks: &mut Window) -> Result<(), String> {
        let source = t.span("input.generate", || bench_image(SIZE));
        let references: Vec<_> = self
            .templates
            .iter()
            .map(|r| {
                r.app
                    .pipeline
                    .reference(&source, BorderSpec::from_pattern(r.pattern))
            })
            .collect();
        for device in Self::devices() {
            let engine = Engine::new(device.clone());
            for (req, reference) in self.templates.iter().zip(&references) {
                let mut cycles = [0u64; 3];
                for (i, policy) in POLICIES.into_iter().enumerate() {
                    let out = engine.run_on(&with_policy(req, policy), &source);
                    let ok = out
                        .as_ref()
                        .is_ok_and(|o| bench::pixels_match(o.image.as_ref(), reference));
                    checks.check(ok, || {
                        format!(
                            "{} {} {} {policy:?}",
                            device.name, req.app.name, req.pattern
                        )
                    });
                    cycles[i] = out.map_or(0, |o| o.total_cycles);
                }
                let p = stats::PolicyCycles {
                    naive: cycles[0],
                    isp: cycles[1],
                    ispm: cycles[2],
                };
                let gain = bench::single_stage_gain(&engine, req);
                self.model.add(req.app.name, p, gain);
            }
            assert_no_disk_cache(&engine.cache_stats())?;
        }
        Ok(())
    }

    fn setup(&mut self, t: &Tracer, _checks: &mut Window) -> Result<(), String> {
        self.server = None;
        let cfg = ServeConfig::fleet();
        if cfg.shards.iter().any(|s| s.cache_dir.is_some()) {
            return Err("the fleet must run without a disk cache".into());
        }
        let mut server = Server::new(cfg);
        for (i, template) in self.templates.iter().enumerate() {
            let warm = ServeWorkload {
                seed: bench::derive_seed(self.seed, (LADDER.len() + i) as u64),
                requests: WARM_REQUESTS,
                arrivals: Arrivals::Open {
                    rate_rps: 1.0e9,
                    exponential: true,
                },
                mix: vec![template.clone()],
            };
            let report = t.span("serve.run", || server.run(&warm));
            if report.completed.len() != WARM_REQUESTS {
                return Err(format!("warm-up of {} lost requests", template.app.name));
            }
        }
        for shard in server.shards() {
            assert_no_disk_cache(&shard.cache_stats())?;
        }
        self.server = Some(server);
        Ok(())
    }

    fn pass_seconds(&self) -> f64 {
        10.5
    }

    /// The virtual results of a later pass must repeat the first's.
    fn min_passes(&self) -> u64 {
        2
    }

    fn begin_window(&mut self) {
        self.rungs = vec![None; LADDER.len()];
        self.cache_before = cache_sum(&self.server_cache());
        self.run_host_s = 0.0;
        self.engine_wall = SimTotals::default();
    }

    fn pass(&mut self, t: &Tracer, w: &mut Window) {
        let server = self.server.as_mut().expect("set up");
        for (k, &(rate, requests)) in LADDER.iter().enumerate() {
            let wl = ServeWorkload {
                seed: bench::derive_seed(self.seed, k as u64),
                requests,
                arrivals: Arrivals::Open {
                    rate_rps: rate,
                    exponential: true,
                },
                mix: self.templates.clone(),
            };
            t.set_op(w.passes * LADDER.len() as u64 + k as u64);
            let t0 = std::time::Instant::now();
            let report = t.span_with(
                "serve.run",
                || server.run(&wl),
                |r| {
                    let plan = r.completed.iter().map(|c| c.latency.plan_wall_ns).sum();
                    let exec = r.completed.iter().map(|c| c.latency.exec_wall_ns).sum();
                    vec![("engine.plan_wall", plan), ("engine.exec_wall", exec)]
                },
            );
            let run_s = t0.elapsed().as_secs_f64();
            self.run_host_s += run_s;
            // One sample per `Server::run` call: its host time per completed
            // request. Single requests cannot be timed from outside the
            // call, and their engine-reported times are dominated, at the
            // tail, by host preemption rather than by the program.
            w.op_host_ms
                .push(run_s * 1e3 / report.completed.len().max(1) as f64);
            let label = RUNG_LABELS[k];
            w.attempted += requests as u64;
            w.ops += report.completed.len() as u64;
            if report.admitted + report.rejected != requests as u64 {
                w.fail(
                    requests as u64,
                    format!("rung {label}: admitted + rejected != offered"),
                );
            }
            let lost = report.admitted - (report.completed.len() as u64).min(report.admitted);
            if lost > 0 {
                w.fail(
                    lost,
                    format!("rung {label}: {lost} admitted requests never completed"),
                );
            }
            // Below capacity the queue must never refuse work; above it,
            // refusals are the load shedding the ladder probes.
            if k <= NOMINAL && report.rejected > 0 {
                w.fail(
                    report.rejected,
                    format!("rung {label}: rejections below capacity"),
                );
            }
            for r in &report.completed {
                self.engine_wall.plan_wall_ns += r.latency.plan_wall_ns;
                self.engine_wall.exec_wall_ns += r.latency.exec_wall_ns;
                self.engine_wall.cycles += r.latency.exec_cycles;
            }
            let rung = Rung::of(&report);
            match &self.rungs[k] {
                None => self.rungs[k] = Some(rung),
                Some(first) if first.digest != rung.digest => w.fail(
                    requests as u64,
                    format!("rung {label}: virtual results differ between passes"),
                ),
                Some(_) => {}
            }
        }
    }

    fn end_to_end(&self, w: &Window, m: &mut Metrics) {
        bench::host_op_metrics(w, m);
        let nominal = self.nominal();
        m.insert("virt_p50_ms".into(), stats::p50(&nominal.latencies_ms));
        m.insert(
            "virt_tail_ms".into(),
            stats::tail(&nominal.latencies_ms).value,
        );
        m.insert("virt_capacity_rps".into(), self.capacity_rps());
        m.insert("virt_cycles".into(), nominal.cycles as f64);
        m.insert("ispm_geomean_speedup".into(), self.model.geomean());
    }

    fn layers(&mut self, t: &Tracer, w: &Window, m: &mut Metrics) -> Result<(), String> {
        let after = self.server_cache();
        for stats in &after {
            assert_no_disk_cache(stats)?;
        }
        let delta = cache_delta(&self.cache_before, &cache_sum(&after));
        bench::sim_layers(&delta, &self.engine_wall, m);
        bench::proc_layers(w, m);
        self.model.layers(m);
        m.insert("serve.run_host_s".into(), self.run_host_s);
        m.insert(
            "serve.engine_host_s".into(),
            (self.engine_wall.plan_wall_ns + self.engine_wall.exec_wall_ns) as f64 / 1e9,
        );
        let nominal = self.nominal().clone();
        m.insert("serve.batches".into(), nominal.batches as f64);
        m.insert("serve.mean_batch".into(), nominal.mean_batch);
        let rungs: Vec<&Rung> = self.rungs.iter().flatten().collect();
        m.insert(
            "serve.rejected".into(),
            rungs.iter().map(|r| r.rejected).sum::<u64>() as f64,
        );
        m.insert(
            "serve.max_queue_depth".into(),
            rungs.iter().map(|r| r.max_queue_depth).max().unwrap_or(0) as f64,
        );
        m.insert(
            "serve.virt_queue_p50_ms".into(),
            stats::p50(&nominal.queue_ms),
        );
        m.insert(
            "serve.virt_exec_p50_ms".into(),
            stats::p50(&nominal.exec_ms),
        );
        for i in 0..2 {
            m.insert(
                format!("serve.shard{i}.images"),
                nominal.shard_images[i] as f64,
            );
            m.insert(
                format!("serve.shard{i}.virt_busy_share"),
                nominal.shard_busy_share[i],
            );
        }
        for (rung, label) in rungs.iter().zip(RUNG_LABELS) {
            m.insert(format!("serve.rung{label}.mean_batch"), rung.mean_batch);
            m.insert(format!("serve.rung{label}.rejected"), rung.rejected as f64);
            m.insert(
                format!("serve.rung{label}.virt_tail_ms"),
                stats::tail(&rung.latencies_ms).value,
            );
            for i in 0..2 {
                m.insert(
                    format!("serve.rung{label}.shard{i}.virt_busy_share"),
                    rung.shard_busy_share[i],
                );
            }
        }
        bench::layer_probes(t, &Self::devices(), &self.templates, m);
        Ok(())
    }

    fn notes(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "ladder (virtual rps: requests, rejected, tail ms; SLO {SLO_MS} ms, nominal {}):",
            RUNG_LABELS[NOMINAL]
        )];
        for ((rate, n), rung) in LADDER.iter().zip(&self.rungs) {
            if let Some(r) = rung {
                let tail = stats::tail(&r.latencies_ms);
                lines.push(format!(
                    "  {rate:>7.0}: {n:>4} offered, {:>3} rejected, tail {:.4} ms (p{:.1} of {}), mean batch {:.2}",
                    r.rejected, tail.value, tail.percentile, tail.n, r.mean_batch
                ));
            }
        }
        lines.extend(
            self.model
                .table4_lines("4 apps x 4 patterns at 128^2, exhaustive, GTX680 + RTX2080"),
        );
        lines
    }
}
