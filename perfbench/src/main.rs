//! Two-clock benchmark for the ISP border-handling stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-open|pixels|paper-grid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a summary, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md for
//! what each workload and metric is for.

mod bench;
mod paper_grid;
mod pixels;
mod procfs;
mod serve_open;
mod stats;
mod trace;

use bench::{Metrics, Window, Workload};
use std::process::ExitCode;
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Simulator worker threads: `ISP_SIM_THREADS` when set, else the host's
/// parallelism. Never more than the host has.
pub fn sim_threads() -> usize {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::var("ISP_SIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(host)
        .min(host)
}

/// A metric as printed: name, value, unit.
type Reported = (String, f64, &'static str);

fn run(args: &Args) -> Result<(Window, Vec<Reported>, Vec<String>), String> {
    // Pin the worker count before any engine exists, and record it.
    let threads = sim_threads();
    std::env::set_var("ISP_SIM_THREADS", threads.to_string());
    let mut wl: Box<dyn Workload> = match args.workload.as_str() {
        "serve-open" => Box::new(serve_open::ServeOpen::new(args.seed)),
        "pixels" => Box::new(pixels::Pixels::new(args.seed)),
        "paper-grid" => Box::new(paper_grid::PaperGrid::new(args.seed)),
        other => return Err(format!("unknown workload {other}")),
    };
    let untraced = Tracer::new(false);
    // Records spans (prepare, set-up, the traced window, the probes) only
    // with `--trace 1`.
    let tracer = Tracer::new(args.trace);
    let mut checks = Window::default();
    wl.prepare(&tracer, &mut checks)?;
    let setup_times = bench::timed_setups(wl.as_mut(), &tracer, &mut checks)?;

    let mut m = Metrics::new();
    let window;
    let listed: Vec<(String, &'static str)> = if !args.trace {
        window = bench::run_window(wl.as_mut(), &untraced, args.seconds)?;
        bench::common_end_to_end(&setup_times, &window, &mut m)?;
        wl.end_to_end(&window, &mut m);
        bench::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    } else {
        // Half the time untraced, half traced: the gap is the tracing
        // overhead; the layer figures come from the traced half.
        let plain = bench::run_window(wl.as_mut(), &untraced, args.seconds / 2.0)?;
        window = bench::run_window(wl.as_mut(), &tracer, args.seconds / 2.0)?;
        wl.layers(&tracer, &window, &mut m)?;
        m.insert(
            "trace.overhead_share".into(),
            1.0 - window.ops_per_s() / plain.ops_per_s(),
        );
        checks.attempted += plain.attempted;
        checks.failed += plain.failed;
        checks.failures.extend(plain.failures);
        m.insert("trace.spans".into(), tracer.len() as f64);
        m.insert("host.sim_threads".into(), threads as f64);
        let own = tracer.self_seconds();
        for span in bench::SPANS {
            m.insert(
                format!("self.{span}_s"),
                own.get(span).copied().unwrap_or(0.0),
            );
        }
        write_trace(args, &tracer)?;
        bench::per_layer()
    };
    let mut metrics = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        metrics.push((name.clone(), m.get(&name).copied().unwrap_or(0.0), unit));
    }
    let mut notes = wl.notes();
    notes.insert(
        0,
        format!(
            "workload {} seed {} sim_threads {threads}: {} passes, {} ops in {:.3} s; setup {:?} s",
            args.workload, args.seed, window.passes, window.ops, window.host_s, setup_times
        ),
    );
    let tail = stats::tail(&window.op_host_ms);
    notes.push(format!(
        "host_op_tail_ms is p{:.2} of {} ops",
        tail.percentile, tail.n
    ));
    checks.attempted += window.attempted;
    checks.failed += window.failed;
    checks.failures.extend(window.failures.iter().cloned());
    notes.push(format!(
        "fail_share {:.6} ({} of {} checks failed)",
        stats::fail_share(checks.failed, checks.attempted),
        checks.failed,
        checks.attempted
    ));
    for f in &checks.failures {
        notes.push(format!("FAILED: {f}"));
    }
    Ok((checks, metrics, notes))
}

/// Write the traced run's spans beside the build, inside the checkout.
fn write_trace(args: &Args, t: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, t.to_json().render())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-open|pixels|paper-grid> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((checks, metrics, notes)) => {
            for line in notes {
                println!("{line}");
            }
            for (name, value, unit) in &metrics {
                println!("  {name:<44} {value:>16.6} {unit}");
            }
            println!(
                "{}",
                bench::result_json(
                    checks.failed == 0,
                    checks.attempted.max(1),
                    checks.failed,
                    &metrics
                )
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
