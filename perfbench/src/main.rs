//! End-to-end benchmark of the CapGPU control stack.
//!
//! ```text
//! capgpu-perfbench --workload <repro_sweep|capgpud_loop|fleet_1024>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` runs the workload untraced and then traced, reports the
//! per-layer metrics from the spans and the tracing overhead. Both
//! modes check the simulated outputs (digests of traces, period
//! reports or fleet reports) across the runs they make and exit
//! nonzero when they disagree. The last stdout line is the result
//! object; the lines before it carry host facts and every other figure
//! the run measured. See `README.md` for the metric definitions.

mod daemon_loop;
mod digest;
mod fleet;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use digest::Digest;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_server_s_per_s", "sim-s/s"),
    ("period_us_p50", "us"),
    ("peak_rss_mib", "MiB"),
    ("track_err_w", "W"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload never enters reports zero.
const PER_LAYER: &[(&str, &str)] = &[
    ("runner.self_us_per_period.paper", "us"),
    ("runner.self_us_per_period.eight_gpu", "us"),
    ("runner.self_us_per_period.serving", "us"),
    ("runner.self_us_per_period.faults", "us"),
    ("runner.self_us_per_period.llm", "us"),
    ("control.solve_us.capgpu", "us"),
    ("control.solve_us.safe_fixed_step", "us"),
    ("control.solve_us.gpu_only", "us"),
    ("control.solve_us.cpu_only", "us"),
    ("control.solve_us.split", "us"),
    ("control.solve_us.fixed_step", "us"),
    ("control.solve_share", "ratio"),
    ("runner.identify_ms", "ms"),
    ("runner.clone_us", "us"),
    ("runner.build_controller_us", "us"),
    ("sweep.busy_ratio", "ratio"),
    ("sweep.cells", "count"),
    ("sweep.failed_cells", "count"),
    ("backend.advance_us", "us"),
    ("backend.actuate_us", "us"),
    ("backend.sense_us", "us"),
    ("daemon.step_self_us", "us"),
    ("telemetry.render_us", "us"),
    ("daemon.config_poll_us", "us"),
    ("obs.read_dir_ms", "ms"),
    ("obs.replay_ms", "ms"),
    ("daemon.recover_ms", "ms"),
    ("daemon.cold_identify_ms", "ms"),
    ("obs.journal_records", "count"),
    ("obs.segments_sealed", "count"),
    ("obs.segments_reaped", "count"),
    ("daemon.periods.primary", "count"),
    ("daemon.periods.fallback", "count"),
    ("daemon.periods.park", "count"),
    ("daemon.restarts", "count"),
    ("daemon.recover_failed", "count"),
    ("fleet.new_s", "s"),
    ("fleet.warm_epoch_s", "s"),
    ("fleet.server_epoch_ms", "ms"),
    ("fleet.divide_us", "us"),
    ("fleet.plan_us", "us"),
    ("fleet.server_periods", "count"),
    ("fleet.migrations", "count"),
    ("fleet.peak_pending", "count"),
    ("fleet.peak_live_traces", "count"),
    ("fleet.completed", "count"),
    ("fleet.misses", "count"),
    ("trace.overhead_pct", "%"),
    ("host.nproc", "count"),
    ("host.available_parallelism", "count"),
    ("host.tick_ns", "ns"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload measured and checked. An operation that returns an
/// error ends the run without a result, so a printed result has no
/// failed operations.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    values: BTreeMap<String, (f64, &'static str)>,
    mismatches: Vec<String>,
    digests: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Records an output-identity check between two digests.
    pub fn check(&mut self, what: &str, expect: Digest, got: Digest) {
        if expect == got {
            if !self.digests.iter().any(|d| d.starts_with(what)) {
                self.digests.push(format!("{what}: {got}"));
            }
        } else {
            self.mismatches
                .push(format!("{what}: expected {expect}, got {got}"));
        }
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (`q` in [0, 1]).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Where runs keep journals and span dumps: inside the build directory,
/// so a run writes nothing else in the checkout.
fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or(PathBuf::from(".bench_build"), PathBuf::from)
        .join("perfbench-work")
}

/// A fresh scratch directory for this process.
pub fn work_dir(tag: &str) -> Result<PathBuf, String> {
    fresh_dir(&work_root(), &format!("{tag}-{}", std::process::id()))
}

/// `root/name`, emptied and created.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes a workload's spans to `perfbench-work/spans-<workload>.jsonl`.
pub fn dump_spans(workload: &str, spans: &[Vec<trace::Span>]) -> Result<(), String> {
    let root = work_root();
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let path = root.join(format!("spans-{workload}.jsonl"));
    trace::write_jsonl(&path, spans).map_err(|e| format!("{}: {e}", path.display()))
}

/// Host facts recorded beside every run (not used to scale anything):
/// online CPUs, the parallelism this process may use, and the
/// calibration kernel — raw simulator `Server::tick_second`, ns/tick.
fn host_facts() -> (usize, usize, f64) {
    use capgpu_sim::{presets, ServerBuilder};
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .map_or(0, |s| {
            s.trim()
                .split(',')
                .map(|r| match r.split_once('-') {
                    Some((a, b)) => {
                        b.parse::<usize>().unwrap_or(0) + 1 - a.parse::<usize>().unwrap_or(0)
                    }
                    None => 1,
                })
                .sum()
        });
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut server = ServerBuilder::new(42)
        .add_device(presets::xeon_gold_5215())
        .add_device(presets::tesla_v100())
        .add_device(presets::tesla_v100())
        .build()
        .expect("calibration server");
    let utils = [0.85, 0.9, 0.7];
    const TICKS: usize = 50_000;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        for _ in 0..TICKS {
            std::hint::black_box(server.tick_second(&utils).expect("tick"));
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / TICKS as f64);
    }
    (online, avail, best)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (online, avail, tick_ns) = host_facts();
    println!(
        "host {{\"nproc\": {online}, \"available_parallelism\": {avail}, \"tick_ns\": {tick_ns:.2}}}"
    );
    let threads = avail.max(1);
    let result = match args.workload.as_str() {
        "repro_sweep" => sweep::run(&args, threads),
        "capgpud_loop" => daemon_loop::run(&args),
        "fleet_1024" => fleet::run(&args, threads),
        other => Err(format!("unknown workload {other}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    out.set("host.nproc", online as f64, "count");
    out.set("host.available_parallelism", avail as f64, "count");
    out.set("host.tick_ns", tick_ns, "ns");
    out.set("peak_rss_mib", peak_rss_mib(), "MiB");
    for d in &out.digests {
        println!("digest {d}");
    }
    for m in &out.mismatches {
        println!("MISMATCH {m}");
    }
    let reported = if args.trace { PER_LAYER } else { END_TO_END };
    let mut detail = String::new();
    for (name, (v, unit)) in &out.values {
        if !reported.iter().any(|(r, _)| r == name) {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            let _ = write!(
                detail,
                "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
                if detail.is_empty() { "" } else { ", " }
            );
        }
    }
    println!("detail {{{detail}}}");
    let mut metrics = String::new();
    for &(name, unit) in reported {
        let v = out.values.get(name).map_or(0.0, |&(v, _)| v);
        if !v.is_finite() {
            eprintln!("perfbench: {}: {name} is not finite", args.workload);
            std::process::exit(1);
        }
        let _ = write!(
            metrics,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if metrics.is_empty() { "" } else { ", " }
        );
    }
    let correct = out.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{metrics}}}}}",
        out.attempted
    );
    if !correct {
        std::process::exit(1);
    }
}
