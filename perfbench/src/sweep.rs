//! `repro_sweep`: the evaluation sweep as one closed batch through
//! `SweepSpec::run_with_threads`, over the scenario families behind the
//! committed result bins × two seeds × three set points × six
//! controllers.
//!
//! The traced run re-executes the identical grid from the runner's
//! public calls (`new` → `identify` → `clone` → `set_setpoint` →
//! `build_*` → `run`) with a timing decorator around each controller,
//! and must reproduce the untraced traces bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use capgpu::config::ScheduledChange;
use capgpu::controllers::{ControlDiagnostics, ControlInput, PowerController};
use capgpu::prelude::*;
use capgpu::sweep::{SweepCell, SweepReport};
use capgpu_control::model::LinearPowerModel;

use crate::digest::Digest;
use crate::trace;
use crate::{dump_spans, median, Args, Outcome};

const SETPOINTS: [f64; 3] = [850.0, 950.0, 1050.0];
/// Control periods per cell (the paper's standard run length).
const PERIODS: usize = 100;
/// Steady-state tail used for tracking error (the paper's last 80 %).
const STEADY_TAIL: f64 = 0.8;

/// The six controller arms: spec, metric name, span name.
fn controllers() -> [(ControllerSpec, &'static str, &'static str); 6] {
    [
        (ControllerSpec::CapGpu, "capgpu", "control.solve.capgpu"),
        (
            ControllerSpec::SafeFixedStep { multiplier: 1 },
            "safe_fixed_step",
            "control.solve.safe_fixed_step",
        ),
        (
            ControllerSpec::GpuOnly,
            "gpu_only",
            "control.solve.gpu_only",
        ),
        (
            ControllerSpec::CpuOnly,
            "cpu_only",
            "control.solve.cpu_only",
        ),
        (
            ControllerSpec::Split { gpu_share: 0.6 },
            "split",
            "control.solve.split",
        ),
        (
            ControllerSpec::FixedStep { multiplier: 1 },
            "fixed_step",
            "control.solve.fixed_step",
        ),
    ]
}

const FAMILIES: [&str; 5] = ["paper", "eight_gpu", "serving", "faults", "llm"];

/// The benchmark's grid: labelled scenarios, each tagged with the
/// family it belongs to, plus the two seeds of the seed axis.
struct Grid {
    scenarios: Vec<(String, Scenario)>,
    family: Vec<usize>,
    seeds: [u64; 2],
}

impl Grid {
    fn new(seed: u64) -> Result<Grid, String> {
        let e = |e: capgpu::CapGpuError| e.to_string();
        let mut scenarios: Vec<(String, Scenario)> = Vec::new();
        let mut family = Vec::new();
        let mut push = |f: usize, label: String, s: Scenario| {
            scenarios.push((label, s));
            family.push(f);
        };
        push(0, "paper".into(), Scenario::paper_testbed(seed));
        push(1, "eight_gpu".into(), Scenario::eight_gpu_testbed(seed));
        for scale in [0.8, 1.2] {
            let mut s = Scenario::serving_testbed(seed);
            let serving = s.serving.as_mut().ok_or("serving testbed lacks serving")?;
            for p in &mut serving.arrivals {
                *p = p.scaled(scale);
            }
            push(2, format!("serving x{scale}"), s);
        }
        let burst = Scenario::serving_testbed(seed).with_change(ScheduledChange::ServingBurst {
            at_period: 50,
            task: 0,
            factor: 2.0,
        });
        burst.validate().map_err(e)?;
        push(2, "serving burst x2".into(), burst);
        let storm =
            FaultSchedule::storm(seed, &StormConfig::default()).map_err(|x| x.to_string())?;
        let faulted = Scenario::fault_testbed(seed).with_faults(storm);
        faulted.validate().map_err(e)?;
        push(3, "storm".into(), faulted.clone());
        push(
            3,
            "storm +sup".into(),
            faulted.with_supervisor(SupervisorConfig::default()),
        );
        let llm = Scenario::llm_testbed(seed);
        llm.validate().map_err(e)?;
        push(4, "llm".into(), llm);
        Ok(Grid {
            scenarios,
            family,
            seeds: [
                seed,
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
            ],
        })
    }

    fn spec(&self) -> SweepSpec {
        let mut spec = SweepSpec::over_scenarios(self.scenarios.clone())
            .seed(self.seeds[0])
            .seed(self.seeds[1])
            .setpoints(&SETPOINTS)
            .periods(PERIODS);
        for (c, _, _) in controllers() {
            spec = spec.controller(c);
        }
        spec
    }

    /// The scenario of a cell's `(scenario, seed)` class, seed applied
    /// (the sweep's own class rule).
    fn class_scenario(&self, cell: &SweepCell) -> Scenario {
        let mut s = self.scenarios[cell.scenario_index].1.clone();
        s.seed = cell.seed;
        s
    }

    fn class_of(&self, cell: &SweepCell) -> usize {
        cell.scenario_index * self.seeds.len() + cell.seed_index
    }

    fn server_seconds(&self, cells: usize) -> f64 {
        let t = self.scenarios[0].1.control_period_s as f64;
        (cells * PERIODS) as f64 * t
    }
}

/// Times every `control` call and forwards every other method,
/// including the defaulted ones, so the run is unchanged.
struct TimedController<C> {
    inner: C,
    span: &'static str,
    cell: u64,
}

impl<C: PowerController> PowerController for TimedController<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn control(&mut self, input: &ControlInput<'_>) -> capgpu::Result<Vec<f64>> {
        let inner = &mut self.inner;
        trace::span(self.span, self.cell, || inner.control(input))
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn uses_delta_sigma(&self) -> bool {
        self.inner.uses_delta_sigma()
    }

    fn set_power_model(&mut self, model: &LinearPowerModel) -> capgpu::Result<()> {
        self.inner.set_power_model(model)
    }

    fn diagnostics(&self) -> Option<ControlDiagnostics> {
        self.inner.diagnostics()
    }
}

const RUN_SPANS: [&str; 5] = [
    "runner.run.paper",
    "runner.run.eight_gpu",
    "runner.run.serving",
    "runner.run.faults",
    "runner.run.llm",
];

fn build(
    spec: &ControllerSpec,
    r: &mut ExperimentRunner,
) -> capgpu::Result<Box<dyn PowerController>> {
    Ok(match spec {
        ControllerSpec::CapGpu => Box::new(r.build_capgpu_controller()?),
        ControllerSpec::SafeFixedStep { multiplier } => {
            Box::new(r.build_safe_fixed_step(*multiplier)?)
        }
        ControllerSpec::GpuOnly => Box::new(r.build_gpu_only()?),
        ControllerSpec::CpuOnly => Box::new(r.build_cpu_only()?),
        ControllerSpec::Split { gpu_share } => Box::new(r.build_split(*gpu_share)?),
        ControllerSpec::FixedStep { multiplier } => Box::new(r.build_fixed_step(*multiplier)),
        other => panic!("controller {other:?} is not on the benchmark grid"),
    })
}

/// One traced pass: the sweep's two phases (identification per class,
/// then cells) on `threads` workers, each call wrapped in a span.
fn traced_pass(grid: &Grid, threads: usize) -> Result<Vec<RunTrace>, String> {
    let cells = grid.spec().expand();
    let arms = controllers();
    let n_classes = grid.scenarios.len() * grid.seeds.len();
    let identified: Vec<Mutex<Option<ExperimentRunner>>> =
        (0..n_classes).map(|_| Mutex::new(None)).collect();
    let slots: Vec<Mutex<Option<RunTrace>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    let error: Mutex<Option<String>> = Mutex::new(None);
    let fail = |e: String| {
        error.lock().expect("error lock").get_or_insert(e);
    };
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                trace::set_enabled(true);
                loop {
                    let class = next.fetch_add(1, Ordering::Relaxed);
                    if class >= n_classes {
                        break;
                    }
                    // Any cell of the class gives its scenario.
                    let cell = cells
                        .iter()
                        .find(|c| grid.class_of(c) == class)
                        .expect("every class has cells");
                    let scenario = grid.class_scenario(cell);
                    let res = trace::span("runner.identify", class as u64, || {
                        let mut r = ExperimentRunner::new(scenario, SETPOINTS[0])?;
                        r.identify()?;
                        Ok::<_, capgpu::CapGpuError>(r)
                    });
                    match res {
                        Ok(r) => *identified[class].lock().expect("class lock") = Some(r),
                        Err(e) => fail(e.to_string()),
                    }
                }
                trace::collect_thread();
            });
        }
    });
    if let Some(e) = error.lock().expect("error lock").take() {
        return Err(e);
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                trace::set_enabled(true);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells.len() {
                        break;
                    }
                    let cell = &cells[i];
                    let (spec, _, solve) = &arms[cell.controller_index];
                    let fam = grid.family[cell.scenario_index];
                    let res = trace::span("sweep.cell", i as u64, || {
                        let mut runner = if matches!(spec, ControllerSpec::FixedStep { .. }) {
                            ExperimentRunner::new(grid.class_scenario(cell), cell.setpoint)?
                        } else {
                            trace::span("runner.clone", i as u64, || {
                                let base =
                                    identified[grid.class_of(cell)].lock().expect("class lock");
                                let mut r = base.as_ref().expect("class identified").clone();
                                r.set_setpoint(cell.setpoint);
                                r
                            })
                        };
                        let controller = trace::span("runner.build_controller", i as u64, || {
                            build(spec, &mut runner)
                        })?;
                        let timed = TimedController {
                            inner: controller,
                            span: solve,
                            cell: i as u64,
                        };
                        trace::span(RUN_SPANS[fam], i as u64, || runner.run(timed, PERIODS))
                    });
                    match res {
                        Ok(t) => *slots[i].lock().expect("slot lock") = Some(t),
                        Err(e) => fail(e.to_string()),
                    }
                }
                trace::collect_thread();
            });
        }
    });
    if let Some(e) = error.lock().expect("error lock").take() {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock").expect("cell ran"))
        .collect())
}

fn digest_traces<'a>(traces: impl Iterator<Item = &'a RunTrace>) -> Digest {
    let mut d = Digest::default();
    for t in traces {
        d.add(t);
    }
    d
}

fn report_digest(r: &SweepReport) -> Digest {
    digest_traces(r.cells.iter().map(|c| c.trace()))
}

/// Simulated-quality figures of one pass (deterministic per seed).
struct Quality {
    track_err_w: f64,
    overshoot_ws_per_h: f64,
    slo_miss_ratio: f64,
}

fn quality(grid: &Grid, report: &SweepReport) -> Quality {
    let t = grid.scenarios[0].1.control_period_s as f64;
    let (mut err_sum, mut err_n) = (0.0, 0usize);
    let (mut over_ws, mut sim_s) = (0.0, 0.0);
    let (mut miss_sum, mut miss_n) = (0.0, 0usize);
    for c in &report.cells {
        let tr = c.trace();
        let fam = FAMILIES[grid.family[c.cell.scenario_index]];
        if c.cell.controller_index == 0 {
            let keep = ((tr.records.len() as f64) * STEADY_TAIL).round() as usize;
            for r in &tr.records[tr.records.len() - keep..] {
                err_sum += (r.avg_power - r.setpoint).abs();
                err_n += 1;
            }
        }
        for r in &tr.records {
            over_ws += (r.avg_power - r.setpoint).max(0.0) * t;
            sim_s += t;
        }
        let rates = match fam {
            "serving" => &tr.miss_rates,
            "llm" => &tr.ttft_miss_rates,
            _ => continue,
        };
        miss_sum += rates.iter().sum::<f64>() / rates.len().max(1) as f64;
        miss_n += 1;
    }
    Quality {
        track_err_w: err_sum / err_n.max(1) as f64,
        overshoot_ws_per_h: over_ws / (sim_s / 3600.0),
        slo_miss_ratio: miss_sum / miss_n.max(1) as f64,
    }
}

/// Builds the grid and its spec: the sweep's set-up (identification is
/// shared per class inside each pass, so it belongs to the pass).
fn set_up(seed: u64, setup: &mut Vec<f64>) -> Result<(Grid, SweepSpec), String> {
    let t0 = Instant::now();
    let grid = Grid::new(seed)?;
    let spec = grid.spec();
    setup.push(t0.elapsed().as_secs_f64());
    Ok((grid, spec))
}

pub fn run(args: &Args, threads: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    // Warm-up pass: reported, excluded from the timed figures.
    let (grid, spec) = set_up(args.seed, &mut setup)?;
    let n_cells = spec.num_cells();
    let per_period = |wall: f64| wall * 1e6 * threads as f64 / (n_cells * PERIODS) as f64;
    let t0 = Instant::now();
    let first = spec.run_with_threads(threads).map_err(|e| e.to_string())?;
    out.set(
        "sweep.warmup_us_per_period",
        per_period(t0.elapsed().as_secs_f64()),
        "us",
    );
    out.attempted += n_cells as u64;
    let expect = report_digest(&first);
    let q = quality(&grid, &first);
    drop(first);

    // Timed passes, each set up afresh, so set-up samples spread over
    // the whole run.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < 2 || start.elapsed().as_secs_f64() < budget {
        let (_, spec) = set_up(args.seed, &mut setup)?;
        let t0 = Instant::now();
        let report = spec.run_with_threads(threads).map_err(|e| e.to_string())?;
        walls.push(t0.elapsed().as_secs_f64());
        out.attempted += n_cells as u64;
        out.check("rerun at nproc threads", expect, report_digest(&report));
    }
    let wall = median(&walls);
    out.set("setup_s", median(&setup), "s");
    out.set(
        "sim_server_s_per_s",
        grid.server_seconds(n_cells) / wall,
        "sim-s/s",
    );
    out.set("period_us_p50", per_period(wall), "us");
    out.set("track_err_w", q.track_err_w, "W");
    out.set("overshoot_ws_per_h", q.overshoot_ws_per_h, "W.s/h");
    out.set("slo_miss_ratio", q.slo_miss_ratio, "ratio");
    out.set("sweep.passes", walls.len() as f64, "count");
    out.set("sweep.cells_per_pass", n_cells as f64, "count");

    if !args.trace {
        let serial = spec.run_with_threads(1).map_err(|e| e.to_string())?;
        out.attempted += n_cells as u64;
        out.check("1 thread vs nproc threads", expect, report_digest(&serial));
        return Ok(out);
    }

    // Traced passes: the same grid from the runner's public calls.
    let mut traced_walls = Vec::new();
    let mut totals = trace::Summary::new();
    let mut last_spans = Vec::new();
    let start = Instant::now();
    while traced_walls.len() < 2 || start.elapsed().as_secs_f64() < budget {
        let t0 = Instant::now();
        let traces = traced_pass(&grid, threads)?;
        traced_walls.push(t0.elapsed().as_secs_f64());
        last_spans = trace::take();
        trace::fold(&mut totals, &last_spans);
        out.attempted += n_cells as u64;
        out.check("traced vs untraced", expect, digest_traces(traces.iter()));
    }
    let traced_wall: f64 = traced_walls.iter().sum();
    let passes = traced_walls.len() as f64;
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mut families_periods = [0usize; 5];
    for c in &spec.expand() {
        families_periods[grid.family[c.scenario_index]] += PERIODS;
    }
    for (f, fam) in FAMILIES.iter().enumerate() {
        let t = get(RUN_SPANS[f]);
        let periods = families_periods[f] as f64 * passes;
        out.set(
            &format!("runner.self_us_per_period.{fam}"),
            t.self_ns as f64 / 1e3 / periods,
            "us",
        );
    }
    let mut solve_ns = 0u64;
    for (_, arm, solve) in controllers() {
        let t = get(solve);
        solve_ns += t.total_ns;
        out.set(&format!("control.solve_us.{arm}"), t.mean(1e3), "us");
    }
    let run_ns: u64 = RUN_SPANS.iter().map(|s| get(s).total_ns).sum();
    out.set(
        "control.solve_share",
        solve_ns as f64 / run_ns.max(1) as f64,
        "ratio",
    );
    out.set("runner.identify_ms", get("runner.identify").mean(1e6), "ms");
    out.set("runner.clone_us", get("runner.clone").mean(1e3), "us");
    out.set(
        "runner.build_controller_us",
        get("runner.build_controller").mean(1e3),
        "us",
    );
    let busy_ns = get("sweep.cell").total_ns + get("runner.identify").total_ns;
    out.set(
        "sweep.busy_ratio",
        busy_ns as f64 / 1e9 / (threads as f64 * traced_wall),
        "ratio",
    );
    out.set("sweep.cells", n_cells as f64, "count");
    out.set("sweep.failed_cells", 0.0, "count");
    out.set(
        "trace.overhead_pct",
        100.0 * (median(&traced_walls) / wall - 1.0),
        "%",
    );
    dump_spans("repro_sweep", &last_spans)?;
    Ok(out)
}
