//! The experiment runner: closes the control loop over the simulated
//! testbed and workloads, exactly mirroring the paper's §5 implementation.
//!
//! Timing structure (paper §6.1): the power meter samples at 1 Hz; the
//! control period is `T = 4` s, so the controller acts on the average of
//! the last 4 samples. Within each second the per-device delta-sigma
//! modulators resolve the controller's fractional frequency targets into
//! discrete supported clocks (§5 "Frequency Modulators").

use capgpu_backend::{PowerBackend, SimBackend};
use capgpu_control::latency::LatencyModel;
use capgpu_control::model::LinearPowerModel;
use capgpu_control::modulator::DeltaSigmaModulator;
use capgpu_control::sysid::{IdentifiedModel, ScaledModelTracker};
use capgpu_llm::LlmEngine;
use capgpu_serve::{ArrivalGen, ServeEngine, ServeWindowStats, ServiceModel};
use capgpu_sim::{DeviceKind, Server, ServerBuilder};
use capgpu_workload::featsel::FeatselRateModel;
use capgpu_workload::models::ModelProfile;
use capgpu_workload::monitor::{normalized_throughputs, ThroughputMonitor};
use capgpu_workload::pipeline::{ArrivalMode, PipelineConfig, PipelineSim, WindowStats};
use capgpu_workload::slo::SloTracker;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{Scenario, ScheduledChange};
use crate::control_loop::{self, period_average, RefitPush, Supervision};
use crate::controllers::{
    sized_safe_fixed_step, CapGpuController, ControlInput, CpuGpuSplitController, DeviceLayout,
    FixedStepController, PowerController, SafeFixedStepController, SharedClockController,
};
use crate::supervisor::SupervisorTier;
use crate::telemetry::{PeriodObservation, Phase, RunTelemetry, TelemetryReport};
use crate::weights::{PhaseMix, WeightAssigner};
use crate::{CapGpuError, Result};

/// One control period's worth of observations.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodRecord {
    /// Period index (0-based).
    pub period: usize,
    /// Set point in force during the period (W).
    pub setpoint: f64,
    /// Meter average over the period (W).
    pub avg_power: f64,
    /// Fractional frequency targets commanded at the period's end (MHz).
    pub targets: Vec<f64>,
    /// Mean applied (discrete) frequency per device over the period (MHz).
    pub applied_mean: Vec<f64>,
    /// Per-GPU-task throughput over the period (images/s).
    pub gpu_throughput: Vec<f64>,
    /// CPU throughput over the period (feature subsets/s).
    pub cpu_throughput: f64,
    /// Mean batch inference latency per GPU task (s; 0 if no batch done).
    pub gpu_mean_latency: Vec<f64>,
    /// SLO in force per GPU task (None = unconstrained).
    pub slo: Vec<Option<f64>>,
    /// SLO misses recorded this period per GPU task.
    pub slo_misses: Vec<usize>,
    /// Batches completed this period per GPU task.
    pub batches: Vec<usize>,
    /// SLO-derived frequency floors passed to the controller (MHz).
    pub floors: Vec<f64>,
    /// Whether the memory-throttle escape hatch was engaged this period.
    pub memory_escape_active: bool,
    /// Supervisory ladder tier in force when the period's control
    /// decision was made (0 = primary, 1 = safe fallback, 2 = park;
    /// always 0 when the scenario has no supervisor).
    pub supervisor_tier: u8,
    /// Whether the meter produced *no* fresh sample this period, so
    /// `avg_power` is the held-over previous measurement rather than a
    /// fresh average.
    pub meter_stale: bool,
    /// Wall time of the period's control solve (ns). Always 0 unless
    /// the scenario enables telemetry with
    /// [`capgpu_telemetry::TelemetryConfig::trace_spans`] — wall clocks
    /// are non-deterministic, so the default keeps traces bit-stable.
    pub solve_ns: u64,
    /// Wall time of the period's actuation loop (ns). Gated exactly
    /// like [`PeriodRecord::solve_ns`].
    pub actuate_ns: u64,
}

/// A full run's trace plus end-of-run aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// Name of the controller that produced the trace.
    pub controller: String,
    /// Per-period records.
    pub records: Vec<PeriodRecord>,
    /// Final per-task deadline miss rates.
    pub miss_rates: Vec<f64>,
    /// Final per-task 99th-percentile latency (s): per-request
    /// end-to-end latency when the serving layer is enabled, per-batch
    /// inference latency otherwise; 0 where nothing was recorded.
    pub p99_latency_s: Vec<f64>,
    /// Per-task p99 time-to-first-token (s). Empty unless the
    /// scenario's LLM serving layer is enabled.
    pub ttft_p99_s: Vec<f64>,
    /// Per-task p99 inter-token latency (s). Empty unless the LLM
    /// serving layer is enabled.
    pub itl_p99_s: Vec<f64>,
    /// Per-task TTFT-SLO miss rates. Empty unless the LLM serving
    /// layer is enabled.
    pub ttft_miss_rates: Vec<f64>,
    /// Per-task inter-token-SLO miss rates. Empty unless the LLM
    /// serving layer is enabled.
    pub itl_miss_rates: Vec<f64>,
}

impl RunTrace {
    /// The power series (one entry per period).
    pub fn power_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.avg_power).collect()
    }

    /// Steady-state mean/std of power over the trailing fraction
    /// (paper: last 80 of 100 periods → `tail_fraction = 0.8`).
    pub fn steady_state_power(&self, tail_fraction: f64) -> (f64, f64) {
        capgpu_control::metrics::steady_state(&self.power_series(), tail_fraction)
    }

    /// Number of periods in which power exceeded the in-force set point by
    /// more than `tol` watts.
    pub fn violations(&self, tol: f64) -> usize {
        self.records
            .iter()
            .filter(|r| r.avg_power > r.setpoint + tol)
            .count()
    }

    /// Mean GPU throughput per task over the trailing fraction.
    pub fn steady_gpu_throughput(&self, tail_fraction: f64) -> Vec<f64> {
        let n_tasks = self
            .records
            .first()
            .map(|r| r.gpu_throughput.len())
            .unwrap_or(0);
        (0..n_tasks)
            .map(|t| {
                let series: Vec<f64> = self.records.iter().map(|r| r.gpu_throughput[t]).collect();
                capgpu_control::metrics::steady_state(&series, tail_fraction).0
            })
            .collect()
    }

    /// Mean CPU throughput over the trailing fraction (subsets/s).
    pub fn steady_cpu_throughput(&self, tail_fraction: f64) -> f64 {
        let series: Vec<f64> = self.records.iter().map(|r| r.cpu_throughput).collect();
        capgpu_control::metrics::steady_state(&series, tail_fraction).0
    }

    /// Mean batch latency per task over the trailing fraction, ignoring
    /// periods with no completed batch.
    pub fn steady_gpu_latency(&self, tail_fraction: f64) -> Vec<f64> {
        let n_tasks = self
            .records
            .first()
            .map(|r| r.gpu_mean_latency.len())
            .unwrap_or(0);
        // Clamp the same way as `metrics::steady_state`: out-of-range
        // fractions degrade gracefully (<= 0 keeps exactly the last
        // record, >= 1 keeps the whole trace) and an empty trace yields
        // empty means rather than an index underflow.
        let keep = if self.records.is_empty() {
            0
        } else {
            (((self.records.len() as f64) * tail_fraction.clamp(0.0, 1.0)).round() as usize)
                .clamp(1, self.records.len())
        };
        let skip = self.records.len().saturating_sub(keep);
        (0..n_tasks)
            .map(|t| {
                let vals: Vec<f64> = self.records[skip.min(self.records.len())..]
                    .iter()
                    .filter(|r| r.batches[t] > 0)
                    .map(|r| r.gpu_mean_latency[t])
                    .collect();
                capgpu_linalg::stats::mean(&vals)
            })
            .collect()
    }
}

/// The runner.
///
/// `Clone` snapshots the complete closed-loop state — server, task
/// plants, monitors, RNGs and the cached identified model. Because every
/// stochastic component is seeded, a clone replays the exact same
/// trajectory as its original: the sweep engine identifies once per
/// (scenario, seed) class and clones the post-identification runner for
/// each cell, which is bit-identical to each cell identifying on its own.
#[derive(Debug, Clone)]
pub struct ExperimentRunner {
    scenario: Scenario,
    /// The sense/actuate seam: the control loop reads power, clocks and
    /// staleness through the [`PowerBackend`] surface of this backend
    /// and commands frequencies back through it. Sim-only plant access
    /// (fault injection, thermal state, workload coupling) goes through
    /// [`SimBackend::server`] / [`SimBackend::server_mut`].
    backend: SimBackend,
    /// The workload side of the plant: one [`GpuTask`] per GPU plus the
    /// latency trackers, advanced one second at a time beside the
    /// backend.
    workload: Workload,
    layout: DeviceLayout,
    featsel: FeatselRateModel,
    monitors: Vec<ThroughputMonitor>,
    latency_models: Vec<LatencyModel>,
    modulators: Vec<DeltaSigmaModulator>,
    setpoint: f64,
    slos: Vec<Option<f64>>,
    targets: Vec<f64>,
    rng: StdRng,
    identified: Option<IdentifiedModel>,
    /// Streaming restricted re-identifier (gain scale + offset) for
    /// continuous model tracking; populated only when the scenario
    /// enables `rls_tracking` (anchored to the startup identification by
    /// [`ExperimentRunner::identify`]).
    tracker: Option<ScaledModelTracker>,
    /// Whether the §4.4 memory-throttle escape is currently engaged.
    mem_escape_active: bool,
    /// Run telemetry (registry + journal + spans); `None` — recording
    /// nothing and touching nothing — unless the scenario opts in.
    telemetry: Option<RunTelemetry>,
}

/// What serves one GPU task's requests.
#[derive(Debug, Clone)]
enum TaskPlant {
    /// The paper's period-level pipeline model: preprocessing workers
    /// feed a batched inference queue.
    Pipeline(PipelineSim),
    /// The request-level serving engine (`capgpu-serve`): busy fraction
    /// drives utilization, per-request completions drive the SLO
    /// tracker.
    Serve(ServeEngine),
    /// The two-phase LLM engine (`capgpu-llm`): prefill busy time counts
    /// at `prefill_util`, memory-bound decode at `decode_util` — why
    /// capping a decode-bound device recovers so little power.
    Llm {
        engine: Box<LlmEngine>,
        prefill_util: f64,
        decode_util: f64,
    },
}

impl TaskPlant {
    /// Scales a serving plant's request arrival intensity relative to
    /// its nominal rate.
    fn set_intensity_scale(&mut self, scale: f64) -> Result<()> {
        match self {
            TaskPlant::Pipeline(_) => Err(CapGpuError::BadConfig(
                "serving intensity scale without the serving layer".into(),
            )),
            TaskPlant::Serve(engine) => Ok(engine.set_intensity_scale(scale)?),
            TaskPlant::Llm { engine, .. } => Ok(engine.set_intensity_scale(scale)?),
        }
    }
}

/// One GPU task: the device it runs on, its model, its plant and the
/// aggregates of the control period being simulated.
#[derive(Debug, Clone)]
struct GpuTask {
    device: usize,
    model: ModelProfile,
    plant: TaskPlant,
    period: TaskPeriodStats,
}

impl GpuTask {
    /// The period's throughput signal: tokens/s under LLM serving
    /// (decode emits tokens continuously even when whole-request
    /// completions are lumpy), completions/s otherwise.
    fn throughput(&self, seconds: f64) -> f64 {
        match self.plant {
            TaskPlant::Llm { .. } => self.period.tokens as f64 / seconds,
            _ => self.period.completed as f64 / seconds,
        }
    }

    /// Mean recorded latency over the period (per batch for pipelines,
    /// per request for serving plants); 0 when nothing was recorded.
    fn mean_latency(&self) -> f64 {
        let p = &self.period;
        if p.latencies > 0 {
            p.latency_sum / p.latencies as f64
        } else {
            0.0
        }
    }

    /// The period's phase mix (LLM tasks only): busy-time prefill share,
    /// end-of-period KV occupancy and token rate.
    fn phase_mix(&self, seconds: f64) -> Option<PhaseMix> {
        let TaskPlant::Llm { .. } = self.plant else {
            return None;
        };
        let p = &self.period;
        let busy = p.prefill_busy_s + p.decode_busy_s;
        Some(PhaseMix {
            prefill_share: if busy > 0.0 {
                (p.prefill_busy_s / busy).clamp(0.0, 1.0)
            } else {
                1.0
            },
            kv_occupancy: p.kv_occupancy_end,
            tokens_per_s: p.tokens as f64 / seconds,
        })
    }
}

/// The workload side of the simulated plant, advanced one second at a
/// time by [`Workload::second`].
#[derive(Debug, Clone)]
struct Workload {
    tasks: Vec<GpuTask>,
    /// Index of the (single) CPU package device.
    cpu_device: usize,
    /// Preprocessing workers per task.
    workers: usize,
    slo_tracker: SloTracker,
    /// Measured time-to-first-token tracker (LLM mode only; a one-task
    /// placeholder otherwise).
    ttft_tracker: SloTracker,
    /// Measured inter-token-latency tracker (LLM mode only).
    itl_tracker: SloTracker,
    /// Recycled per-window pipeline statistics (hot-path scratch).
    window: WindowStats,
    /// Recycled per-window serving statistics (hot-path scratch, shared
    /// by the one-shot and LLM serving plants).
    serve_window: ServeWindowStats,
    /// Per-device utilizations staged for the current second.
    utils: Vec<f64>,
}

impl Workload {
    /// Whether the tasks are served by the two-phase LLM engine.
    fn is_llm(&self) -> bool {
        matches!(self.tasks[0].plant, TaskPlant::Llm { .. })
    }

    /// SLO misses recorded so far for task `i`.
    fn slo_misses(&self, i: usize) -> usize {
        (self.slo_tracker.miss_rate(i) * self.slo_tracker.latencies(i).len() as f64).round()
            as usize
    }

    /// Advances one simulated second at the given applied frequencies
    /// and returns the meter sample, if the meter produced one: steps
    /// every task's plant, records latencies and period aggregates,
    /// stages the resulting utilizations and ticks the server. With
    /// `queue_delays` the pipelines' per-image queue delays are
    /// collected per task (serving plants fold them into request
    /// latencies).
    ///
    /// All per-second state lives in recycled buffers (`utils`,
    /// `window`, `serve_window`): this function performs no heap
    /// allocation.
    fn second(
        &mut self,
        backend: &mut SimBackend,
        applied: &[f64],
        mut telemetry: Option<&mut RunTelemetry>,
        mut queue_delays: Option<&mut Vec<Vec<f64>>>,
    ) -> Result<Option<f64>> {
        let f_cpu = applied[self.cpu_device];
        self.utils.iter_mut().for_each(|u| *u = 0.0);
        let serving = !matches!(self.tasks[0].plant, TaskPlant::Pipeline(_));
        if serving {
            if let Some(tm) = telemetry.as_deref_mut() {
                tm.span_enter(Phase::ServeDrain);
            }
        }
        let mut worker_util_sum = 0.0;
        for (i, task) in self.tasks.iter_mut().enumerate() {
            let dev = task.device;
            // An ejected device does no work and draws no power; its
            // plant is frozen until re-admission.
            if backend.is_ejected(dev) {
                continue;
            }
            // An engaged memory throttle slows inference: model it as
            // an effective core-clock derating in the latency law.
            let f_eff = match (
                backend.server().device(dev)?.mem_throttle,
                backend.server().memory_throttled(dev)?,
            ) {
                (Some(mt), true) => applied[dev] / mt.latency_penalty,
                _ => applied[dev],
            };
            // Serving plants' preprocessing (or tokenization) tracks the
            // admitted request stream: each admitted request costs one
            // worker `preprocess_time`.
            let workers = self.workers.max(1) as f64;
            let preprocess = |s: &ServeWindowStats| {
                ((s.arrivals - s.dropped) as f64 * task.model.preprocess_time(f_cpu) / workers)
                    .clamp(0.0, 1.0)
            };
            let p = &mut task.period;
            let (gpu_util, worker_util, latencies) = match &mut task.plant {
                TaskPlant::Pipeline(pipe) => {
                    let st = &mut self.window;
                    pipe.advance_into(1.0, f_cpu, f_eff, st);
                    if let Some(qd) = queue_delays.as_deref_mut() {
                        qd[i].extend_from_slice(&st.queue_delays);
                    }
                    p.completed += st.images_completed;
                    p.batches += st.batch_latencies.len();
                    (st.gpu_util, st.cpu_worker_util, &st.batch_latencies)
                }
                TaskPlant::Serve(engine) => {
                    let st = &mut self.serve_window;
                    engine.advance_into(1.0, f_eff, st);
                    if let Some(tm) = telemetry.as_deref_mut() {
                        tm.on_serve_second(i, st, engine.queue_len());
                    }
                    p.completed += st.completions;
                    p.batches += st.batches;
                    let util = st.busy_fraction * task.model.gpu_util_busy;
                    (util.clamp(0.0, 1.0), preprocess(st), &st.request_latencies)
                }
                TaskPlant::Llm {
                    engine,
                    prefill_util,
                    decode_util,
                } => {
                    let st = &mut self.serve_window;
                    engine.advance_into(1.0, f_eff, st);
                    if let Some(tm) = telemetry.as_deref_mut() {
                        tm.on_serve_second(i, st, engine.queue_len());
                        tm.on_llm_second(i, st);
                    }
                    for t in &st.ttft_s {
                        self.ttft_tracker.record(i, *t);
                    }
                    for t in &st.inter_token_s {
                        self.itl_tracker.record(i, *t);
                    }
                    p.completed += st.completions;
                    p.batches += st.batches;
                    p.prefill_busy_s += st.prefill_busy_s;
                    p.decode_busy_s += st.decode_busy_s;
                    p.kv_occupancy_end = st.kv_occupancy();
                    p.tokens += (st.prefill_tokens + st.decode_tokens) as u64;
                    let util = st.prefill_busy_s * *prefill_util + st.decode_busy_s * *decode_util;
                    (util.clamp(0.0, 1.0), preprocess(st), &st.request_latencies)
                }
            };
            self.utils[dev] = gpu_util;
            worker_util_sum += worker_util;
            for lat in latencies {
                self.slo_tracker.record(i, *lat);
            }
            p.latency_sum += latencies.iter().sum::<f64>();
            p.latencies += latencies.len();
        }
        if serving {
            if let Some(tm) = telemetry {
                tm.span_exit();
            }
        }
        // CPU package utilization: the feature-selection job keeps the
        // remaining cores busy (~0.85) and preprocessing adds the rest.
        let worker_share = worker_util_sum / self.tasks.len().max(1) as f64;
        self.utils[self.cpu_device] = (0.85 + 0.1 * worker_share).clamp(0.0, 1.0);
        // One second of plant time through the sense/actuate seam: the
        // simulator consumes the staged utilizations (real hardware
        // measures its own load) and hands back the meter sample.
        backend.stage_utilizations(&self.utils)?;
        Ok(backend.advance(1.0)?)
    }
}

impl ExperimentRunner {
    /// Builds a runner from a scenario and the initial power set point.
    ///
    /// # Errors
    /// Propagates scenario validation and component construction errors.
    pub fn new(scenario: Scenario, initial_setpoint: f64) -> Result<Self> {
        scenario.validate()?;
        let mut builder = ServerBuilder::new(scenario.seed).platform_watts(scenario.platform_watts);
        for d in &scenario.devices {
            builder = builder.add_device(d.clone());
        }
        let server = builder.build()?;
        let layout = DeviceLayout::new(
            scenario.devices.iter().map(|d| d.kind).collect(),
            server.f_min().to_vec(),
            server.f_max().to_vec(),
        )?;
        let mut tasks = Vec::with_capacity(scenario.gpu_models.len());
        for (i, (model, &device)) in scenario
            .gpu_models
            .iter()
            .zip(server.gpu_indices())
            .enumerate()
        {
            let f_max_mhz = scenario.devices[device].freq_table.max();
            let plant = if let Some(cfg) = &scenario.llm {
                TaskPlant::Llm {
                    engine: Box::new(LlmEngine::new(
                        cfg.model,
                        cfg.tasks[i].clone(),
                        cfg.queue_capacity,
                        scenario.seed.wrapping_add(3000 + i as u64),
                    )?),
                    prefill_util: cfg.model.gpu_util_prefill,
                    decode_util: cfg.model.gpu_util_decode,
                }
            } else if let Some(cfg) = &scenario.serving {
                let service = ServiceModel {
                    e_min_s: model.e_min_s,
                    // The plant serves at the model's *true* γ; the
                    // controller still plans with the fitted one.
                    gamma: model.gamma_true,
                    f_max_mhz,
                    max_batch: model.batch_size,
                    batch_overhead: cfg.batch_overhead,
                };
                let arrivals = ArrivalGen::new(
                    cfg.arrivals[i].clone(),
                    scenario.seed.wrapping_add(2000 + i as u64),
                )?;
                TaskPlant::Serve(ServeEngine::new(
                    service,
                    cfg.batch_timeout_s,
                    cfg.queue_capacity,
                    arrivals,
                )?)
            } else {
                TaskPlant::Pipeline(PipelineSim::new(PipelineConfig {
                    model: model.clone(),
                    num_workers: scenario.workers_per_pipeline,
                    queue_capacity: scenario.queue_capacity,
                    seed: scenario.seed.wrapping_add(1000 + i as u64),
                    f_gpu_max_mhz: f_max_mhz,
                    arrivals: match &scenario.arrival_rates {
                        Some(rates) => ArrivalMode::Open {
                            rate_img_s: rates[i],
                        },
                        None => ArrivalMode::Closed,
                    },
                })?)
            };
            tasks.push(GpuTask {
                device,
                model: model.clone(),
                plant,
                period: TaskPeriodStats::default(),
            });
        }
        let featsel =
            FeatselRateModel::new(scenario.featsel_ref_rate, scenario.featsel_ref_mhz, 0.05)?;
        let monitors = (0..layout.len())
            .map(|_| ThroughputMonitor::new(0.5))
            .collect();
        let latency_models = tasks
            .iter()
            .map(|t| {
                LatencyModel::new(
                    t.model.e_min_s,
                    scenario.gamma_fitted,
                    scenario.devices[t.device].freq_table.max(),
                )
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let modulators = scenario
            .devices
            .iter()
            .map(|d| DeltaSigmaModulator::new(d.freq_table.levels().to_vec()))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        // SLO tracker: a placeholder huge SLO where None. TTFT /
        // inter-token trackers carry real SLOs only in LLM mode;
        // otherwise a one-task placeholder (the tracker requires >= 1
        // task) that is never recorded into.
        let placeholder = f64::MAX / 2.0;
        let slo_tracker = SloTracker::new(
            scenario
                .slos
                .iter()
                .map(|s| s.unwrap_or(placeholder))
                .collect(),
        );
        let (ttft_slos, itl_slos): (Vec<f64>, Vec<f64>) = match &scenario.llm {
            Some(cfg) => cfg
                .tasks
                .iter()
                .map(|t| (t.ttft_slo_s, t.itl_slo_s))
                .unzip(),
            None => (vec![placeholder], vec![placeholder]),
        };
        let workload = Workload {
            cpu_device: server.cpu_indices()[0],
            workers: scenario.workers_per_pipeline,
            slo_tracker,
            ttft_tracker: SloTracker::new(ttft_slos),
            itl_tracker: SloTracker::new(itl_slos),
            window: WindowStats::default(),
            serve_window: ServeWindowStats::default(),
            utils: vec![0.0; layout.len()],
            tasks,
        };
        let telemetry = scenario.telemetry.map(|cfg| {
            RunTelemetry::new(cfg, &layout.kinds, workload.tasks.len(), workload.is_llm())
        });
        Ok(ExperimentRunner {
            targets: server.f_min().to_vec(),
            rng: StdRng::seed_from_u64(scenario.seed.wrapping_mul(0x9E37_79B9)),
            slos: scenario.slos.clone(),
            backend: SimBackend::new(server),
            telemetry,
            workload,
            mem_escape_active: false,
            scenario,
            layout,
            featsel,
            monitors,
            latency_models,
            modulators,
            setpoint: initial_setpoint,
            identified: None,
            tracker: None,
        })
    }

    /// The device layout.
    pub fn layout(&self) -> &DeviceLayout {
        &self.layout
    }

    /// The current power set point.
    pub fn setpoint(&self) -> f64 {
        self.setpoint
    }

    /// Changes the power set point (used by rack-level coordinators that
    /// re-divide a shared budget between servers at runtime).
    pub fn set_setpoint(&mut self, watts: f64) {
        self.setpoint = watts;
    }

    /// Direct access to the simulated server (tests, oracles).
    pub fn server(&self) -> &Server {
        self.backend.server()
    }

    /// The sense/actuate backend the control loop runs against.
    pub fn backend(&self) -> &SimBackend {
        &self.backend
    }

    /// Scales every serving task's request arrival intensity relative to
    /// its *nominal* (scenario-configured) rate — the hook fleet-level
    /// load balancers use to migrate request streams between servers at
    /// allocator-epoch boundaries: the stream's share of intensity leaves
    /// one server's engines and arrives at another's. Takes effect from
    /// the next drawn arrival; absolute, not cumulative (setting 1.0
    /// always restores the nominal rates).
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] when the scenario has no serving layer
    /// or the scale is not positive and finite.
    pub fn set_serving_intensity_scale(&mut self, scale: f64) -> Result<()> {
        for task in &mut self.workload.tasks {
            task.plant.set_intensity_scale(scale)?;
        }
        Ok(())
    }

    /// The run's telemetry instruments, when the scenario enables them.
    pub fn telemetry(&self) -> Option<&RunTelemetry> {
        self.telemetry.as_ref()
    }

    /// A frozen [`TelemetryReport`] of everything recorded so far, or
    /// `None` when the scenario has telemetry off.
    pub fn telemetry_report(&self) -> Option<TelemetryReport> {
        self.telemetry.as_ref().map(RunTelemetry::report)
    }

    /// Runs the paper's system-identification procedure (§4.2): sweep each
    /// device's frequency with the others held, dwell one control period
    /// per point under the live workload, fit `p = A·F + C`.
    ///
    /// The fitted model is cached and reused by the controller builders.
    ///
    /// # Errors
    /// Propagates excitation-plan and fitting errors.
    pub fn identify(&mut self) -> Result<IdentifiedModel> {
        self.span_enter(Phase::Identify);
        let (workload, telemetry) = (&mut self.workload, &mut self.telemetry);
        let id = control_loop::identify(
            &mut self.backend,
            &self.layout,
            self.scenario.sysid_hold_fraction,
            self.scenario.sysid_steps_per_device,
            self.scenario.control_period_s,
            self.scenario.rls_tracking.map(|c| c.forgetting),
            |backend, applied| workload.second(backend, applied, telemetry.as_mut(), None),
        );
        self.span_exit();
        let id = id?;
        self.tracker = id.tracker;
        self.identified = Some(id.fitted.clone());
        Ok(id.fitted)
    }

    /// Opens a telemetry span (a no-op with telemetry off).
    fn span_enter(&mut self, phase: Phase) {
        if let Some(tm) = self.telemetry.as_mut() {
            tm.span_enter(phase);
        }
    }

    /// Closes the innermost telemetry span and returns its wall time
    /// (ns; 0 unless spans are traced).
    fn span_exit(&mut self) -> u64 {
        self.telemetry.as_mut().map_or(0, RunTelemetry::span_exit)
    }

    /// The cached identified model, identifying first if needed.
    ///
    /// # Errors
    /// Propagates identification errors.
    pub fn identified_model(&mut self) -> Result<LinearPowerModel> {
        match &self.identified {
            Some(id) => Ok(id.model.clone()),
            None => Ok(self.identify()?.model),
        }
    }

    /// Builds the CapGPU controller from the identified model.
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_capgpu_controller(&mut self) -> Result<CapGpuController> {
        let model = self.identified_model()?;
        CapGpuController::new(&self.layout, model, WeightAssigner::default())
    }

    /// Builds the CapGPU controller with the phase-mix signal ignored —
    /// throughput-inversion weights only. The ablation arm that shows
    /// why phase awareness matters under LLM serving: completions-lumpy
    /// decode-bound devices read as idle and get parked at the floor,
    /// paying inter-token latency for power that memory-bound decode
    /// never returns.
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_capgpu_phase_blind(&mut self) -> Result<CapGpuController> {
        self.build_capgpu_with(false, WeightAssigner::phase_blind(), "CapGPU (phase-blind)")
    }

    /// Builds the paper's controller with the structure-exploiting fast
    /// MPC solver enabled (`MpcConfig::fast_solver`): same model, weights,
    /// and constraints as [`ExperimentRunner::build_capgpu_controller`],
    /// but the condensed QP is solved in cumulative coordinates as a box
    /// QP with an explicit-MPC region table. Agrees with the default
    /// controller to solver tolerance (see DESIGN.md §15).
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_capgpu_fast(&mut self) -> Result<CapGpuController> {
        self.build_capgpu_with(true, WeightAssigner::default(), "CapGPU (fast)")
    }

    fn build_capgpu_with(
        &mut self,
        fast_solver: bool,
        weights: WeightAssigner,
        name: &str,
    ) -> Result<CapGpuController> {
        let model = self.identified_model()?;
        let mut config = capgpu_control::mpc::MpcConfig::paper_defaults(
            self.layout.f_min.clone(),
            self.layout.f_max.clone(),
        );
        config.fast_solver = fast_solver;
        CapGpuController::with_config(config, model, weights, name)
    }

    /// Sum of the identified gains (W/MHz, negatives clipped) over the
    /// devices of one kind — the plant gain a shared-clock loop sees.
    fn summed_gain(&mut self, kind: DeviceKind) -> Result<f64> {
        let model = self.identified_model()?;
        let gain: f64 = self
            .layout
            .kinds
            .iter()
            .zip(model.gains())
            .filter(|(k, _)| **k == kind)
            .map(|(_, g)| g.max(0.0))
            .sum();
        Ok(gain.max(1e-6))
    }

    /// Builds the GPU-Only baseline (pole 0.5) from identified GPU gains.
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_gpu_only(&mut self) -> Result<SharedClockController> {
        let gain = self.summed_gain(DeviceKind::Gpu)?;
        SharedClockController::gpu_only(self.layout.clone(), gain, 0.5)
    }

    /// Builds the CPU-Only baseline (pole 0.5) from identified CPU gains.
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_cpu_only(&mut self) -> Result<SharedClockController> {
        let gain = self.summed_gain(DeviceKind::Cpu)?;
        SharedClockController::cpu_only(self.layout.clone(), gain, 0.5)
    }

    /// Builds the CPU+GPU split baseline with the given GPU budget share.
    ///
    /// # Errors
    /// Propagates identification and construction errors.
    pub fn build_split(&mut self, gpu_share: f64) -> Result<CpuGpuSplitController> {
        let cpu_gain = self.summed_gain(DeviceKind::Cpu)?;
        let gpu_gain = self.summed_gain(DeviceKind::Gpu)?;
        CpuGpuSplitController::new(self.layout.clone(), cpu_gain, gpu_gain, gpu_share, 0.5)
    }

    /// Builds the Fixed-step baseline with the given step multiplier.
    pub fn build_fixed_step(&self, step_multiplier: usize) -> FixedStepController {
        FixedStepController::new(self.layout.clone(), step_multiplier)
    }

    /// Builds the Safe Fixed-step baseline. The margin defaults to the
    /// worst-case one-step power impact implied by the identified model.
    ///
    /// # Errors
    /// Propagates identification errors.
    pub fn build_safe_fixed_step(
        &mut self,
        step_multiplier: usize,
    ) -> Result<SafeFixedStepController> {
        let model = self.identified_model()?;
        Ok(sized_safe_fixed_step(
            &self.layout,
            model.gains(),
            step_multiplier,
            self.backend.meter_noise_std(),
        ))
    }

    /// Runs `num_periods` control periods with the given controller,
    /// returning the trace.
    ///
    /// # Errors
    /// Propagates controller and testbed errors.
    pub fn run(
        &mut self,
        mut controller: impl PowerController,
        num_periods: usize,
    ) -> Result<RunTrace> {
        let t = self.scenario.control_period_s;
        let n = self.layout.len();
        if let Some(tm) = self.telemetry.as_mut() {
            tm.begin_run(controller.name(), self.setpoint, num_periods);
        }
        let mut records = Vec::with_capacity(num_periods);
        let mut last_power = self.scenario.platform_watts;
        let changes = self.scenario.changes.clone();
        // Fault schedule (capgpu-faults): per-spec active flags drive
        // apply/clear transitions at period boundaries.
        let fault_schedule = self.scenario.faults.clone();
        let mut fault_active: Vec<bool> = fault_schedule
            .as_ref()
            .map(|s| vec![false; s.specs.len()])
            .unwrap_or_default();
        // Supervisory failover layer: wraps the controller with the
        // staleness watchdog, authority detector, quarantine, and the
        // CapGPU → safe fixed-step → park ladder. Needs the identified
        // gains (for predicted Δp) and a ready fallback controller.
        let mut supervision = match self.scenario.supervisor {
            Some(cfg) => {
                let model = self.identified_model()?;
                Some(Supervision::new(
                    cfg,
                    &self.layout,
                    model.gains(),
                    self.backend.meter_noise_std(),
                )?)
            }
            None => None,
        };
        // Latencies recorded during calibration (identification) must not
        // count against the measured run's SLO statistics.
        let wl = &mut self.workload;
        wl.slo_tracker.reset_stats();
        wl.ttft_tracker.reset_stats();
        wl.itl_tracker.reset_stats();
        let llm_on = wl.is_llm();
        let n_tasks = wl.tasks.len();
        // Per-device phase mix handed to the controller (LLM mode only);
        // non-LLM devices stay at the neutral mix.
        let mut phase_mix = vec![PhaseMix::neutral(); n];
        // Per-second scratch, recycled across all periods of the run.
        let mut levels = vec![0.0; n];
        let mut applied = Vec::with_capacity(n);
        let mut applied_sum = vec![0.0; n];
        let mut device_power = Vec::with_capacity(n);
        // Continuous tracking needs an anchor model; identify if the
        // caller has not already done so.
        if self.scenario.rls_tracking.is_some() && self.tracker.is_none() {
            self.identify()?;
        }
        let probe_mhz = self.scenario.rls_tracking.map_or(0.0, |c| c.probe_mhz);
        let mut probed = vec![0.0; n];
        let mut prev_applied_mean: Option<Vec<f64>> = None;
        let mut push = RefitPush::default();
        for period in 0..num_periods {
            let t_start_s = (period * t) as f64;
            let t_end_s = ((period + 1) * t) as f64;
            self.span_enter(Phase::Period);
            // Fault-schedule transitions take effect at period start:
            // each spec is applied when it becomes active and cleared
            // when it stops (including intermittency flaps).
            if let Some(schedule) = &fault_schedule {
                for (i, spec) in schedule.specs.iter().enumerate() {
                    let now = spec.active_at(period);
                    if now != fault_active[i] {
                        if now {
                            spec.kind.apply(self.backend.server_mut())?;
                        } else {
                            spec.kind.clear(self.backend.server_mut())?;
                        }
                        fault_active[i] = now;
                        if let Some(tm) = self.telemetry.as_mut() {
                            tm.on_fault(
                                period,
                                t_start_s,
                                i,
                                spec.kind.label(),
                                spec.kind.device(),
                                now,
                            );
                        }
                    }
                }
            }
            // Scheduled changes take effect at the start of their period.
            for change in &changes {
                match change {
                    ScheduledChange::SetPoint { at_period, watts } if *at_period == period => {
                        self.setpoint = *watts;
                        if let Some(tm) = self.telemetry.as_mut() {
                            tm.on_setpoint_change(period, t_start_s, *watts);
                        }
                    }
                    ScheduledChange::Slo {
                        at_period,
                        task,
                        slo_s,
                    } if *at_period == period => {
                        self.slos[*task] = Some(*slo_s);
                        self.workload.slo_tracker.set_slo(*task, *slo_s);
                    }
                    ScheduledChange::ArrivalRate {
                        at_period,
                        task,
                        rate_img_s,
                    } if *at_period == period => {
                        // `Scenario::validate` admits these only on
                        // pipeline plants.
                        if let TaskPlant::Pipeline(pipe) = &mut self.workload.tasks[*task].plant {
                            pipe.set_arrival_rate(*rate_img_s)?;
                        }
                    }
                    ScheduledChange::MeterFault { at_period, fault } if *at_period == period => {
                        self.backend.server_mut().set_meter_fault(*fault);
                    }
                    ScheduledChange::GainDrift {
                        at_period,
                        device,
                        factor,
                    } if *at_period == period => {
                        self.backend
                            .server_mut()
                            .scale_power_gain(*device, *factor)?;
                    }
                    ScheduledChange::ServingBurst {
                        at_period,
                        task,
                        factor,
                    } if *at_period == period => {
                        self.workload
                            .tasks
                            .get_mut(*task)
                            .ok_or_else(|| {
                                CapGpuError::BadConfig(format!(
                                    "serving burst targets unknown task {task}"
                                ))
                            })?
                            .plant
                            .set_intensity_scale(*factor)?;
                    }
                    _ => {}
                }
            }

            // Reset per-period aggregates.
            let wl = &mut self.workload;
            wl.tasks
                .iter_mut()
                .for_each(|t| t.period = TaskPeriodStats::default());
            let misses_before: Vec<usize> = (0..n_tasks).map(|i| wl.slo_misses(i)).collect();

            // One control period: T seconds of actuation. CapGPU resolves
            // fractional targets by delta-sigma modulation (§5); baselines
            // apply plain nearest-level rounding (§6.2 applies the
            // modulator only to CapGPU).
            let modulate = controller.uses_delta_sigma();
            applied_sum.iter_mut().for_each(|s| *s = 0.0);
            let mut fresh_meter_samples = 0usize;
            // Persistent-excitation probe (tracking only): a converged
            // loop holds frequencies still, so without a probe the
            // closed-loop stream carries no gain information — and worse,
            // the few moves it does contain are the controller's own
            // noise responses, which bias any fit. The ±probe_mhz offsets
            // use a deterministic per-(period, device) sign pattern so
            // they never perturb the simulation's RNG streams.
            if probe_mhz > 0.0 {
                for (d, p) in probed.iter_mut().enumerate() {
                    let sign = probe_sign(self.scenario.seed, period, d);
                    *p = (self.targets[d] + probe_mhz * sign)
                        .clamp(self.layout.f_min[d], self.layout.f_max[d]);
                }
            } else {
                probed.copy_from_slice(&self.targets);
            }
            self.span_enter(Phase::Actuate);
            for _ in 0..t {
                if modulate {
                    // Carry-wrap accounting rides along only when
                    // telemetry is on; it does not alter the emitted
                    // level sequence, so traces stay byte-stable.
                    for (d, l) in levels.iter_mut().enumerate() {
                        let (level, wrapped) = self.modulators[d].next_level_with_carry(probed[d]);
                        *l = level;
                        if let (true, Some(tm)) = (wrapped, self.telemetry.as_mut()) {
                            tm.on_carry_wrap(d);
                        }
                    }
                } else {
                    levels.copy_from_slice(&probed);
                }
                self.backend.set_frequencies(&levels)?;
                // Effective = applied clamped by any active thermal
                // throttle; that is what the workload actually sees.
                self.backend.effective_frequencies_into(&mut applied)?;
                for (s, a) in applied_sum.iter_mut().zip(applied.iter()) {
                    *s += a;
                }
                let sample = self.workload.second(
                    &mut self.backend,
                    &applied,
                    self.telemetry.as_mut(),
                    None,
                )?;
                if sample.is_some() {
                    fresh_meter_samples += 1;
                }
            }
            let actuate_ns = self.span_exit();
            let applied_mean: Vec<f64> = applied_sum.iter().map(|s| s / t as f64).collect();

            // Measurement: average the period's *fresh* meter samples.
            self.span_enter(Phase::Sense);
            let (avg_power, meter_stale) =
                period_average(&self.backend, fresh_meter_samples, last_power);
            last_power = avg_power;
            self.span_exit();

            // Continuous model tracking (§6.4, generalized to every
            // period): fold this period's (F̄, p̄) sample into the
            // streaming identifier and refit — O(n²) total instead of an
            // O(m·n²) batch refit. Meter-dropout periods are skipped (a
            // held-over reading says nothing about this period's plant),
            // quasi-steady gating skips periods whose frequencies slewed
            // too far for the average to reflect a steady-state operating
            // point, and refits are withheld while the factor's
            // excitation is too collinear for the gains to be trustworthy.
            if self.tracker.is_some() {
                self.span_enter(Phase::Identify);
            }
            if let (Some(tracker), Some(cfg)) = (self.tracker.as_mut(), self.scenario.rls_tracking)
            {
                let quasi_steady = prev_applied_mean.as_ref().is_none_or(|prev| {
                    applied_mean
                        .iter()
                        .zip(prev.iter())
                        .all(|(now, was)| (now - was).abs() <= cfg.settle_gate_mhz)
                });
                if fresh_meter_samples > 0 && quasi_steady {
                    tracker.record(&applied_mean, avg_power);
                    if tracker.design_condition() < cfg.condition_guard {
                        match tracker.fit() {
                            Ok((model, scale)) => {
                                if push.offer(&mut controller, &model, scale)? {
                                    self.identified = Some(IdentifiedModel {
                                        model,
                                        r_squared: tracker.r_squared(),
                                        rmse_watts: tracker.rmse(),
                                        n_samples: tracker.len(),
                                        design_condition: tracker.design_condition(),
                                    });
                                    if let Some(tm) = self.telemetry.as_mut() {
                                        tm.on_refit(period, t_end_s, scale, tracker.r_squared());
                                    }
                                }
                            }
                            Err(capgpu_control::ControlError::InsufficientData(_)) => {}
                            Err(e) => return Err(e.into()),
                        }
                    }
                } else {
                    // Unusable period (dropout or transient): no sample,
                    // but time still passed — decay so stale data does
                    // not keep full weight across the gap.
                    tracker.decay();
                }
                prev_applied_mean = Some(applied_mean.clone());
            }
            if self.tracker.is_some() {
                self.span_exit();
            }

            self.span_enter(Phase::Solve);
            // Throughput monitors.
            let cpu_dev = self.workload.cpu_device;
            let cpu_noise: f64 = self.rng.gen_range(-1.0..1.0);
            let cpu_rate = self.featsel.rate(applied_mean[cpu_dev], cpu_noise);
            self.monitors[cpu_dev].record(cpu_rate);
            let tasks = &self.workload.tasks;
            let gpu_throughput: Vec<f64> = tasks.iter().map(|k| k.throughput(t as f64)).collect();
            let gpu_latency: Vec<f64> = tasks.iter().map(GpuTask::mean_latency).collect();
            let batches: Vec<usize> = tasks.iter().map(|k| k.period.batches).collect();
            for (k, tp) in tasks.iter().zip(&gpu_throughput) {
                self.monitors[k.device].record(*tp);
            }

            // SLO frequency floors for the next period.
            let mut floors = self.layout.f_min.clone();
            for (i, slo) in self.slos.iter().enumerate() {
                if let Some(slo_s) = slo {
                    let dev = tasks[i].device;
                    floors[dev] = match self.latency_models[i].frequency_floor(*slo_s) {
                        // Safety margin covers fitted-γ error, latency
                        // jitter and the modulator's dips below the target.
                        Ok(f) => (f * self.scenario.slo_margin)
                            .clamp(self.layout.f_min[dev], self.layout.f_max[dev]),
                        // SLO tighter than achievable: run flat out.
                        Err(_) => self.layout.f_max[dev],
                    };
                }
            }

            // Per-device power readings for the split baseline. The
            // backend attributes them as of the most recent elapsed
            // second (the utilizations the workload staged last).
            self.backend.per_device_power_into(&mut device_power)?;

            let normalized = normalized_throughputs(&self.monitors);

            // Phase-mix signal for the controller (LLM mode): busy-time
            // prefill share, end-of-period KV occupancy, and token rate,
            // per device. Non-LLM devices keep the neutral mix, under
            // which the phase-aware penalty equals the phase-blind one.
            for k in tasks {
                if let Some(mix) = k.phase_mix(t as f64) {
                    phase_mix[k.device] = mix;
                }
            }
            // The supervised decision ingests this period's evidence
            // first, so demotions take effect in the same period the
            // fault is observed.
            let input = ControlInput {
                measured_power: avg_power,
                setpoint: self.setpoint,
                current_targets: &self.targets,
                normalized_throughput: &normalized,
                device_power: &device_power,
                floors: &floors,
                phase_mix: if llm_on { Some(&phase_mix) } else { None },
            };
            let (targets, directive) = control_loop::decide(
                supervision.as_mut(),
                &mut controller,
                &self.backend,
                &self.layout,
                fresh_meter_samples,
                &applied_mean,
                &input,
            )?;
            self.targets = targets;
            let (tier, effective_setpoint) = (directive.tier, directive.effective_setpoint);
            let solve_ns = self.span_exit();

            // §4.4 multi-layer adaptation: if frequency scaling alone is
            // out of authority (cap exceeded with every knob at its
            // floor), engage the GPUs' low-memory-clock states; release
            // with hysteresis once frequency scaling regains headroom.
            if self.scenario.memory_escape {
                let noise = self.backend.meter_noise_std();
                let saturated_low =
                    (0..n).all(|j| self.targets[j] <= floors[j].max(self.layout.f_min[j]) + 20.0);
                let over = avg_power > self.setpoint + 2.0 * noise.max(1.0);
                if over && saturated_low && !self.mem_escape_active {
                    for dev in self.workload.tasks.iter().map(|k| k.device) {
                        if self.backend.server().device(dev)?.mem_throttle.is_some() {
                            self.backend.server_mut().set_memory_throttle(dev, true)?;
                        }
                    }
                    self.mem_escape_active = true;
                } else if self.mem_escape_active {
                    // Estimate the power that releasing would restore; only
                    // release if the cap still holds afterwards.
                    let mut restore = 0.0;
                    for dev in self.workload.tasks.iter().map(|k| k.device) {
                        if let Some(mt) = self.backend.server().device(dev)?.mem_throttle {
                            if self.backend.server().memory_throttled(dev)? {
                                let idle = self.backend.server().device(dev)?.power_law.idle_watts;
                                let dynamic = (device_power[dev] - idle).max(0.0);
                                // device_power is the throttled reading.
                                restore += dynamic * (1.0 / mt.power_scale - 1.0);
                            }
                        }
                    }
                    if avg_power + restore < self.setpoint - 2.0 * noise.max(1.0) {
                        for dev in self.workload.tasks.iter().map(|k| k.device) {
                            self.backend.server_mut().set_memory_throttle(dev, false)?;
                        }
                        self.mem_escape_active = false;
                    }
                }
            }

            let slo_misses: Vec<usize> = (0..n_tasks)
                .map(|i| self.workload.slo_misses(i).saturating_sub(misses_before[i]))
                .collect();

            records.push(PeriodRecord {
                period,
                setpoint: effective_setpoint,
                avg_power,
                targets: self.targets.clone(),
                applied_mean,
                gpu_throughput,
                cpu_throughput: cpu_rate,
                gpu_mean_latency: gpu_latency,
                slo: self.slos.clone(),
                slo_misses,
                batches,
                floors,
                memory_escape_active: self.mem_escape_active,
                supervisor_tier: tier.as_u8(),
                meter_stale,
                solve_ns,
                actuate_ns,
            });

            // Fold the completed period into the telemetry registry and
            // journal. Diagnostics are taken only when the primary
            // controller acted — on a fallback/park period its cached
            // solve is from an earlier period.
            if self.telemetry.is_some() {
                let diag = match tier {
                    SupervisorTier::Primary => controller.diagnostics(),
                    _ => None,
                };
                let quarantined = supervision.as_ref().map(|s| s.supervisor.quarantined());
                let rec = records.last().expect("just pushed");
                let obs = PeriodObservation {
                    period,
                    t_s: t_end_s,
                    seconds: t,
                    fresh_meter_samples,
                    avg_power,
                    setpoint: effective_setpoint,
                    meter_stale,
                    tier: tier.as_u8(),
                    stale_periods: directive.stale_periods,
                    quarantined,
                    targets: &rec.targets,
                    diag,
                    mem_escape_active: self.mem_escape_active,
                };
                if let Some(tm) = self.telemetry.as_mut() {
                    tm.on_period(&obs);
                    for (i, k) in self.workload.tasks.iter().enumerate() {
                        if let TaskPlant::Llm { .. } = k.plant {
                            tm.on_llm_period(
                                period,
                                t_end_s,
                                i,
                                phase_mix[k.device].prefill_share,
                                k.period.kv_occupancy_end,
                            );
                        }
                    }
                    tm.span_exit();
                }
            }
        }
        let wl = &self.workload;
        let p99 = |tracker: &SloTracker| -> Vec<f64> {
            (0..n_tasks)
                .map(|i| capgpu_linalg::stats::percentile(tracker.latencies(i), 99.0))
                .collect()
        };
        let miss = |tracker: &SloTracker| -> Vec<f64> {
            (0..n_tasks).map(|i| tracker.miss_rate(i)).collect()
        };
        let miss_rates = miss(&wl.slo_tracker);
        let p99_latency_s = p99(&wl.slo_tracker);
        let (ttft_p99_s, itl_p99_s, ttft_miss_rates, itl_miss_rates) = if llm_on {
            (
                p99(&wl.ttft_tracker),
                p99(&wl.itl_tracker),
                miss(&wl.ttft_tracker),
                miss(&wl.itl_tracker),
            )
        } else {
            (Vec::new(), Vec::new(), Vec::new(), Vec::new())
        };
        let tracker_stats = self.tracker.as_ref().map(|tr| tr.stats());
        if let Some(tm) = self.telemetry.as_mut() {
            tm.end_run(
                num_periods,
                (num_periods * t) as f64,
                &p99_latency_s,
                tracker_stats,
            );
        }
        Ok(RunTrace {
            controller: controller.name().to_string(),
            records,
            miss_rates,
            p99_latency_s,
            ttft_p99_s,
            itl_p99_s,
            ttft_miss_rates,
            itl_miss_rates,
        })
    }

    /// Runs with fixed frequencies and no controller for `seconds`,
    /// returning `(mean power, per-task throughput img/s, per-task mean
    /// batch latency, per-task mean queue delay)`. Used by the Table 1
    /// motivation experiment.
    ///
    /// # Errors
    /// Propagates testbed errors.
    pub fn run_fixed(
        &mut self,
        freqs: &[f64],
        seconds: usize,
        warmup_seconds: usize,
    ) -> Result<FixedRunStats> {
        self.backend.set_frequencies(freqs)?;
        let mut applied = Vec::with_capacity(self.layout.len());
        self.backend.effective_frequencies_into(&mut applied)?;
        let wl = &mut self.workload;
        for _ in 0..warmup_seconds {
            wl.second(&mut self.backend, &applied, None, None)?;
        }
        // Aggregates count from the end of the warm-up.
        wl.tasks
            .iter_mut()
            .for_each(|t| t.period = TaskPeriodStats::default());
        let mut power_sum = 0.0;
        let mut power_n = 0usize;
        let mut queue_delays: Vec<Vec<f64>> = vec![Vec::new(); wl.tasks.len()];
        for _ in 0..seconds {
            if let Some(p) =
                wl.second(&mut self.backend, &applied, None, Some(&mut queue_delays))?
            {
                power_sum += p;
                power_n += 1;
            }
        }
        let f_cpu = applied[wl.cpu_device];
        let throughput = wl
            .tasks
            .iter()
            .map(|t| t.period.completed as f64 / seconds as f64)
            .collect();
        let latency = wl.tasks.iter().map(GpuTask::mean_latency).collect();
        let queue_delay = queue_delays
            .iter()
            .map(|d| capgpu_linalg::stats::mean(d))
            .collect();
        let preprocess = wl
            .tasks
            .iter()
            .map(|t| t.model.preprocess_time(f_cpu))
            .collect();
        Ok(FixedRunStats {
            mean_power: if power_n > 0 {
                power_sum / power_n as f64
            } else {
                0.0
            },
            throughput_img_s: throughput,
            mean_batch_latency_s: latency,
            mean_queue_delay_s: queue_delay,
            preprocess_s_per_image: preprocess,
        })
    }
}

/// Deterministic ±1 persistent-excitation sign for one (period, device)
/// pair: a splitmix64-style hash of the scenario seed and the pair's
/// coordinates. Keeping this independent of the simulation RNG streams
/// means enabling RLS tracking never shifts the scenario's stochastic
/// draws, so tracked and untracked runs stay sample-for-sample
/// comparable.
fn probe_sign(seed: u64, period: usize, device: usize) -> f64 {
    let mut z = seed
        ^ (period as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (device as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// Per-task aggregates accumulated within one control period.
#[derive(Debug, Clone, Default)]
struct TaskPeriodStats {
    /// Images (pipeline) or requests (serving plants) completed.
    completed: usize,
    batches: usize,
    /// Sum and count of the recorded latencies: per batch for
    /// pipelines, per request for serving plants.
    latency_sum: f64,
    latencies: usize,
    /// LLM mode: prefill / decode busy time, KV occupancy at the
    /// period's last simulated second (fraction), and prefill + decode
    /// tokens processed — the raw material of the [`PhaseMix`] signal.
    prefill_busy_s: f64,
    decode_busy_s: f64,
    kv_occupancy_end: f64,
    tokens: u64,
}

/// Results of a fixed-frequency (controller-less) run — the Table 1 rows.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedRunStats {
    /// Mean server power (W).
    pub mean_power: f64,
    /// Per-task throughput (images/s).
    pub throughput_img_s: Vec<f64>,
    /// Per-task mean batch inference latency (s).
    pub mean_batch_latency_s: Vec<f64>,
    /// Per-task mean queue delay (s/image).
    pub mean_queue_delay_s: Vec<f64>,
    /// Per-task CPU preprocessing time (s/image) at the applied CPU clock.
    pub preprocess_s_per_image: Vec<f64>,
}
