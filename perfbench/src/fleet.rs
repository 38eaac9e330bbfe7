//! `fleet_1024`: `FleetSim` with 16 racks × 64 mixed V100/A100/H100
//! serving servers, the hierarchical allocator with stream migration
//! and 8 control periods per epoch, driven one `run(nproc)` call per
//! allocator epoch.
//!
//! Epoch 0 is the allocator's floor-learning warm-up: it is timed and
//! reported but excluded from the steady epoch figures. Quality figures
//! come from the first `QUALITY_EPOCHS` epochs so they do not depend on
//! how many epochs fit in the time budget.

use std::time::Instant;

use capgpu_fleet::balancer;
use capgpu_fleet::prelude::*;

use crate::digest::Digest;
use crate::trace;
use crate::{dump_spans, median, Args, Outcome};

const RACKS: usize = 16;
const PER_RACK: usize = 64;
const EPOCH_PERIODS: usize = 8;
const BUDGET_PER_SERVER: f64 = 1700.0;
/// Epochs (warm-up included) behind the quality figures and counts.
const QUALITY_EPOCHS: usize = 8;
/// Epochs of the one multi-epoch reference run.
const REFERENCE_EPOCHS: usize = 2;
/// Repetitions of each harness-timed allocator call.
const ALLOC_REPS: usize = 20;

fn topology(seed: u64) -> Result<FleetTopology, String> {
    // Uneven load across racks (rack r hosts `(r + seed) % 5` hot
    // servers at 1.25× the nominal stream count), so the allocator has
    // inter-rack asymmetry to exploit.
    let shift = (seed % 5) as usize;
    FleetTopology::datacenter(RACKS, PER_RACK, |rack, slot| ServerSpec {
        class: slot % 3,
        streams: if slot < (rack + shift) % 5 { 5 } else { 4 },
    })
    .map_err(|e| e.to_string())
}

fn config(epochs: usize) -> FleetConfig {
    FleetConfig {
        epochs,
        epoch_periods: EPOCH_PERIODS,
        ..FleetConfig::new(BUDGET_PER_SERVER * (RACKS * PER_RACK) as f64)
    }
}

fn build(seed: u64, epochs: usize) -> Result<(FleetSim, f64), String> {
    let t0 = Instant::now();
    let sim = trace::span("fleet.new", 0, || {
        FleetSim::new(
            topology(seed)?,
            &mixed_generation_classes(seed),
            config(epochs),
        )
        .map_err(|e| e.to_string())
    })?;
    Ok((sim, t0.elapsed().as_secs_f64()))
}

/// A fleet driven one epoch per `run` call.
#[derive(Default)]
struct Epochs {
    secs: Vec<f64>,
    reports: Vec<FleetReport>,
}

impl Epochs {
    fn drive(
        sim: &mut FleetSim,
        threads: usize,
        min: usize,
        seconds: f64,
    ) -> Result<Epochs, String> {
        let mut out = Epochs::default();
        let start = Instant::now();
        while out.reports.len() < min || start.elapsed().as_secs_f64() < seconds {
            let k = out.reports.len() as u64;
            let t0 = Instant::now();
            let report =
                trace::span("fleet.epoch", k, || sim.run(threads)).map_err(|e| e.to_string())?;
            out.secs.push(t0.elapsed().as_secs_f64());
            out.reports.push(report);
        }
        Ok(out)
    }

    /// Digest of the first `n` epochs as one report would carry them.
    fn digest(&self, n: usize) -> Digest {
        let epochs = self.reports[..n].iter().flat_map(|r| &r.epochs).collect();
        let server_periods = self.reports[..n].iter().map(|r| r.server_periods).sum();
        outcome_digest(epochs, &self.reports[n - 1].stats, server_periods)
    }

    fn steady_epoch_s(&self) -> f64 {
        median(&self.secs[1..])
    }
}

/// Digest of what a fleet run computed (its scheduling instrumentation
/// varies with the thread count and is left out, as `FleetReport`'s
/// equality does).
fn outcome_digest(
    epochs: Vec<&EpochReport>,
    stats: &[ServerStat],
    server_periods: usize,
) -> Digest {
    Digest::of(&(epochs, stats, server_periods))
}

fn report_digest(r: &FleetReport) -> Digest {
    outcome_digest(r.epochs.iter().collect(), &r.stats, r.server_periods)
}

/// Times `f` over `ALLOC_REPS` calls; mean µs per call.
fn time_us<T>(name: &'static str, epoch: u64, mut f: impl FnMut() -> T) -> f64 {
    trace::span(name, epoch, || {
        let t0 = Instant::now();
        for _ in 0..ALLOC_REPS {
            std::hint::black_box(f());
        }
        t0.elapsed().as_secs_f64() * 1e6 / ALLOC_REPS as f64
    })
}

pub fn run(args: &Args, threads: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let servers = (RACKS * PER_RACK) as f64;
    let t = mixed_generation_classes(args.seed)[0]
        .scenario
        .control_period_s as f64;
    let half = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Set-up is the median over every `FleetSim::new` the run makes.
    let (mut sim, s0) = build(args.seed, 1)?;
    let mut setup = vec![s0];
    let plain = Epochs::drive(&mut sim, threads, QUALITY_EPOCHS, half)?;
    drop(sim);
    out.attempted += plain.reports.len() as u64;
    let steady = plain.steady_epoch_s();
    out.set(
        "sim_server_s_per_s",
        servers * (EPOCH_PERIODS as f64) * t / steady,
        "sim-s/s",
    );
    out.set(
        "period_us_p50",
        steady * 1e6 * threads as f64 / (servers * EPOCH_PERIODS as f64),
        "us",
    );
    out.set("epoch_s", steady, "s");
    out.set("epoch_samples", (plain.secs.len() - 1) as f64, "count");
    out.set("fleet.warm_epoch_s", plain.secs[0], "s");
    quality(&plain, t, &mut out);

    if !args.trace {
        // One multi-epoch run at one thread against the per-epoch calls
        // at nproc threads.
        let (mut sim, s1) = build(args.seed, REFERENCE_EPOCHS)?;
        setup.push(s1);
        let reference = sim.run(1).map_err(|e| e.to_string())?;
        drop(sim);
        out.attempted += REFERENCE_EPOCHS as u64;
        out.check(
            "multi-epoch 1 thread vs per-epoch nproc threads",
            report_digest(&reference),
            plain.digest(REFERENCE_EPOCHS),
        );
        let (sim, s2) = build(args.seed, 1)?;
        drop(sim);
        setup.push(s2);
        out.set("setup_s", median(&setup), "s");
        return Ok(out);
    }

    trace::set_enabled(true);
    let (mut sim, s1) = build(args.seed, 1)?;
    setup.push(s1);
    let n = plain.reports.len();
    let traced = Epochs::drive(&mut sim, threads, n, 0.0)?;
    drop(sim);
    out.attempted += traced.reports.len() as u64;
    out.check("traced vs untraced", plain.digest(n), traced.digest(n));
    out.set(
        "trace.overhead_pct",
        100.0 * (traced.steady_epoch_s() / steady - 1.0),
        "%",
    );
    // Harness-timed allocator calls on each epoch's inputs, checked
    // against what the simulator decided.
    let cfg = config(1);
    let mig_cfg = cfg.migration.clone().expect("migration enabled");
    let topo = topology(args.seed)?;
    let mut divide_us = Vec::new();
    let mut plan_us = Vec::new();
    for (k, pair) in traced.reports.windows(2).enumerate() {
        let (prev, cur) = (&pair[0].stats, &pair[1]);
        let demands: Vec<f64> = prev.iter().map(|s| s.demand).collect();
        let floors: Vec<f64> = prev
            .iter()
            .map(|s| s.min_watts.max(cfg.min_share_watts))
            .collect();
        let epoch = k as u64 + 1;
        divide_us.push(time_us("fleet.divide", epoch, || {
            topo.divide(cfg.budget_watts, &demands, &floors)
        }));
        let allocs = topo
            .divide(cfg.budget_watts, &demands, &floors)
            .server_allocs;
        let assigned: Vec<f64> = cur.stats.iter().map(|s| s.assigned).collect();
        out.check(
            "harness divide vs epoch assignment",
            Digest::of(&allocs),
            Digest::of(&assigned),
        );
        // Undo the epoch's migrations to recover the planner's input.
        let mut stats = cur.stats.clone();
        let migrations = &cur.epochs[0].migrations;
        for m in migrations {
            stats[m.from].streams += 1;
            stats[m.to].streams -= 1;
        }
        plan_us.push(time_us("fleet.plan", epoch, || {
            balancer::plan(&stats, &mig_cfg)
        }));
        out.check(
            "harness plan vs epoch migrations",
            Digest::of(&balancer::plan(&stats, &mig_cfg)),
            Digest::of(migrations),
        );
    }
    trace::set_enabled(false);
    let spans = trace::take();
    out.set("setup_s", median(&setup), "s");
    out.set("fleet.new_s", median(&setup), "s");
    out.set(
        "fleet.server_epoch_ms",
        traced.steady_epoch_s() * 1e3 * threads as f64 / servers,
        "ms",
    );
    out.set("fleet.divide_us", median(&divide_us), "us");
    out.set("fleet.plan_us", median(&plan_us), "us");
    let first = &traced.reports[..QUALITY_EPOCHS];
    out.set(
        "fleet.server_periods",
        first.iter().map(|r| r.server_periods).sum::<usize>() as f64,
        "count",
    );
    out.set(
        "fleet.migrations",
        first
            .iter()
            .map(FleetReport::total_migrations)
            .sum::<usize>() as f64,
        "count",
    );
    out.set(
        "fleet.peak_pending",
        first.iter().map(|r| r.peak_pending).max().unwrap_or(0) as f64,
        "count",
    );
    out.set(
        "fleet.peak_live_traces",
        first.iter().map(|r| r.peak_live_traces).max().unwrap_or(0) as f64,
        "count",
    );
    out.set(
        "fleet.completed",
        first.iter().map(FleetReport::total_completed).sum::<u64>() as f64,
        "count",
    );
    out.set(
        "fleet.misses",
        first.iter().map(FleetReport::total_misses).sum::<u64>() as f64,
        "count",
    );
    dump_spans("fleet_1024", &spans)?;
    Ok(out)
}

/// Simulated-quality figures over the first `QUALITY_EPOCHS` epochs.
fn quality(run: &Epochs, t: f64, out: &mut Outcome) {
    let first = &run.reports[..QUALITY_EPOCHS];
    let (mut misses, mut completed) = (0u64, 0u64);
    for r in first {
        misses += r.total_misses();
        completed += r.total_completed();
    }
    out.set(
        "slo_miss_ratio",
        misses as f64 / (misses + completed).max(1) as f64,
        "ratio",
    );
    let measured = &first[1..];
    let overshoot = measured
        .iter()
        .map(FleetReport::max_rack_overshoot_watts)
        .fold(f64::NEG_INFINITY, f64::max);
    out.set("rack_overshoot_w", overshoot, "W");
    let (mut err, mut n, mut over_ws) = (0.0, 0usize, 0.0);
    for r in measured {
        for s in &r.stats {
            err += (s.measured - s.assigned).abs();
            over_ws += (s.measured - s.assigned).max(0.0) * EPOCH_PERIODS as f64 * t;
            n += 1;
        }
    }
    out.set("track_err_w", err / n.max(1) as f64, "W");
    let sim_h = (n * EPOCH_PERIODS) as f64 * t / 3600.0;
    out.set("overshoot_ws_per_h", over_ws / sim_h, "W.s/h");
}
