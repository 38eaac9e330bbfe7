//! `capgpud_loop`: one closed-loop caller driving `Daemon` over the sim
//! backend, as the `capgpud --serve` loop does minus logging and sleep.
//!
//! One iteration is `step_period`, then `prometheus_text` +
//! `health_json`, then a `ConfigWatcher::changed` poll (and, when it
//! fires, `DaemonConfig::load` + `apply_reload`). Between iterations the
//! harness injects traffic, all a pure function of the seed and the
//! period count: set-point rewrites of the config file, utilization
//! shifts and meter-dropout episodes on the sim plant, and crash-
//! restarts (`into_backend`, journal left unsealed, then `read_dir` →
//! `ReplayState::replay` → `Daemon::new` → `recover`, falling back to a
//! cold `identify` when replay cannot recover).

use std::path::Path;
use std::time::Instant;

use capgpu::prelude::*;
use capgpu_backend::{BackendDevice, BackendResult, Capabilities, PowerBackend, SimBackend};
use capgpu_obs::reader::read_dir;
use capgpu_obs::replay::ReplayState;
use capgpu_sim::MeterFault;

use crate::digest::Digest;
use crate::trace;
use crate::{dump_spans, fresh_dir, median, quantile, work_dir, Args, Outcome};

/// Uptime, in periods, before each crash; the schedule repeats. The
/// longer uptimes reach past the journal-retention horizon (see
/// README: the `identified` record is reaped after ~1.6–2k periods).
const UPTIMES: [u64; 5] = [250, 500, 1000, 2000, 4000];
/// Periods between set-point rewrites of the config file.
const RELOAD_EVERY: u64 = 300;
/// Periods between utilization shifts.
const UTIL_EVERY: u64 = 100;
/// Meter-dropout episodes: every `DROPOUT_EVERY` periods, lasting
/// `DROPOUT_LEN` periods (long enough to reach the fallback tier).
const DROPOUT_EVERY: u64 = 700;
const DROPOUT_LEN: u64 = 6;
/// Periods after any disturbance excluded from the tracking error.
const SETTLE: u64 = 10;
const GPUS: usize = 4;
/// One full restart-schedule cycle: the length of the rerun-identity
/// reference run.
const CYCLE: u64 = 250 + 500 + 1000 + 2000 + 4000;

/// splitmix64: the traffic generator's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Times the sense/actuate calls of the wrapped backend and forwards
/// every trait method, the defaulted ones included, unchanged.
struct TimedBackend {
    inner: Box<dyn PowerBackend>,
}

impl PowerBackend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }
    fn devices(&self) -> &[BackendDevice] {
        self.inner.devices()
    }
    fn num_devices(&self) -> usize {
        self.inner.num_devices()
    }
    fn set_frequencies(&mut self, targets_mhz: &[f64]) -> BackendResult<()> {
        let inner = &mut self.inner;
        trace::span("backend.actuate", trace::INHERIT, || {
            inner.set_frequencies(targets_mhz)
        })
    }
    fn effective_frequencies_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        let inner = &mut self.inner;
        trace::span("backend.actuate", trace::INHERIT, || {
            inner.effective_frequencies_into(out)
        })
    }
    fn set_power_limit(&mut self, device: usize, watts: f64) -> BackendResult<()> {
        let inner = &mut self.inner;
        trace::span("backend.actuate", trace::INHERIT, || {
            inner.set_power_limit(device, watts)
        })
    }
    fn advance(&mut self, dt_s: f64) -> BackendResult<Option<f64>> {
        let inner = &mut self.inner;
        trace::span("backend.advance", trace::INHERIT, || inner.advance(dt_s))
    }
    fn average_power(&self, last_n: usize) -> Option<f64> {
        trace::span("backend.sense", trace::INHERIT, || {
            self.inner.average_power(last_n)
        })
    }
    fn seconds_since_sample(&self) -> Option<u64> {
        trace::span("backend.sense", trace::INHERIT, || {
            self.inner.seconds_since_sample()
        })
    }
    fn per_device_power_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        let inner = &mut self.inner;
        trace::span("backend.sense", trace::INHERIT, || {
            inner.per_device_power_into(out)
        })
    }
    fn throughput_into(&mut self, out: &mut Vec<f64>) -> BackendResult<()> {
        let inner = &mut self.inner;
        trace::span("backend.sense", trace::INHERIT, || {
            inner.throughput_into(out)
        })
    }
    fn is_ejected(&self, device: usize) -> bool {
        self.inner.is_ejected(device)
    }
    fn psu_limit(&self) -> Option<f64> {
        self.inner.psu_limit()
    }
    fn meter_noise_std(&self) -> f64 {
        self.inner.meter_noise_std()
    }
    fn wall_clock_unix_ms(&self) -> Option<u64> {
        self.inner.wall_clock_unix_ms()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

fn sim(d: &mut Daemon) -> Result<&mut SimBackend, String> {
    d.backend_mut()
        .as_any_mut()
        .downcast_mut::<SimBackend>()
        .ok_or_else(|| "daemon backend is not the sim backend".to_string())
}

/// Writes the daemon config with the given set point, atomically
/// (write a temporary file, rename it over the config), as a
/// deployment tool would.
fn write_config(path: &Path, journal: &Path, seed: u64, setpoint: f64) -> Result<(), String> {
    let text = format!(
        "[daemon]\nbackend = \"sim\"\nsetpoint_watts = {setpoint:.1}\n\n[journal]\ndir = \"{}\"\n\n[sim]\nseed = {seed}\ngpus = {GPUS}\n",
        journal.display()
    );
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, path).map_err(|e| e.to_string())
}

fn new_daemon(cfg: &DaemonConfig, traced: bool) -> Result<Daemon, String> {
    let backend = cfg.build_backend().map_err(|e| e.to_string())?;
    let backend: Box<dyn PowerBackend> = if traced {
        Box::new(TimedBackend { inner: backend })
    } else {
        backend
    };
    let mut d = Daemon::new(cfg.clone(), backend).map_err(|e| e.to_string())?;
    d.identify().map_err(|e| e.to_string())?;
    Ok(d)
}

/// Reservoir sample (Algorithm R) of at most `RESERVOIR` values.
struct Reservoir {
    xs: Vec<f64>,
    seen: u64,
    rng: Rng,
}

const RESERVOIR: usize = 200_000;

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            xs: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: Rng(0x5EED),
        }
    }
}

impl Reservoir {
    fn add(&mut self, x: f64) {
        self.seen += 1;
        if self.xs.len() < RESERVOIR {
            self.xs.push(x);
        } else {
            let j = (self.rng.next() % self.seen) as usize;
            if j < RESERVOIR {
                self.xs[j] = x;
            }
        }
    }
}

enum Limit {
    Seconds(f64),
    Periods(u64),
}

/// What one drive of the loop produced.
#[derive(Default)]
struct Drive {
    periods: u64,
    /// Iteration latencies: a fixed-size uniform sample of all of
    /// them, so memory does not grow with the run length.
    iter_us: Reservoir,
    restart_ms: Vec<f64>,
    recover_failed: u64,
    /// Digest of every period report and restart outcome.
    digest: Digest,
    /// The digest after exactly `CYCLE` periods.
    cycle_digest: Option<Digest>,
    /// Loop host time (iterations plus restarts) of each full cycle.
    cycle_s: Vec<f64>,
    tiers: [u64; 3],
    journal: (u64, u64, u64),
    err_sum: f64,
    err_n: u64,
    over_ws: f64,
}

fn add_stats(acc: &mut (u64, u64, u64), s: (u64, u64, u64)) {
    acc.0 += s.0;
    acc.1 += s.1;
    acc.2 += s.2;
}

/// Drives a fresh daemon (in its own journal directory) for `limit`,
/// calling `between_cycles` (untimed) after each full restart cycle.
fn drive(
    dir: &Path,
    seed: u64,
    limit: Limit,
    traced: bool,
    between_cycles: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Drive, String> {
    let journal = dir.join("journal");
    let cfg_path = dir.join("capgpud.toml");
    let mut rng = Rng(seed ^ 0xD1B5_4A32_D192_ED03);
    let setpoint = |rng: &mut Rng| (rng.uniform(950.0, 1250.0) * 2.0).round() / 2.0;
    write_config(&cfg_path, &journal, seed, setpoint(&mut rng))?;
    let load = |p: &Path| DaemonConfig::load(p).map_err(|e| e.to_string());
    let mut cfg = load(&cfg_path)?;
    let mut daemon = trace::span("daemon.setup", 0, || new_daemon(&cfg, traced))?;
    let mut watcher = ConfigWatcher::new(&cfg_path);
    let t = cfg.control_period_s as f64;
    let mut out = Drive::default();
    let (mut uptime, mut next_crash) = (0u64, 0usize);
    let mut last_disturbance = 0u64;
    let mut cycle_s = 0.0;
    let start = Instant::now();
    loop {
        let p = out.periods;
        match limit {
            Limit::Seconds(s) if start.elapsed().as_secs_f64() >= s => break,
            Limit::Periods(n) if p >= n => break,
            _ => {}
        }
        // -- traffic, between iterations --------------------------------
        if p % UTIL_EVERY == 0 {
            let utils: Vec<f64> = (0..=GPUS).map(|_| rng.uniform(0.55, 1.0)).collect();
            sim(&mut daemon)?
                .stage_utilizations(&utils)
                .map_err(|e| e.to_string())?;
            last_disturbance = p;
        }
        match p % DROPOUT_EVERY {
            x if x == DROPOUT_EVERY / 2 => {
                sim(&mut daemon)?
                    .server_mut()
                    .set_meter_fault(Some(MeterFault::Dropout));
                last_disturbance = p;
            }
            x if x == DROPOUT_EVERY / 2 + DROPOUT_LEN => {
                sim(&mut daemon)?.server_mut().set_meter_fault(None);
                last_disturbance = p;
            }
            _ => {}
        }
        if p > 0 && p % RELOAD_EVERY == 0 {
            write_config(&cfg_path, &journal, seed, setpoint(&mut rng))?;
            last_disturbance = p;
        }
        // -- one loop iteration ------------------------------------------
        let t0 = Instant::now();
        let report = trace::span("daemon.iteration", p, || {
            let report = trace::span("daemon.step_period", p, || daemon.step_period());
            trace::span("telemetry.render", p, || {
                std::hint::black_box(daemon.prometheus_text());
                std::hint::black_box(daemon.health_json());
            });
            if trace::span("daemon.config_poll", p, || watcher.changed()) {
                trace::span("daemon.reload", p, || -> Result<(), String> {
                    cfg = load(&cfg_path)?;
                    daemon.apply_reload(&cfg);
                    Ok(())
                })?;
            }
            report.map_err(|e| e.to_string())
        })?;
        let dt = t0.elapsed().as_secs_f64();
        out.iter_us.add(dt * 1e6);
        cycle_s += dt;
        out.digest.add(&report);
        out.tiers[usize::from(report.tier.as_u8())] += 1;
        let gap = report.avg_power_watts - report.effective_setpoint;
        out.over_ws += gap.max(0.0) * t;
        if report.tier == SupervisorTier::Primary
            && report.stale_periods == 0
            && p >= last_disturbance + SETTLE
        {
            out.err_sum += gap.abs();
            out.err_n += 1;
        }
        out.periods += 1;
        uptime += 1;
        // -- crash-restart ---------------------------------------------------
        if uptime == UPTIMES[next_crash] {
            add_stats(&mut out.journal, daemon.journal_stats());
            let backend = daemon.into_backend();
            cfg = load(&cfg_path)?;
            let t0 = Instant::now();
            let (d, recovered) =
                trace::span("daemon.restart", p, || restart(&journal, &cfg, backend))?;
            let dt = t0.elapsed().as_secs_f64();
            out.restart_ms.push(dt * 1e3);
            cycle_s += dt;
            daemon = d;
            watcher = ConfigWatcher::new(&cfg_path);
            out.recover_failed += u64::from(!recovered);
            out.digest.add(&(p, recovered));
            uptime = 0;
            next_crash = (next_crash + 1) % UPTIMES.len();
            last_disturbance = p + 1;
        }
        if out.periods % CYCLE == 0 {
            out.cycle_digest.get_or_insert(out.digest);
            out.cycle_s.push(std::mem::take(&mut cycle_s));
            between_cycles()?;
        }
    }
    add_stats(&mut out.journal, daemon.journal_stats());
    Ok(out)
}

/// Crash → ready again. Returns the daemon and whether journal replay
/// recovered it (false: it fell back to cold identification).
fn restart(
    journal: &Path,
    cfg: &DaemonConfig,
    backend: Box<dyn PowerBackend>,
) -> Result<(Daemon, bool), String> {
    let scan = trace::span("obs.read_dir", trace::INHERIT, || read_dir(journal))
        .map_err(|e| e.to_string())?;
    let state = trace::span("obs.replay", trace::INHERIT, || {
        ReplayState::replay(&scan.records)
    });
    let mut d = trace::span("daemon.new", trace::INHERIT, || {
        Daemon::new(cfg.clone(), backend)
    })
    .map_err(|e| e.to_string())?;
    if trace::span("daemon.recover", trace::INHERIT, || d.recover(&state)).is_ok() {
        return Ok((d, true));
    }
    trace::span("daemon.cold_identify", trace::INHERIT, || d.identify())
        .map_err(|e| e.to_string())?;
    Ok((d, false))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let root = work_dir("capgpud")?;
    let mut out = Outcome::default();
    // Set-up: `Daemon::new` + `identify`, sampled before, during (once
    // per restart cycle of the timed drive) and after the measured
    // drives, so the samples span the run like the loop's own; median.
    let mut setup = Vec::new();
    set_up(args.seed, &root, &mut setup, SETUP_REPS)?;
    let result = if args.trace {
        traced_run(args, &root, &mut out)
    } else {
        timed_run(args, &root, &mut out, &mut setup)
    };
    let result = result.and_then(|()| set_up(args.seed, &root, &mut setup, SETUP_REPS));
    out.set("setup_s", median(&setup), "s");
    let _ = std::fs::remove_dir_all(&root);
    result.map(|()| out)
}

const SETUP_REPS: usize = 8;

fn set_up(seed: u64, root: &Path, setup: &mut Vec<f64>, reps: usize) -> Result<(), String> {
    for k in 0..reps {
        let dir = fresh_dir(root, &format!("setup-{k}"))?;
        let path = dir.join("capgpud.toml");
        write_config(&path, &dir.join("journal"), seed, 1000.0)?;
        let cfg = DaemonConfig::load(&path).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let d = new_daemon(&cfg, false)?;
        setup.push(t0.elapsed().as_secs_f64());
        drop(d);
    }
    Ok(())
}

/// Loop host time of a drive's full cycles.
fn loop_seconds(d: &Drive) -> f64 {
    d.cycle_s.iter().sum()
}

fn timed_run(
    args: &Args,
    root: &Path,
    out: &mut Outcome,
    setup: &mut Vec<f64>,
) -> Result<(), String> {
    let t = DaemonConfig::default_sim().control_period_s as f64;
    let timed = drive(
        &fresh_dir(root, "timed")?,
        args.seed,
        Limit::Seconds(args.seconds),
        false,
        &mut || set_up(args.seed, root, setup, 1),
    )?;
    // Rerun identity over one full restart cycle.
    let reference = drive(
        &fresh_dir(root, "reference")?,
        args.seed,
        Limit::Periods(CYCLE),
        false,
        &mut || Ok(()),
    )?;
    out.attempted += timed.periods + timed.restart_ms.len() as u64 + CYCLE;
    let prefix = timed.cycle_digest.ok_or_else(|| {
        format!(
            "timed run covered only {} of {CYCLE} periods",
            timed.periods
        )
    })?;
    out.check("rerun over one restart cycle", reference.digest, prefix);

    out.set(
        "sim_server_s_per_s",
        CYCLE as f64 * t / median(&timed.cycle_s),
        "sim-s/s",
    );
    out.set("cycle_samples", timed.cycle_s.len() as f64, "count");
    out.set("period_us_p50", median(&timed.iter_us.xs), "us");
    out.set("period_us_p99", quantile(&timed.iter_us.xs, 0.99), "us");
    out.set("period_samples", timed.iter_us.seen as f64, "count");
    out.set("restart_ms_p50", median(&timed.restart_ms), "ms");
    out.set("restart_samples", timed.restart_ms.len() as f64, "count");
    // Simulated quality comes from the one-cycle reference run, so it
    // does not depend on how many periods fit in the time budget.
    let r = &reference;
    out.set(
        "recover_fail_ratio",
        r.recover_failed as f64 / r.restart_ms.len() as f64,
        "ratio",
    );
    out.set("track_err_w", r.err_sum / r.err_n.max(1) as f64, "W");
    out.set(
        "overshoot_ws_per_h",
        r.over_ws / (r.periods as f64 * t / 3600.0),
        "W.s/h",
    );
    Ok(())
}

/// Alternating untraced and traced drives of one restart cycle each,
/// until the time budget is spent. Every drive starts from the same
/// state, so every digest must agree.
fn traced_run(args: &Args, root: &Path, out: &mut Outcome) -> Result<(), String> {
    let mut summary = trace::Summary::new();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut last_spans = Vec::new();
    let mut traced = Drive::default();
    let mut expect = None;
    let start = Instant::now();
    while expect.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        let plain = drive(
            &fresh_dir(root, "plain")?,
            args.seed,
            Limit::Periods(CYCLE),
            false,
            &mut || Ok(()),
        )?;
        trace::set_enabled(true);
        let run = drive(
            &fresh_dir(root, "traced")?,
            args.seed,
            Limit::Periods(CYCLE),
            true,
            &mut || Ok(()),
        );
        trace::set_enabled(false);
        traced = run?;
        last_spans = trace::take();
        trace::fold(&mut summary, &last_spans);
        plain_s += loop_seconds(&plain);
        traced_s += loop_seconds(&traced);
        out.attempted += 2 * (CYCLE + plain.restart_ms.len() as u64);
        let expect = *expect.get_or_insert(plain.digest);
        out.check("untraced rerun", expect, plain.digest);
        out.check("traced vs untraced", expect, traced.digest);
    }
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_s / plain_s - 1.0),
        "%",
    );
    let get = |name: &str| summary.get(name).copied().unwrap_or_default();
    out.set("backend.advance_us", get("backend.advance").mean(1e3), "us");
    out.set("backend.actuate_us", get("backend.actuate").mean(1e3), "us");
    out.set("backend.sense_us", get("backend.sense").mean(1e3), "us");
    let step_self = get("daemon.step_period").self_mean(1e3);
    out.set("daemon.step_self_us", step_self, "us");
    out.set(
        "telemetry.render_us",
        get("telemetry.render").mean(1e3),
        "us",
    );
    out.set(
        "daemon.config_poll_us",
        get("daemon.config_poll").mean(1e3),
        "us",
    );
    out.set("obs.read_dir_ms", get("obs.read_dir").mean(1e6), "ms");
    out.set("obs.replay_ms", get("obs.replay").mean(1e6), "ms");
    out.set("daemon.recover_ms", get("daemon.recover").mean(1e6), "ms");
    let cold = get("daemon.cold_identify").mean(1e6);
    out.set("daemon.cold_identify_ms", cold, "ms");
    // Counts are per restart cycle (every drive is the same cycle).
    out.set("obs.journal_records", traced.journal.0 as f64, "count");
    out.set("obs.segments_sealed", traced.journal.1 as f64, "count");
    out.set("obs.segments_reaped", traced.journal.2 as f64, "count");
    out.set("daemon.periods.primary", traced.tiers[0] as f64, "count");
    out.set("daemon.periods.fallback", traced.tiers[1] as f64, "count");
    out.set("daemon.periods.park", traced.tiers[2] as f64, "count");
    out.set("daemon.restarts", traced.restart_ms.len() as f64, "count");
    out.set(
        "daemon.recover_failed",
        traced.recover_failed as f64,
        "count",
    );
    dump_spans("capgpud_loop", &last_spans)?;
    Ok(())
}
