//! Allocation budgets for the `capgpud` publication path (the
//! `/metrics` exposition, the `/healthz` body and the durable-journal
//! append) and for the control periods of both loops: one
//! `Daemon::step_period` and one `ExperimentRunner::run` period on the
//! paper, serving and LLM testbeds. A counting global allocator makes
//! these host-independent checks — unlike wall-clock gates they cannot
//! go red on a slow machine. Counts are per thread, so tests running in
//! parallel do not pollute each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use capgpu::config::Scenario;
use capgpu::daemon::{Daemon, DaemonConfig};
use capgpu::runner::ExperimentRunner;
use capgpu_obs::rotate::{JournalWriter, RotationConfig};
use capgpu_telemetry::registry::Registry;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: allocations during thread teardown are not ours.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations
/// (fresh or growing) it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("capgpu-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// After a 200-period warm-up, one `/metrics` render allocates only the
/// string it returns (≤ 2 allows one growth when a value widens), and
/// so does one `/healthz` body.
#[test]
fn daemon_publication_stays_within_two_allocations() {
    let dir = temp_dir("daemon");
    let mut cfg = DaemonConfig::default_sim();
    cfg.journal_dir = Some(dir.clone());
    let backend = cfg.build_backend().unwrap();
    let mut d = Daemon::new(cfg, backend).unwrap();
    d.identify().unwrap();
    for _ in 0..200 {
        d.step_period().unwrap();
        std::hint::black_box(d.prometheus_text());
        std::hint::black_box(d.health_json());
    }
    for _ in 0..50 {
        d.step_period().unwrap();
        let (text, n) = allocations(|| d.prometheus_text());
        assert!(n <= 2, "prometheus_text made {n} allocations");
        assert!(text.contains("capgpud_periods_total"));
        let (json, n) = allocations(|| d.health_json());
        assert!(n <= 2, "health_json made {n} allocations");
        assert!(json.starts_with("{\"tier\":"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rendering the live registry into a buffer with room allocates
/// nothing, whatever the series count.
#[test]
fn registry_render_allocates_nothing_at_any_series_count() {
    for series in [14, 200, 1000] {
        let mut reg = Registry::new();
        for i in 0..series {
            let dev = format!("gpu\"{i}\"\\\n");
            let labels = [("backend", "sim"), ("device", dev.as_str())];
            match i % 3 {
                0 => {
                    let c = reg.counter("events_total", &labels);
                    reg.inc(c, i as u64);
                }
                1 => {
                    let g = reg.gauge("power_watts", &labels);
                    reg.set(g, 898.5 + i as f64);
                }
                _ => {
                    let h = reg.histogram("latency_s", &labels, &[0.5, 1.0, 2.0]);
                    reg.observe(h, 0.25 * i as f64);
                }
            }
        }
        reg.set_help("power_watts", "Server power\nin watts \\ W");
        let mut out = String::new();
        reg.write_prometheus_text(&mut out);
        let len = out.len();
        out.clear();
        let ((), n) = allocations(|| reg.write_prometheus_text(&mut out));
        assert_eq!(n, 0, "{series} series: {n} allocations");
        assert_eq!(out.len(), len);
    }
}

/// An append to an already-open segment is one write from a reused
/// buffer: no allocation.
#[test]
fn journal_append_allocates_nothing_on_an_open_segment() {
    let dir = temp_dir("append");
    let cfg = RotationConfig {
        max_segment_bytes: 1 << 30,
        ..RotationConfig::default()
    };
    let mut w = JournalWriter::create(&dir, cfg).unwrap();
    let line = |i: u64| {
        format!(
            "{{\"v\":1,\"period\":{i},\"t_s\":{},\"kind\":\"period\"}}",
            4 * i
        )
    };
    w.append(&line(0), 0.0).unwrap();
    for i in 1..100 {
        let record = line(i);
        let (r, n) = allocations(|| w.append(&record, 4.0 * i as f64));
        r.unwrap();
        assert_eq!(n, 0, "append {i}: {n} allocations");
    }
    assert_eq!(w.stats().0, 100);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `capgpud` control period (sense, supervise, solve, actuate,
/// refit, journal, analyzer) on the 2-GPU sim testbed with the durable
/// journal on, after a 200-period warm-up. The bound is the most any of
/// 50 periods allocated when the budget was set.
#[test]
fn daemon_step_period_stays_within_budget() {
    const BUDGET: u64 = 62;
    let dir = temp_dir("step");
    let mut cfg = DaemonConfig::default_sim();
    cfg.journal_dir = Some(dir.clone());
    let backend = cfg.build_backend().unwrap();
    let mut d = Daemon::new(cfg, backend).unwrap();
    d.identify().unwrap();
    for _ in 0..200 {
        d.step_period().unwrap();
    }
    for i in 0..50 {
        let (r, n) = allocations(|| d.step_period());
        r.unwrap();
        assert!(n <= BUDGET, "period {i}: step_period made {n} allocations");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Allocations of closed-loop CapGPU periods 21–40 of a run on an
/// identified runner: the 40-period run's count minus the 20-period
/// run's, both from clones of one identified runner.
fn run_period_allocations(scenario: Scenario) -> u64 {
    let mut runner = ExperimentRunner::new(scenario, 900.0).unwrap();
    runner.identify().unwrap();
    let count = |periods: usize| {
        let mut r = runner.clone();
        let controller = r.build_capgpu_controller().unwrap();
        let (trace, n) = allocations(|| r.run(controller, periods));
        assert_eq!(trace.unwrap().records.len(), periods);
        n
    };
    let short = count(20);
    count(40) - short
}

/// Twenty `ExperimentRunner::run` periods on each GPU-side plant — the
/// pipeline model, request-level serving and two-phase LLM serving —
/// stay within the allocations they made when the budget was set (the
/// per-period record, monitor and solver vectors; the per-second plant
/// loop itself allocates nothing but latency-tracker growth).
#[test]
fn runner_periods_stay_within_budget() {
    for (name, scenario, budget) in [
        ("paper", Scenario::paper_testbed(7), 745),
        ("serving", Scenario::serving_testbed(7), 745),
        ("llm", Scenario::llm_testbed(7), 750),
    ] {
        let n = run_period_allocations(scenario);
        assert!(n <= budget, "{name}: 20 periods made {n} allocations");
    }
}
