//! Controller-overhead benchmarks.
//!
//! The paper (§4.3) claims: "The MPC controller has small overhead and can
//! complete its computation in just a few milliseconds when a server has
//! about 4 to 8 GPUs." This bench measures one full MPC control-period
//! computation (QP build + active-set solve) as the GPU count and the
//! horizons scale, plus the baselines for comparison.

use capgpu::controllers::{ControlInput, DeviceLayout, PowerController};
use capgpu::prelude::*;
use capgpu::weights::WeightAssigner;
use capgpu_control::model::LinearPowerModel;
use capgpu_control::mpc::MpcConfig;
use capgpu_sim::DeviceKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn layout(num_gpus: usize) -> DeviceLayout {
    let mut kinds = vec![DeviceKind::Cpu];
    let mut f_min = vec![1000.0];
    let mut f_max = vec![2400.0];
    for _ in 0..num_gpus {
        kinds.push(DeviceKind::Gpu);
        f_min.push(435.0);
        f_max.push(1350.0);
    }
    DeviceLayout::new(kinds, f_min, f_max).unwrap()
}

fn model(num_gpus: usize) -> LinearPowerModel {
    let mut gains = vec![0.05];
    gains.extend(std::iter::repeat_n(0.1475, num_gpus));
    LinearPowerModel::new(gains, 330.0).unwrap()
}

fn input_for<'a>(
    n: usize,
    targets: &'a [f64],
    thr: &'a [f64],
    floors: &'a [f64],
) -> ControlInput<'a> {
    let _ = n;
    ControlInput {
        measured_power: 850.0,
        setpoint: 900.0,
        current_targets: targets,
        normalized_throughput: thr,
        device_power: &[],
        floors,
        phase_mix: None,
    }
}

fn bench_mpc_vs_gpu_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpc_step_vs_gpu_count");
    for num_gpus in [1usize, 2, 4, 8] {
        let n = num_gpus + 1;
        let lay = layout(num_gpus);
        let mut ctrl =
            CapGpuController::new(&lay, model(num_gpus), WeightAssigner::default()).unwrap();
        let targets: Vec<f64> = lay
            .f_min
            .iter()
            .zip(lay.f_max.iter())
            .map(|(lo, hi)| 0.5 * (lo + hi))
            .collect();
        let thr = vec![0.8; n];
        let floors = lay.f_min.clone();
        group.bench_with_input(BenchmarkId::from_parameter(num_gpus), &num_gpus, |b, _| {
            b.iter(|| {
                let input = input_for(n, &targets, &thr, &floors);
                black_box(ctrl.control(black_box(&input)).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_mpc_vs_horizon(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpc_step_vs_prediction_horizon");
    for p in [4usize, 8, 16, 32] {
        let lay = layout(3);
        let mut config = MpcConfig::paper_defaults(lay.f_min.clone(), lay.f_max.clone());
        config.prediction_horizon = p;
        config.q_weights = vec![1.0; p];
        let mut ctrl = CapGpuController::with_config(
            config,
            model(3),
            WeightAssigner::default(),
            format!("CapGPU P={p}"),
        )
        .unwrap();
        let targets = vec![1700.0, 900.0, 900.0, 900.0];
        let thr = vec![0.8; 4];
        let floors = lay.f_min.clone();
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| {
                let input = input_for(4, &targets, &thr, &floors);
                black_box(ctrl.control(black_box(&input)).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline_controllers_step");
    let lay = layout(3);
    let targets = vec![1700.0, 900.0, 900.0, 900.0];
    let thr = vec![0.8; 4];
    let floors = lay.f_min.clone();
    let dev_power = vec![100.0, 150.0, 150.0, 150.0];

    let mut fixed = FixedStepController::new(lay.clone(), 1);
    group.bench_function("fixed_step", |b| {
        b.iter(|| {
            let input = ControlInput {
                device_power: &dev_power,
                ..input_for(4, &targets, &thr, &floors)
            };
            black_box(fixed.control(black_box(&input)).unwrap())
        })
    });

    let mut gpu_only = SharedClockController::gpu_only(lay.clone(), 0.44, 0.5).unwrap();
    group.bench_function("gpu_only", |b| {
        b.iter(|| {
            let input = ControlInput {
                device_power: &dev_power,
                ..input_for(4, &targets, &thr, &floors)
            };
            black_box(gpu_only.control(black_box(&input)).unwrap())
        })
    });

    let mut split = CpuGpuSplitController::new(lay, 0.05, 0.44, 0.6, 0.5).unwrap();
    group.bench_function("cpu_gpu_split", |b| {
        b.iter(|| {
            let input = ControlInput {
                device_power: &dev_power,
                ..input_for(4, &targets, &thr, &floors)
            };
            black_box(split.control(black_box(&input)).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mpc_vs_gpu_count,
    bench_mpc_vs_horizon,
    bench_baselines
);
criterion_main!(benches);
