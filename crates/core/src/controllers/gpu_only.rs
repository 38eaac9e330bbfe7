//! Tests of the GPU-Only arm of [`super::SharedClockController`]: one
//! clock shared by every GPU, the CPU pinned at its maximum.

mod tests {
    use capgpu_sim::DeviceKind;

    use crate::controllers::{ControlInput, DeviceLayout, PowerController, SharedClockController};

    fn layout() -> DeviceLayout {
        DeviceLayout::new(
            vec![
                DeviceKind::Cpu,
                DeviceKind::Gpu,
                DeviceKind::Gpu,
                DeviceKind::Gpu,
            ],
            vec![1000.0, 435.0, 435.0, 435.0],
            vec![2400.0, 1350.0, 1350.0, 1350.0],
        )
        .unwrap()
    }

    fn input<'a>(p: f64, sp: f64, targets: &'a [f64]) -> ControlInput<'a> {
        ControlInput {
            measured_power: p,
            setpoint: sp,
            current_targets: targets,
            normalized_throughput: &[],
            device_power: &[],
            floors: &[],
            phase_mix: None,
        }
    }

    #[test]
    fn all_gpus_share_one_clock_cpu_pinned() {
        let mut c = SharedClockController::gpu_only(layout(), 3.0 * 0.1475, 0.5).unwrap();
        assert_eq!(c.name(), "GPU-Only");
        let t = vec![1500.0, 700.0, 900.0, 1100.0];
        let out = c.control(&input(800.0, 900.0, &t)).unwrap();
        assert_eq!(out[0], 2400.0); // CPU pinned at max
        assert_eq!(out[1], out[2]);
        assert_eq!(out[2], out[3]);
    }

    #[test]
    fn converges_on_linear_plant() {
        let gain = 3.0 * 0.1475;
        let mut c = SharedClockController::gpu_only(layout(), gain, 0.5).unwrap();
        // Plant: p = 300 + cpu_power(max) + gain · shared_clock.
        let cpu_w = 170.0;
        let mut t = vec![2400.0, 435.0, 435.0, 435.0];
        let mut p = 300.0 + cpu_w + gain * 435.0;
        for _ in 0..40 {
            t = c.control(&input(p, 900.0, &t)).unwrap();
            p = 300.0 + cpu_w + gain * t[1];
        }
        assert!((p - 900.0).abs() < 1.0, "p = {p}");
    }

    #[test]
    fn needs_gpus() {
        let cpu_only_layout =
            DeviceLayout::new(vec![DeviceKind::Cpu], vec![1000.0], vec![2400.0]).unwrap();
        assert!(SharedClockController::gpu_only(cpu_only_layout, 0.4, 0.5).is_err());
    }
}
