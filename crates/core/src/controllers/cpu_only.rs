//! Tests of the CPU-Only arm of [`super::SharedClockController`]: one
//! clock shared by every CPU, the GPUs pinned at their maximum.

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
    fn actuates_cpu_pins_gpus_at_max() {
        let mut c = SharedClockController::cpu_only(layout(), 0.05, 0.5).unwrap();
        assert_eq!(c.name(), "CPU-Only");
        let t = vec![1500.0, 700.0, 900.0, 1100.0];
        let out = c.control(&input(1000.0, 900.0, &t)).unwrap();
        assert_eq!(out[1], 1350.0);
        assert_eq!(out[2], 1350.0);
        assert_eq!(out[3], 1350.0);
        assert!(out[0] < 1500.0, "over budget → CPU must drop: {out:?}");
    }

    #[test]
    fn cannot_cap_below_gpu_floor() {
        // The central claim of Fig. 3: with GPUs pinned at max, the CPU's
        // range is far too small to reach a 900 W cap on a GPU server.
        let gain = 0.05;
        let mut c = SharedClockController::cpu_only(layout(), gain, 0.5).unwrap();
        // Plant: GPUs pinned at max draw ~3×250 W, platform 300 W.
        let fixed = 300.0 + 3.0 * 250.0;
        let mut t = vec![2400.0, 1350.0, 1350.0, 1350.0];
        let mut p = fixed + gain * t[0];
        for _ in 0..60 {
            t = c.control(&input(p, 900.0, &t)).unwrap();
            p = fixed + gain * t[0];
        }
        // CPU saturates at its minimum; power floor ≈ 1100 W >> 900 W.
        assert_eq!(t[0], 1000.0);
        assert!(p > 1000.0, "CPU-Only magically capped to {p} W");
    }

    #[test]
    fn needs_cpus() {
        let gpu_layout =
            DeviceLayout::new(vec![DeviceKind::Gpu], vec![435.0], vec![1350.0]).unwrap();
        assert!(SharedClockController::cpu_only(gpu_layout, 0.05, 0.5).is_err());
    }
}
