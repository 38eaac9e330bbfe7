//! The GPU-Only and CPU-Only baselines (§6.1 baselines 2 and 3): one
//! pole-placed proportional loop driving total server power through a
//! **single shared clock** applied to every device of one kind, with
//! every device of the other kind pinned at its maximum frequency.
//!
//! * **GPU-Only** (after OptimML) moves one clock shared by all GPUs;
//!   "the CPU frequency must be set to the maximum level throughout the
//!   process". It converges cleanly but cannot differentiate GPUs — the
//!   source of its SLO violations in Fig. 8.
//! * **CPU-Only** (after IBM server-level control) "retains the
//!   proportional control logic of GPU-Only but actuates only the CPU
//!   DVFS knobs … The CPU-Only applies a single frequency to all the CPU
//!   cores of the server." GPUs stay at their maximum clock — the
//!   controller simply has no GPU authority, which is exactly why it
//!   cannot cap a GPU server (Fig. 3).

use capgpu_control::pid::ProportionalController;
use capgpu_sim::DeviceKind;

use crate::{CapGpuError, Result};

use super::{ControlInput, DeviceLayout, PowerController};

/// A shared-clock proportional controller over one device kind.
#[derive(Debug)]
pub struct SharedClockController {
    name: &'static str,
    layout: DeviceLayout,
    /// Devices that follow the shared clock.
    actuated: Vec<usize>,
    /// Devices pinned at their maximum frequency.
    pinned: Vec<usize>,
    pid: ProportionalController,
    /// The shared clock currently commanded (MHz).
    shared_clock: f64,
}

impl SharedClockController {
    /// The GPU-Only baseline: the shared clock starts at the GPUs'
    /// floor and the CPU is pinned at its maximum.
    ///
    /// `summed_gpu_gain` is the plant gain seen by the shared knob — the
    /// sum of all GPUs' W/MHz gains (from system identification);
    /// `pole ∈ [0, 1)` is placed per §6.1 ("chosen to minimize
    /// oscillations"; 0.5 is a good default).
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] if the layout has no GPUs; propagates
    /// pole-placement errors.
    pub fn gpu_only(layout: DeviceLayout, summed_gpu_gain: f64, pole: f64) -> Result<Self> {
        Self::new("GPU-Only", DeviceKind::Gpu, layout, summed_gpu_gain, pole)
    }

    /// The CPU-Only baseline: the shared clock starts at the CPUs'
    /// maximum and the GPUs are pinned at theirs. Takes the summed CPU
    /// gain (W/MHz) and the desired closed-loop pole.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] without CPUs; pole-placement errors.
    pub fn cpu_only(layout: DeviceLayout, summed_cpu_gain: f64, pole: f64) -> Result<Self> {
        Self::new("CPU-Only", DeviceKind::Cpu, layout, summed_cpu_gain, pole)
    }

    fn new(
        name: &'static str,
        kind: DeviceKind,
        layout: DeviceLayout,
        summed_gain: f64,
        pole: f64,
    ) -> Result<Self> {
        let (actuated, pinned): (Vec<usize>, Vec<usize>) =
            (0..layout.len()).partition(|&i| layout.kinds[i] == kind);
        if actuated.is_empty() {
            return Err(CapGpuError::BadConfig(format!(
                "{name} needs >= 1 {kind:?}"
            )));
        }
        // All actuated devices share one clock: use the tightest common
        // range.
        let f_min = actuated
            .iter()
            .map(|&i| layout.f_min[i])
            .fold(f64::NEG_INFINITY, f64::max);
        let f_max = actuated
            .iter()
            .map(|&i| layout.f_max[i])
            .fold(f64::INFINITY, f64::min);
        let pid = ProportionalController::pole_placed(summed_gain, pole, f_min, f_max)?;
        Ok(SharedClockController {
            name,
            shared_clock: match kind {
                DeviceKind::Gpu => f_min,
                DeviceKind::Cpu => f_max,
            },
            layout,
            actuated,
            pinned,
            pid,
        })
    }
}

impl PowerController for SharedClockController {
    fn name(&self) -> &str {
        self.name
    }

    fn control(&mut self, input: &ControlInput<'_>) -> Result<Vec<f64>> {
        self.shared_clock = self
            .pid
            .step(input.measured_power, input.setpoint, self.shared_clock);
        let mut targets = input.current_targets.to_vec();
        for &i in &self.actuated {
            targets[i] = self.shared_clock;
        }
        for &i in &self.pinned {
            targets[i] = self.layout.f_max[i];
        }
        Ok(targets)
    }
}
