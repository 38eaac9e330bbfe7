//! The supervised control core shared by the experiment runner and
//! `capgpud`: the paper's §4 loop has one structure whether the meter is
//! ACPI or simulated. Both callers identify through [`identify`], build
//! the ladder with [`Supervision::new`], measure with [`period_average`],
//! decide with [`decide`] and gate refits with [`RefitPush`].
//!
//! What stays with each caller is what really differs: the runner
//! modulates its targets every second and the daemon commands once per
//! period; the runner's tracker uses a quasi-steady gate and a
//! condition guard and refits before the solve, the daemon's refits
//! after actuation and only on the primary tier; and each journals in
//! its own vocabulary.

use capgpu_backend::PowerBackend;
use capgpu_control::model::LinearPowerModel;
use capgpu_control::sysid::{
    ExcitationPlan, IdentifiedModel, ScaledModelTracker, SystemIdentifier,
};

use crate::controllers::{
    sized_safe_fixed_step, ControlInput, DeviceLayout, PowerController, SafeFixedStepController,
};
use crate::supervisor::{Directive, HealthSample, Supervisor, SupervisorConfig, SupervisorTier};
use crate::{CapGpuError, Result};

/// Relative deadband on the tracked gain scale below which a refreshed
/// model is *not* pushed to the controller. The streaming estimate
/// wiggles by a few percent under meter noise even on a stationary
/// plant; pushing every wiggle makes the MPC retune constantly and
/// costs more cap-tracking error than the stale-by-ε model does. Real
/// drift (tens of percent) clears the band within a few periods.
const SCALE_PUSH_DEADBAND: f64 = 0.05;

/// One control period's measured power from its `fresh` meter samples.
///
/// Averaging the last `period` samples unconditionally would silently
/// blend pre-dropout samples still in the ring buffer into a "fresh"
/// reading; instead a partial-dropout period averages only what the meter
/// actually produced this period, and a fully silent period holds `last`
/// and is flagged stale (`true`) — the supervisor's staleness watchdog
/// keys on exactly this.
pub(crate) fn period_average<B: PowerBackend + ?Sized>(
    backend: &B,
    fresh: usize,
    last: f64,
) -> (f64, bool) {
    if fresh > 0 {
        (backend.average_power(fresh).unwrap_or(last), false)
    } else {
        (last, true)
    }
}

/// What the identification sweep produced.
#[derive(Debug)]
pub(crate) struct Identification {
    /// The fitted `p = A·F + C` model.
    pub fitted: IdentifiedModel,
    /// Excitation points visited.
    pub points: usize,
    /// Effective frequencies at the last excitation point (MHz).
    pub applied: Vec<f64>,
    /// The streaming tracker anchored at the fit and seeded with the
    /// sweep's samples, when a forgetting factor was given.
    pub tracker: Option<ScaledModelTracker>,
}

/// Runs the paper's system-identification procedure (§4.2): sweep each
/// device's frequency with the others held at `hold_fraction` of their
/// range, dwell `period_s` one-second steps per point, fit `p = A·F + C`.
///
/// `second` advances the plant one second at the given effective
/// frequencies and returns the meter sample, if any. With a
/// `forgetting` factor the sweep's samples also seed a streaming
/// tracker, so the first closed-loop refits do not overweight a handful
/// of near-steady-state samples.
///
/// # Errors
/// Propagates excitation-plan, backend, hook and fitting errors.
pub(crate) fn identify<B: PowerBackend + ?Sized>(
    backend: &mut B,
    layout: &DeviceLayout,
    hold_fraction: f64,
    steps_per_device: usize,
    period_s: usize,
    forgetting: Option<f64>,
    mut second: impl FnMut(&mut B, &[f64]) -> Result<Option<f64>>,
) -> Result<Identification> {
    let hold = layout
        .f_min
        .iter()
        .zip(layout.f_max.iter())
        .map(|(lo, hi)| lo + hold_fraction * (hi - lo))
        .collect();
    let plan = ExcitationPlan::new(
        layout.f_min.clone(),
        layout.f_max.clone(),
        hold,
        steps_per_device,
    )?;
    let mut ident = SystemIdentifier::new(layout.len());
    let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut applied = Vec::with_capacity(layout.len());
    for point in plan.points() {
        backend.set_frequencies(&point)?;
        // Effective = applied clamped by any active thermal throttle.
        backend.effective_frequencies_into(&mut applied)?;
        // Dwell one control period; the plant runs at these clocks.
        let mut power_sum = 0.0;
        let mut samples = 0usize;
        for _ in 0..period_s {
            if let Some(p) = second(backend, &applied)? {
                power_sum += p;
                samples += 1;
            }
        }
        if samples > 0 {
            let p_mean = power_sum / samples as f64;
            ident.record(&applied, p_mean);
            if forgetting.is_some() {
                rows.push((applied.clone(), p_mean));
            }
        }
    }
    let fitted = ident.fit()?;
    let tracker = match forgetting {
        Some(forgetting) => {
            let mut tracker = ScaledModelTracker::new(fitted.model.clone(), forgetting)?;
            for (row, p_mean) in &rows {
                tracker.record(row, *p_mean);
            }
            Some(tracker)
        }
        None => None,
    };
    Ok(Identification {
        fitted,
        points: plan.len(),
        applied,
        tracker,
    })
}

/// The supervisor and the model-free rung it falls back to: a safe
/// fixed-step controller at step 1, sized from the identified gains
/// and the meter noise.
#[derive(Debug)]
pub(crate) struct Supervision {
    pub(crate) supervisor: Supervisor,
    fallback: SafeFixedStepController,
    /// Per-device ejected flags (scratch, refreshed every decision).
    ejected: Vec<bool>,
}

impl Supervision {
    /// Builds the ladder for `layout` from the identified `gains`.
    ///
    /// # Errors
    /// [`CapGpuError::BadConfig`] on invalid thresholds or a gains/device
    /// count mismatch.
    pub(crate) fn new(
        cfg: SupervisorConfig,
        layout: &DeviceLayout,
        gains: &[f64],
        meter_noise_std: f64,
    ) -> Result<Self> {
        Ok(Supervision {
            supervisor: Supervisor::new(cfg, gains.to_vec(), layout.len())?,
            fallback: sized_safe_fixed_step(layout, gains, 1, meter_noise_std),
            ejected: vec![false; layout.len()],
        })
    }
}

/// One supervised control decision.
///
/// `input` carries the operator set-point. With a supervisor the
/// period's evidence (`fresh_samples`, the meter's age, the PSU limit,
/// `applied_mean` and the ejected flags) goes through
/// [`Supervisor::step`] first, and the rung it picks regulates to the
/// effective set-point: the primary controller, the safe fallback, or
/// park at `input.floors`. Quarantined devices are then pinned at
/// their hardware floor. Without a supervisor the primary acts alone.
///
/// # Errors
/// Controller errors; [`CapGpuError::BadConfig`] when the acting
/// controller returns the wrong number of targets.
pub(crate) fn decide<B: PowerBackend + ?Sized, C: PowerController + ?Sized>(
    mut supervision: Option<&mut Supervision>,
    primary: &mut C,
    backend: &B,
    layout: &DeviceLayout,
    fresh_samples: usize,
    applied_mean: &[f64],
    input: &ControlInput<'_>,
) -> Result<(Vec<f64>, Directive)> {
    let mut directive = Directive {
        tier: SupervisorTier::Primary,
        effective_setpoint: input.setpoint,
        authority_lost: false,
        stale_periods: 0,
    };
    if let Some(sup) = supervision.as_deref_mut() {
        for (d, flag) in sup.ejected.iter_mut().enumerate() {
            *flag = backend.is_ejected(d);
        }
        directive = sup.supervisor.step(&HealthSample {
            fresh_samples,
            meter_age_s: backend.seconds_since_sample(),
            avg_power: input.measured_power,
            setpoint: input.setpoint,
            psu_limit: backend.psu_limit(),
            applied_mean,
            ejected: &sup.ejected,
        });
    }
    let input = ControlInput {
        setpoint: directive.effective_setpoint,
        ..*input
    };
    let mut targets = match (directive.tier, supervision.as_deref_mut()) {
        (SupervisorTier::SafeFallback, Some(sup)) => sup.fallback.control(&input)?,
        // No trustworthy feedback at all: park at the floors (SLO
        // floors where set, else the hardware minima).
        (SupervisorTier::Park, _) => input.floors.to_vec(),
        _ => primary.control(&input)?,
    };
    if targets.len() != layout.len() {
        return Err(CapGpuError::BadConfig(format!(
            "controller returned {} targets for {} devices",
            targets.len(),
            layout.len()
        )));
    }
    // Quarantine: a device that was ejected is pinned at its hardware
    // floor after re-admission until it stays healthy for the recovery
    // window, so a flapping GPU cannot whipsaw the budget
    // redistribution.
    if let Some(sup) = supervision {
        for ((t, &q), &lo) in targets
            .iter_mut()
            .zip(sup.supervisor.quarantined())
            .zip(&layout.f_min)
        {
            if q {
                *t = lo;
            }
        }
    }
    Ok((targets, directive))
}

/// Gates tracked refits on their way into the primary controller: a
/// refit is pushed only when its gain scale left the
/// [`SCALE_PUSH_DEADBAND`] around the last pushed scale.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RefitPush {
    pushed_scale: f64,
}

impl Default for RefitPush {
    fn default() -> Self {
        RefitPush { pushed_scale: 1.0 }
    }
}

impl RefitPush {
    /// Pushes `model` into `controller` when `scale` moved out of the
    /// deadband; returns whether it did.
    ///
    /// # Errors
    /// Propagates the controller's model-update error.
    pub(crate) fn offer<C: PowerController + ?Sized>(
        &mut self,
        controller: &mut C,
        model: &LinearPowerModel,
        scale: f64,
    ) -> Result<bool> {
        let moved = (scale - self.pushed_scale).abs() > SCALE_PUSH_DEADBAND * self.pushed_scale;
        if !moved {
            return Ok(false);
        }
        controller.set_power_model(model)?;
        self.pushed_scale = scale;
        Ok(true)
    }
}
