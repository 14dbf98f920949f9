"""Two-node winding/housing thermal model with liquid-cooling switch,
target-driven calibration, continuous operating limits, and power-flow
accounting for lift experiments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import simkit
from .lintf import csv_table, zoh_discretize
from .vlca import ActuatorParams, DEFAULT_MOMENT_ARM, VLCA_ACTUATOR


class CalibrationInfeasible(ValueError):
    """No parameter set inside the search bounds meets the targets: bad
    input. Carries the residuals of the best point found."""

    def __init__(self, message: str, residuals: Optional[dict] = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


@dataclass(frozen=True)
class ThermalParams:
    c_winding: float       # winding lump heat capacity [J/K]
    c_housing: float       # housing lump heat capacity [J/K]
    r_wh: float            # winding-to-housing resistance [K/W]
    r_ha_on: float         # housing-to-ambient resistance, coolant on [K/W]
    r_ha_off: float        # housing-to-ambient resistance, coolant off [K/W]
    r_elec_25: float = 0.45   # electrical resistance at 25 C [ohm]
    alpha: float = 0.0039     # copper resistance temperature coeff [1/K]
    ambient_c: float = 25.0
    limit_c: float = 155.0    # winding insulation limit

    def __post_init__(self):
        if min(self.c_winding, self.c_housing, self.r_wh, self.r_ha_on,
               self.r_ha_off, self.r_elec_25) <= 0.0:
            raise ValueError("capacities and resistances must be positive")
        if self.r_ha_on > self.r_ha_off:
            raise ValueError("coolant flow cannot raise the housing-to-"
                             "ambient resistance (need r_ha_on <= r_ha_off)")
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if self.limit_c < self.ambient_c:
            raise ValueError("limit_c must not be below ambient_c")

    def r_ha(self, cooling_on: bool) -> float:
        return self.r_ha_on if cooling_on else self.r_ha_off

    def resistance_at(self, t_winding_c: float) -> float:
        return self.r_elec_25 * (1.0 + self.alpha * (t_winding_c - 25.0))


@dataclass(frozen=True)
class ThermalState:
    t_winding: float  # [C]
    t_housing: float  # [C]


def _propagator(params: ThermalParams, cooling_on: bool, dt: float):
    """Exact zero-order-hold update of the two-node network over dt, as the
    2 x 3 block [Ad | Bd] of rise' = Ad rise + Bd power, where rise is each
    node's temperature above ambient. A map that leaves the floats is
    reported by the run's NonFiniteState, so numpy stays quiet here."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g_wh = 1.0 / params.r_wh
        g_ha = 1.0 / params.r_ha(cooling_on)
        caps = np.array([[params.c_winding], [params.c_housing]])
        a = np.array([[-g_wh, g_wh], [g_wh, -(g_wh + g_ha)]]) / caps
        return np.hstack(zoh_discretize(a, [1.0 / params.c_winding, 0.0],
                                        dt))


def steady_state_winding(current_a: float, params: ThermalParams,
                         cooling_on: bool = True) -> float:
    """Self-consistent settled winding temperature at a held current,
    accounting for resistance growth with temperature. Returns inf on
    thermal runaway."""
    s = params.r_wh + params.r_ha(cooling_on)
    k = current_a ** 2 * params.r_elec_25 * s
    denom = 1.0 - k * params.alpha
    if denom <= 0.0:
        return math.inf
    return (params.ambient_c + k * (1.0 - 25.0 * params.alpha)) / denom


@dataclass
class ThermalTrace:
    t: np.ndarray
    current_a: np.ndarray
    t_winding: np.ndarray
    t_housing: np.ndarray
    cooling_on: bool
    meta: dict = field(default_factory=dict)

    @property
    def peak_winding(self) -> float:
        return float(self.t_winding.max())


THERMAL_CSV_HEADER = "t_s,i_A,T_winding_C,T_housing_C,cooling"


def thermal_trace_to_csv(trace: ThermalTrace) -> str:
    return csv_table(THERMAL_CSV_HEADER, (
        trace.t, trace.current_a, trace.t_winding, trace.t_housing,
        np.full(len(trace.t), float(trace.cooling_on))))


def simulate_constant_current(current_a: float, duration_s: float,
                              params: ThermalParams, cooling_on: bool = True,
                              dt: float = 1e-3,
                              initial: Optional[ThermalState] = None
                              ) -> ThermalTrace:
    if not 0.0 < dt <= 0.010:
        raise ValueError("dt must be within (0, 10 ms]")
    n = simkit.control_steps(duration_s, "duration_s", dt)
    state = initial or ThermalState(params.ambient_c, params.ambient_c)
    amb = params.ambient_c
    # x is each node's rise above ambient; the winding power, at
    # resistance_at(amb + x0) in its operation order, is held over a period
    rise, = simkit._simulate(
        "powertherm.simulate_constant_current",
        {"a": (_propagator(params, cooling_on, dt), n)},
        [state.t_winding - amb, state.t_housing - amb],
        body=["u = i2 * (r25 * (1.0 + alpha * (amb + x0 - 25.0)))"],
        period_s=dt, i2=current_a ** 2, r25=params.r_elec_25,
        alpha=params.alpha, amb=amb)
    return ThermalTrace(t=np.arange(n + 1) * dt,
                        current_a=np.full(n + 1, current_a),
                        t_winding=amb + rise[:, 0], t_housing=amb + rise[:, 1],
                        cooling_on=cooling_on)


def continuous_current_limit(params: ThermalParams,
                             cooling_on: bool = True) -> float:
    """Largest held current whose settled winding temperature stays at
    the insulation limit."""
    s = params.r_wh + params.r_ha(cooling_on)
    r_hot = params.resistance_at(params.limit_c)
    return math.sqrt((params.limit_c - params.ambient_c) / (r_hot * s))


@dataclass(frozen=True)
class ContinuousRating:
    current_a: float
    screw_force_n: float
    joint_torque_nm: float


def continuous_force_limit(params: ThermalParams,
                           actuator: ActuatorParams = VLCA_ACTUATOR,
                           cooling_on: bool = True) -> ContinuousRating:
    i = continuous_current_limit(params, cooling_on)
    f = actuator.drive_constant * i
    return ContinuousRating(current_a=i, screw_force_n=f,
                            joint_torque_nm=f * DEFAULT_MOMENT_ARM)


# ---------------------------------------------------------- calibration

@dataclass(frozen=True)
class ThermalTargets:
    """Bench observations the model is fitted to."""

    cooled_ratio: float = 3.59       # continuous current gain from coolant
    hold_force_n: float = 860.0      # force held indefinitely with coolant
    hold_settle_c: float = 115.0     # settled winding temperature there
    burst_current_a: float = 31.0
    burst_duration_s: float = 0.5
    burst_peak_c: float = 107.0      # winding peak after the burst

    def __post_init__(self):
        if self.cooled_ratio < 1.0:
            raise ValueError("cooled_ratio must be >= 1")
        if min(self.hold_force_n, self.burst_current_a,
               self.burst_duration_s) <= 0.0:
            raise ValueError("targets must be positive")


@dataclass(frozen=True)
class CalibrationReport:
    params: ThermalParams
    residuals: dict


_WH_SHARE = 0.01             # winding-to-housing share of the cooled loop
_LOG_CAP_BOUNDS = (math.log(0.05), math.log(5000.0))  # capacity bracket [J/K]
_TARGET_TOL = 0.05           # all targets must close within 5%


def _illinois_root(f, a: float, b: float):
    """(x, f(x)) at a root of f between a and b by Illinois regula falsi
    (Dowell & Jarratt, BIT 11, 1971), run until the next iterate is not
    strictly inside the bracket; without a sign change, the nearer end."""
    fa, fb = f(a), f(b)
    if fa * fb > 0.0:
        return (a, fa) if abs(fa) <= abs(fb) else (b, fb)
    wa = fa  # f(a), halved each time b moves and a stays
    while True:
        c = b - fb * (b - a) / (fb - wa)
        if not min(a, b) < c < max(a, b):
            return (a, fa) if abs(fa) < abs(fb) else (b, fb)
        fc = f(c)
        if fc * fb < 0.0:
            a, fa, wa = b, fb, fb
        else:
            wa /= 2.0
        b, fb = c, fc


def calibrate_thermal(actuator: ActuatorParams = VLCA_ACTUATOR,
                      targets: ThermalTargets = ThermalTargets()
                      ) -> CalibrationReport:
    """Fit the network to the bench targets (see _fit_network). The fit is
    memoized per process on (actuator, targets), so a sweep, which checks
    every combination before it runs them, calibrates each actuator once.
    The memo has no bound: a sweep has at most MAX_SWEEP_RUNS actuators,
    and an entry is one ThermalParams. Every call gets a residuals dict of
    its own."""
    params, residuals = _fit_network(actuator, targets)
    return CalibrationReport(params=params, residuals=dict(residuals))


@functools.cache
def _fit_network(actuator: ActuatorParams, targets: ThermalTargets):
    """(ThermalParams, residual (name, value) pairs) of the fit.

    The settled-temperature target fixes the cooled loop resistance in
    closed form and the coolant gain the ambient-path resistance ratio,
    r_ha_off = ratio^2 * r_ha_on; with r_wh in both paths, the current
    limits' ratio misses the gain slightly (3.5734 against 3.59). The
    burst peak is one root find on a path of log-capacities along which
    it falls: c_winding rises from the 0.05 J/K floor to 1 J/K, the
    model's choice, then c_housing from the floor to the 5000 J/K
    ceiling, then c_winding to the ceiling. With no root on the path, the
    end nearer the target goes to the 5% check. The electrical
    resistance, ambient and limit keep ThermalParams' defaults.
    """
    i_hold = targets.hold_force_n / actuator.drive_constant
    rise = targets.hold_settle_c - ThermalParams.ambient_c
    if rise <= 0.0:
        raise CalibrationInfeasible("settle target below ambient")
    r_hold = ThermalParams.r_elec_25 * (
        1.0 + ThermalParams.alpha * (targets.hold_settle_c - 25.0))
    s_on = rise / (i_hold ** 2 * r_hold)
    r_wh = _WH_SHARE * s_on
    r_ha_on = s_on - r_wh
    r_ha_off = targets.cooled_ratio ** 2 * r_ha_on

    # s walks these corners of (log c_winding, log c_housing) at unit speed
    lo, hi = _LOG_CAP_BOUNDS
    corners = ((lo, lo), (0.0, lo), (0.0, hi), (hi, hi))
    legs = (-lo, hi - lo, hi)

    def on_path(s: float) -> ThermalParams:
        k = 0
        while k < 2 and s > legs[k]:
            s -= legs[k]
            k += 1
        (w0, h0), (w1, h1) = corners[k], corners[k + 1]
        u = s / legs[k]
        return ThermalParams(c_winding=math.exp(w0 + u * (w1 - w0)),
                             c_housing=math.exp(h0 + u * (h1 - h0)),
                             r_wh=r_wh, r_ha_on=r_ha_on, r_ha_off=r_ha_off)

    def burst_miss(s: float) -> float:
        tr = simulate_constant_current(targets.burst_current_a,
                                       targets.burst_duration_s, on_path(s),
                                       cooling_on=True, dt=1e-3)
        return tr.peak_winding - targets.burst_peak_c

    s, miss = _illinois_root(burst_miss, sum(legs), 0.0)
    params = on_path(s)

    ratio = (continuous_current_limit(params, True)
             / continuous_current_limit(params, False))
    residuals = {
        "settle_c": steady_state_winding(i_hold, params, True)
                    - targets.hold_settle_c,
        "burst_peak_c": miss,
        "cooled_ratio": ratio - targets.cooled_ratio,
    }
    misses = {
        "settle_c": abs(residuals["settle_c"]) / targets.hold_settle_c,
        "burst_peak_c": abs(residuals["burst_peak_c"]) / targets.burst_peak_c,
        "cooled_ratio": abs(residuals["cooled_ratio"]) / targets.cooled_ratio,
    }
    if max(misses.values()) > _TARGET_TOL:
        worst = max(misses, key=misses.get)
        raise CalibrationInfeasible(
            f"best fit misses {worst} by {misses[worst] * 100:.2f}% "
            f"(tolerance {100 * _TARGET_TOL:.0f}%)", residuals)
    return params, tuple(residuals.items())


# ----------------------------------------------------------- power flow

POWER_CSV_HEADER = "t_s,input_w,motor_w,joint_w"


@dataclass(frozen=True)
class PowerSummary:
    t: np.ndarray                     # sample times of the full trace [s]
    p_in: np.ndarray                  # electrical input: copper loss + shaft [W]
    p_motor: np.ndarray               # mechanical power at the motor shafts [W]
    p_joint: np.ndarray               # mechanical power at the joints [W]
    drivetrain_efficiency_avg: float  # mean of joint/motor over the subset
    electrical_efficiency_avg: float  # mean of joint/input over the subset
    n_averaged: int                   # samples in the positive-power subset


def power_samples_to_csv(summary: PowerSummary) -> str:
    if not (np.diff(summary.t) > 0.0).all():
        raise ValueError("sample times must strictly increase")
    return csv_table(POWER_CSV_HEADER, (summary.t, summary.p_in,
                                        summary.p_motor, summary.p_joint))


def power_series(trace, actuator: ActuatorParams = VLCA_ACTUATOR):
    """Instantaneous (joint, motor shaft, electrical input) power arrays
    [W] along a cascaded leg trace; the copper loss at the 25 C
    resistance ThermalParams.r_elec_25."""
    i = np.asarray(trace.i_m, dtype=float)
    if not np.isfinite(i).all():
        raise ValueError("trace has no motor currents; run the cascaded mode")
    omega = np.asarray(trace.motor_speed_rad_s, dtype=float)
    p_joint = np.sum(trace.tau_applied * trace.qdot, axis=1)
    p_motor = np.sum(actuator.k_tau * i * omega, axis=1)
    p_in = np.sum(i ** 2 * ThermalParams.r_elec_25 + actuator.k_tau * i * omega,
                  axis=1)
    return p_joint, p_motor, p_in


def power_flow(trace, actuator: ActuatorParams = VLCA_ACTUATOR,
               min_motor_w: float = 1.0) -> PowerSummary:
    """Efficiency bookkeeping over the samples where the joints do
    positive work and the shafts deliver more than min_motor_w; trace
    must come from a cascaded leg simulation. Both averages are NaN when
    fewer than 10 samples qualify.

    The averages are means of per-sample power ratios, not ratios of
    energies, so they can exceed 1: spring energy released at the joints
    counts against small shaft powers. A 0.6 s lift of the default 23 kg
    reads a drivetrain efficiency of 1.238, the default 1.5 s lift 0.887.
    """
    p_joint, p_motor, p_in = power_series(trace, actuator)
    mask = (p_joint > 0.0) & (p_motor > min_motor_w)
    n = int(mask.sum())
    drive = elec = math.nan
    if n >= 10:
        drive = float(np.mean(p_joint[mask] / p_motor[mask]))
        elec = float(np.mean(p_joint[mask] / p_in[mask]))
    return PowerSummary(t=np.asarray(trace.t, dtype=float), p_in=p_in,
                        p_motor=p_motor, p_joint=p_joint,
                        drivetrain_efficiency_avg=drive,
                        electrical_efficiency_avg=elec, n_averaged=n)
