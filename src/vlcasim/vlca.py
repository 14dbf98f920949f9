"""Viscoelastic liquid-cooled actuator: identified plant model, the four
force-feedback loop structures used on it, and stability-margin tabulation.

Force is sensed as spring deflection times stiffness; the motor drives a
belt stage and ball screw, so rotor inertia and viscous drag appear at the
spring multiplied by the squared speed reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .lintf import (DelayedTransferFunction, MarginScan, NoCrossover,
                    Polynomial, StabilityReport, csv_table, margin_scan,
                    sweep_response, tf_eval)


class MissingFilterCutoff(ValueError):
    """A loop needs a filter cutoff that was left unset: bad input."""


@dataclass(frozen=True)
class ActuatorParams:
    eta: float     # ball-screw efficiency [-]
    k_tau: float   # motor torque constant [N*m/A]
    n_m: float     # speed reduction, motor angle per screw travel [rad/m]
    j_m: float     # rotor + pulley inertia [kg*m^2]
    b_m: float     # motor-side viscous drag [N*m*s]
    m_r: float     # translating rod/nut mass [kg]
    b_r: float     # spring element damping [N*s/m]
    k_r: float     # spring element stiffness [N/m]

    def __post_init__(self):
        for name in ("eta", "k_tau", "n_m", "j_m", "m_r", "k_r"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("b_m", "b_r"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.eta > 1.0:
            raise ValueError("eta must be <= 1 (passive drivetrain)")
        if not math.isfinite(self.n_m * self.n_m):
            # the reflected inertia and drag scale with n_m ** 2
            raise ValueError("n_m must have a finite square")
        if not math.isfinite(self.drive_constant):
            raise ValueError("k_tau must give a finite drive constant "
                             "eta * k_tau * n_m")

    @property
    def drive_constant(self) -> float:
        """Screw-axis force per amp [N/A]."""
        return self.eta * self.k_tau * self.n_m

    @property
    def effective_mass(self) -> float:
        """Reflected rotor inertia plus translating mass [kg]."""
        return self.j_m * self.n_m ** 2 + self.m_r

    @property
    def drivetrain_damping(self) -> float:
        """Reflected motor drag [N*s/m]."""
        return self.b_m * self.n_m ** 2

    @property
    def effective_damping(self) -> float:
        """Reflected motor drag plus spring damping [N*s/m]."""
        return self.drivetrain_damping + self.b_r

    @property
    def resonance_rad_s(self) -> float:
        return math.sqrt(self.k_r / self.effective_mass)

    @property
    def damping_ratio(self) -> float:
        return self.effective_damping / (2.0 * math.sqrt(self.k_r * self.effective_mass))


# speed reduction: 2.111 belt stage into a 4 mm lead ball screw
VLCA_SPEED_REDUCTION = 2.0 * math.pi * 2.111 / 0.004  # [rad/m]

# joint lever arm that maps the 5.9 kN screw-force rating to the 270 N*m
# joint-torque rating [m]
DEFAULT_MOMENT_ARM = 270.0 / 5900.0

# identified constants of the 4.5 kN knee/ankle actuator
VLCA_ACTUATOR = ActuatorParams(
    eta=0.9,
    k_tau=0.0448,
    n_m=VLCA_SPEED_REDUCTION,
    j_m=3.8e-5,
    b_m=2.0e-4,
    m_r=1.3,
    b_r=2.0e4,
    k_r=5.5e6,
)


# longest accepted loop delay [s], 1,000 samples of the 1 kHz controller; a
# margin scan brackets every -180 deg crossing, about 1e5 * delay_t / 2pi of
# them in MARGIN_BAND
MAX_DELAY_T = 1.0


class ControllerKind(Enum):
    PDF = "pd_f"          # P on force error, filtered force derivative
    PDM = "pd_m"          # P on force error, motor-velocity damping
    PIDM = "pid_m"        # PI on force error, motor-velocity damping
    PDM_DOB = "pd_m_dob"  # PDM inner loop plus disturbance observer


@dataclass(frozen=True)
class ControllerGains:
    k_p: float = 4.0
    k_dm: float = 15.0            # motor-velocity damping [A*s/rad scaled]
    k_df: Optional[float] = None  # force-derivative gain; default matches k_dm
    k_i: float = 300.0
    q_d_cutoff: Optional[float] = 2.0 * math.pi * 50.0    # derivative filter [rad/s]
    q_taud_cutoff: Optional[float] = 2.0 * math.pi * 15.0  # observer filter [rad/s]
    q_taud_zeta: float = 2.0 ** -0.5  # Butterworth damping, peak-free magnitude
    delay_t: float = 1e-3         # loop transport delay [s]

    def __post_init__(self):
        if self.k_p < 0.0 or self.k_dm < 0.0 or self.k_i < 0.0:
            raise ValueError("gains must be >= 0")
        if self.k_df is not None and self.k_df < 0.0:
            raise ValueError("k_df must be >= 0")
        for name in ("q_d_cutoff", "q_taud_cutoff"):
            v = getattr(self, name)
            if v is not None and v <= 0.0:
                raise ValueError(f"{name} must be > 0 when set")
        if self.q_taud_zeta <= 0.0:
            raise ValueError("q_taud_zeta must be > 0")
        if not 0.0 <= self.delay_t <= MAX_DELAY_T:
            raise ValueError(f"delay_t must be within [0, {MAX_DELAY_T:g}] s")

    def resolved_k_df(self, params: ActuatorParams) -> float:
        """Force-derivative gain equivalent to k_dm motor-velocity damping."""
        if self.k_df is not None:
            return self.k_df
        return self.k_dm * params.n_m / params.k_r

    def cutoff(self, name: str) -> float:
        """The filter cutoff `name` [rad/s]; MissingFilterCutoff when unset."""
        value = getattr(self, name)
        if value is None:
            raise MissingFilterCutoff(f"{name} is unset")
        return value


# the gains of the paper's experiments: the observer filter at 60 Hz
EXPERIMENT_GAINS = ControllerGains(q_taud_cutoff=2.0 * math.pi * 60.0)


def _den_poly(params: ActuatorParams) -> Polynomial:
    return Polynomial((params.k_r, params.effective_damping, params.effective_mass))


def plant_px(params: ActuatorParams) -> DelayedTransferFunction:
    """Screw position per amp: N / (M s^2 + B s + k_r)."""
    return DelayedTransferFunction(Polynomial((params.drive_constant,)),
                                   _den_poly(params))


def force_plant(params: ActuatorParams) -> DelayedTransferFunction:
    """Spring force per commanded motor force, k_r*P_x/N; unit DC gain."""
    return DelayedTransferFunction(Polynomial((params.k_r,)), _den_poly(params))


def q_taud_tf(gains: ControllerGains) -> DelayedTransferFunction:
    """Second-order low-pass used by the disturbance observer."""
    w, z = gains.cutoff("q_taud_cutoff"), gains.q_taud_zeta
    return DelayedTransferFunction(Polynomial((w * w,)),
                                   Polynomial((w * w, 2.0 * z * w, 1.0)))


def open_loop_tf(kind: ControllerKind, params: ActuatorParams,
                 gains: ControllerGains) -> DelayedTransferFunction:
    """Loop transmission for margin analysis, transport delay attached."""
    kr, nm = params.k_r, params.n_m
    kp, kdm, ki = gains.k_p, gains.k_dm, gains.k_i
    den_p = _den_poly(params)
    t = gains.delay_t

    if kind is ControllerKind.PDF:
        wd = gains.cutoff("q_d_cutoff")
        kdf = gains.resolved_k_df(params)
        # kr*(kp + kdf*wd*s/(s+wd)) / den_p
        num = Polynomial((kr * kp * wd, kr * (kp + kdf * wd)))
        den = Polynomial((wd, 1.0)) * den_p
        return DelayedTransferFunction(num, den, t)
    if kind is ControllerKind.PDM:
        num = Polynomial((kr * kp, kdm * nm))
        return DelayedTransferFunction(num, den_p, t)
    if kind is ControllerKind.PIDM:
        num = Polynomial((kr * ki, kr * kp, kdm * nm))
        den = den_p * Polynomial((0.0, 1.0))
        return DelayedTransferFunction(num, den, t)
    if kind is ControllerKind.PDM_DOB:
        q = q_taud_tf(gains)
        nq, dq = q.num, q.den
        ctrl = Polynomial((kr * kp, kdm * nm))
        # the drive constant cancels between the observer path and the
        # motor-side plant, leaving a gain-free loop shape
        num = nq * den_p + ctrl * dq
        den = (dq + nq.scaled(-1.0)) * den_p
        return DelayedTransferFunction(num, den, t)
    raise ValueError(f"unknown controller kind: {kind!r}")


class ClosedLoopResponse:
    """Frequency-domain evaluator for a closed force loop, FF/(1 + L) with
    L = open_loop_tf(kind, params, gains) and the command feedforward
    FF = k_r (k_p + 1)/den_p, or k_r ((k_p + 1) s + k_i)/(s den_p) for PIDM,
    times dq/(dq - nq) under the disturbance observer Q = nq/dq.

    The transport delay sits inside L, so the closed response is not
    rational; it supports evaluation and sweeps.
    """

    def __init__(self, kind: ControllerKind, params: ActuatorParams,
                 gains: ControllerGains):
        self.kind = kind
        self.params = params
        self.gains = gains
        self.loop = open_loop_tf(kind, params, gains)
        kr, kp = params.k_r, gains.k_p
        den = _den_poly(params)
        if kind is ControllerKind.PIDM:
            num = Polynomial((kr * gains.k_i, kr * (kp + 1.0)))
            den = den * Polynomial((0.0, 1.0))
        else:
            num = Polynomial((kr * (kp + 1.0),))
        if kind is ControllerKind.PDM_DOB:
            q = q_taud_tf(gains)
            num, den = num * q.den, den * (q.den + q.num.scaled(-1.0))
        self.feedforward = DelayedTransferFunction(num, den)

    def eval(self, omega):
        return (tf_eval(self.feedforward, omega)
                / (1.0 + tf_eval(self.loop, omega)))

    def sweep(self, omega_min: float, omega_max: float,
              points_per_decade: int = 48) -> list:
        return sweep_response(self.eval, omega_min, omega_max, points_per_decade)


def closed_loop_tf(kind: ControllerKind, params: ActuatorParams,
                   gains: ControllerGains) -> ClosedLoopResponse:
    return ClosedLoopResponse(kind, params, gains)


def loop_margins(scan: MarginScan) -> Optional[StabilityReport]:
    """The scanned loop's stability margins; None when |L| never crosses
    unity."""
    try:
        return scan.report()
    except NoCrossover:
        return None


@dataclass(frozen=True)
class MarginEntry:
    label: str
    report: Optional[StabilityReport]  # None without a unity crossing
    # the loop's scan, whose unity crossings give the margin behind any delay
    scan: MarginScan = field(compare=False, repr=False)


MARGIN_TABLE_ORDER = (ControllerKind.PDF, ControllerKind.PDM,
                      ControllerKind.PIDM, ControllerKind.PDM_DOB)

# the loop delays that the margins-vs-delay sweep and calibrate_margins scan [s]
MARGIN_DELAY_GRID = np.linspace(0.25e-3, 2.5e-3, 10)


def margin_table(params: ActuatorParams, gains: ControllerGains) -> list:
    """Stability margins for each loop structure plus the bare force plant,
    from one stacked scan; a loop without a unity crossing gets an entry
    without a report."""
    loops = [open_loop_tf(kind, params, gains) for kind in MARGIN_TABLE_ORDER]
    loops.append(replace(force_plant(params), delay_s=gains.delay_t))
    labels = [kind.value for kind in MARGIN_TABLE_ORDER] + ["plant"]
    return [MarginEntry(label, loop_margins(scan), scan) for label, scan
            in zip(labels, margin_scan(loops, gain_margins=True))]


MARGIN_CSV_HEADER = "controller,phase_margin_deg,gain_crossover_hz,gain_margin_db"


def margin_table_to_csv(entries) -> str:
    rows = [(e.label, None, None, None) if e.report is None else
            (e.label, e.report.phase_margin_deg,
             e.report.gain_crossover_rad_s / (2.0 * math.pi),
             e.report.gain_margin_db)
            for e in entries]
    return csv_table(MARGIN_CSV_HEADER, zip(*rows))


@dataclass(frozen=True)
class MarginCalibration:
    delay_t: float
    q_d_cutoff: float
    pm_pdf_deg: float
    pm_pdm_deg: float
    pm_pidm_deg: float
    pm_pdm_dob_deg: float
    objective_deg: float  # worst |target miss| across the two targets
    # the search's margin scans: PDM, PDF per cutoff, PIDM and PDM_DOB
    scans: tuple = field(default=(), compare=False, repr=False)


def calibrate_margins(params: ActuatorParams, gains: ControllerGains,
                      pm_pdf_target: float = 17.1, pm_pdm_target: float = 47.6,
                      delay_grid=None, q_d_grid=None) -> MarginCalibration:
    """Grid search over loop delay and derivative-filter cutoff that brings
    the PDF and PDM phase margins closest to the given targets.

    Returns the best grid point; the caller decides whether the residual
    miss is acceptable. Grid points where the PDF or PDM loop has no unity
    crossing are skipped; with none left, every field is NaN.
    """
    if delay_grid is None:
        delay_grid = MARGIN_DELAY_GRID
    if q_d_grid is None:
        q_d_grid = 2.0 * math.pi * np.geomspace(20.0, 200.0, 16)
    delays = [replace(gains, delay_t=float(t)).delay_t for t in delay_grid]
    cutoffs = [float(wd) for wd in q_d_grid]
    # one stacked scan, one crossing search per loop shape, serves every
    # range-checked delay; the best point's PIDM and PDM_DOB loops have the
    # nominal shapes: neither depends on q_d_cutoff, and no scan on the delay
    scans = tuple(margin_scan([
        open_loop_tf(ControllerKind.PDM, params, gains),
        *(open_loop_tf(ControllerKind.PDF, params,
                       replace(gains, q_d_cutoff=wd)) for wd in cutoffs),
        open_loop_tf(ControllerKind.PIDM, params, gains),
        open_loop_tf(ControllerKind.PDM_DOB, params, gains)]))
    pdm = scans[0].phase_margins(delays).tolist()
    pdf_by_cutoff = [(wd, scan.phase_margins(delays).tolist())
                     for wd, scan in zip(cutoffs, scans[1:-2])]
    # delay-major, as the grid is walked; min keeps the first of tied points
    points = [(max(abs(pdf[i] - pm_pdf_target), abs(pdm[i] - pm_pdm_target)),
               t, wd, pdf[i], pdm[i])
              for i, t in enumerate(delays) if not math.isnan(pdm[i])
              for wd, pdf in pdf_by_cutoff if not math.isnan(pdf[i])]
    if not points:
        return MarginCalibration(*(math.nan,) * 7, scans=scans)
    obj, t, wd, pm_pdf, pm_pdm = min(points, key=lambda p: p[0])
    pm_pidm, pm_dob = (scan.phase_margins([t])[0] for scan in scans[-2:])
    return MarginCalibration(
        delay_t=t, q_d_cutoff=wd, pm_pdf_deg=pm_pdf, pm_pdm_deg=pm_pdm,
        pm_pidm_deg=float(pm_pidm), pm_pdm_dob_deg=float(pm_dob),
        objective_deg=obj, scans=scans)
