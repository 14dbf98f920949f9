"""Planar ankle/knee leg testbed: closed-form rigid-body dynamics,
moment-arm linkage mapping, operational-space control, and coupled
simulation with either ideal torque sources or the full actuator
force loops in series.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import BSpline

from . import simkit
from .lintf import csv_table
from .vlca import (ActuatorParams, ControllerGains, ControllerKind,
                   DEFAULT_MOMENT_ARM, EXPERIMENT_GAINS, VLCA_ACTUATOR)


class WorkspaceViolation(Exception):
    """Requested hip path leaves the reachable annulus."""


class OutOfRange(Exception):
    """Joint angle outside the linkage profile's tabulated range."""


# slender-rod link defaults: 0.4 m, 2 kg, centroid mid-link
_LINK_I = 2.0 * 0.4 ** 2 / 12.0


@dataclass(frozen=True)
class TwoDofParams:
    l1: float = 0.4        # ankle-to-knee length [m]
    l2: float = 0.4        # knee-to-hip length [m]
    m1: float = 2.0        # shank mass [kg]
    m2: float = 2.0        # thigh mass [kg]
    c1: float = 0.2        # shank centroid offset [m]
    c2: float = 0.2        # thigh centroid offset [m]
    i1: float = _LINK_I    # shank inertia about its centroid [kg*m^2]
    i2: float = _LINK_I    # thigh inertia about its centroid [kg*m^2]
    payload_mass: float = 10.0  # point mass carried at the hip [kg]
    gravity: float = 9.81  # [m/s^2]

    def __post_init__(self):
        if min(self.l1, self.l2, self.m1, self.m2) <= 0.0:
            raise ValueError("lengths and masses must be > 0")
        if not (0.0 <= self.c1 <= self.l1 and 0.0 <= self.c2 <= self.l2):
            raise ValueError("centroids must lie on their links")
        if self.i1 < 0.0 or self.i2 < 0.0 or self.payload_mass < 0.0:
            raise ValueError("inertias and payload must be >= 0")
        if self.gravity < 0.0:
            raise ValueError("gravity must be >= 0")

    @property
    def reach(self) -> float:
        return self.l1 + self.l2

    @property
    def inner_radius(self) -> float:
        return abs(self.l1 - self.l2)


def _dyn_scalars(q0, q1, w0, w1, p: TwoDofParams):
    """Mass-matrix entries, velocity-product vector, gravity vector."""
    c1_, s1_ = math.cos(q1), math.sin(q1)
    mp = p.payload_mass
    a11 = (p.i1 + p.i2 + p.m1 * p.c1 ** 2
           + p.m2 * (p.l1 ** 2 + p.c2 ** 2 + 2.0 * p.l1 * p.c2 * c1_)
           + mp * (p.l1 ** 2 + p.l2 ** 2 + 2.0 * p.l1 * p.l2 * c1_))
    a12 = (p.i2 + p.m2 * (p.c2 ** 2 + p.l1 * p.c2 * c1_)
           + mp * (p.l2 ** 2 + p.l1 * p.l2 * c1_))
    a22 = p.i2 + p.m2 * p.c2 ** 2 + mp * p.l2 ** 2
    h = (p.m2 * p.l1 * p.c2 + mp * p.l1 * p.l2) * s1_
    b1 = -h * (2.0 * w0 * w1 + w1 * w1)
    b2 = h * w0 * w0
    c0_ = math.cos(q0)
    c01 = math.cos(q0 + q1)
    g1 = ((p.m1 * p.c1 + (p.m2 + mp) * p.l1) * c0_
          + (p.m2 * p.c2 + mp * p.l2) * c01) * p.gravity
    g2 = (p.m2 * p.c2 + mp * p.l2) * c01 * p.gravity
    return a11, a12, a22, b1, b2, g1, g2


def hip_position(q: Sequence[float], params: TwoDofParams) -> np.ndarray:
    x = params.l1 * math.cos(q[0]) + params.l2 * math.cos(q[0] + q[1])
    y = params.l1 * math.sin(q[0]) + params.l2 * math.sin(q[0] + q[1])
    return np.array([x, y])


def inverse_kinematics(x: Sequence[float], params: TwoDofParams) -> np.ndarray:
    """Closed-form joint angles reaching hip position x on the knee-down
    branch (q1 <= 0)."""
    px, py = float(x[0]), float(x[1])
    rho2 = px * px + py * py
    l1, l2 = params.l1, params.l2
    cos_q1 = (rho2 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if not -1.0 <= cos_q1 <= 1.0:
        raise WorkspaceViolation(f"point ({px:.3g}, {py:.3g}) is unreachable")
    q1 = -math.acos(cos_q1)
    q0 = math.atan2(py, px) - math.atan2(l2 * math.sin(q1),
                                         l1 + l2 * math.cos(q1))
    return np.array([q0, q1])


# ------------------------------------------------------------- linkage

@dataclass(frozen=True)
class LinkageProfile:
    """Moment arm of the screw axis about a joint, tabulated over angle.

    Linear interpolation between knots; querying outside the tabulated
    range raises OutOfRange. Adjacent arms may differ by at most 20%.
    """

    angles_rad: tuple
    arms_m: tuple

    def __post_init__(self):
        if len(self.angles_rad) != len(self.arms_m) or len(self.angles_rad) < 2:
            raise ValueError("need matching angle/arm tables of length >= 2")
        if any(b <= a for a, b in zip(self.angles_rad, self.angles_rad[1:])):
            raise ValueError("angles must strictly increase")
        if any(r <= 0.0 for r in self.arms_m):
            raise ValueError("moment arms must be > 0")
        for a, b in zip(self.arms_m, self.arms_m[1:]):
            if abs(b - a) / a > 0.20:
                raise ValueError("adjacent moment arms differ by more than 20%")

    @classmethod
    def constant(cls, arm_m: float, q_min: float = -2.0 * math.pi,
                 q_max: float = 2.0 * math.pi) -> "LinkageProfile":
        return cls((q_min, q_max), (arm_m, arm_m))

    def arm(self, q: float) -> float:
        if not self.angles_rad[0] <= q <= self.angles_rad[-1]:
            raise OutOfRange(f"angle {q:.4g} rad outside profile range "
                             f"[{self.angles_rad[0]:.4g}, {self.angles_rad[-1]:.4g}]")
        i = bisect_right(self.angles_rad, q)
        if i >= len(self.angles_rad):
            return self.arms_m[-1]
        if i == 0:
            return self.arms_m[0]
        a0, a1 = self.angles_rad[i - 1], self.angles_rad[i]
        r0, r1 = self.arms_m[i - 1], self.arms_m[i]
        return r0 + (r1 - r0) * (q - a0) / (a1 - a0)


# ------------------------------------------------------------- control

@dataclass(frozen=True)
class TaskGains:
    kp: tuple = (625.0, 625.0)  # [1/s^2]
    kd: tuple = (40.0, 40.0)    # [1/s]

    def __post_init__(self):
        if len(self.kp) != 2 or len(self.kd) != 2:
            raise ValueError("kp and kd must have two entries")
        if min(self.kp) < 0.0 or min(self.kd) < 0.0:
            raise ValueError("gains must be >= 0")


def _osc_tau(q0, q1, w0, w1, xd, yd, vxd, vyd, axd, ayd, gains: TaskGains,
             p: TwoDofParams):
    """Scalar core of the operational-space torque law."""
    l1, l2 = p.l1, p.l2
    s0, c0 = math.sin(q0), math.cos(q0)
    s01, c01 = math.sin(q0 + q1), math.cos(q0 + q1)
    px = l1 * c0 + l2 * c01
    py = l1 * s0 + l2 * s01
    j00 = -l1 * s0 - l2 * s01
    j01 = -l2 * s01
    j10 = l1 * c0 + l2 * c01
    j11 = l2 * c01
    wsum = w0 + w1
    jd00 = -l1 * c0 * w0 - l2 * c01 * wsum
    jd01 = -l2 * c01 * wsum
    jd10 = -l1 * s0 * w0 - l2 * s01 * wsum
    jd11 = -l2 * s01 * wsum

    ax = axd + gains.kp[0] * (xd - px) + gains.kd[0] * (vxd - (j00 * w0 + j01 * w1))
    ay = ayd + gains.kp[1] * (yd - py) + gains.kd[1] * (vyd - (j10 * w0 + j11 * w1))
    rx = ax - (jd00 * w0 + jd01 * w1)
    ry = ay - (jd10 * w0 + jd11 * w1)

    det = j00 * j11 - j01 * j10
    damp_at = 1e-3 * p.reach ** 2
    damped = abs(det) < damp_at
    if not damped:
        inv = 1.0 / det
        qdd0 = inv * (j11 * rx - j01 * ry)
        qdd1 = inv * (-j10 * rx + j00 * ry)
    else:
        # damped least-squares through J^T (J J^T + lam^2 I)^-1
        fro = math.sqrt(j00 * j00 + j01 * j01 + j10 * j10 + j11 * j11)
        lam = 0.01 * fro * (1.0 - abs(det) / damp_at)
        m00 = j00 * j00 + j01 * j01 + lam * lam
        m01 = j00 * j10 + j01 * j11
        m11 = j10 * j10 + j11 * j11 + lam * lam
        mdet = m00 * m11 - m01 * m01
        ux = (m11 * rx - m01 * ry) / mdet
        uy = (-m01 * rx + m00 * ry) / mdet
        qdd0 = j00 * ux + j10 * uy
        qdd1 = j01 * ux + j11 * uy

    a11, a12, a22, b1, b2, g1, g2 = _dyn_scalars(q0, q1, w0, w1, p)
    tau0 = a11 * qdd0 + a12 * qdd1 + b1 + g1
    tau1 = a12 * qdd0 + a22 * qdd1 + b2 + g2
    return tau0, tau1, damped


# -------------------------------------------------------- trajectories

@dataclass(frozen=True)
class SineTrajectory:
    center: tuple          # (x, y) [m]
    amplitude: tuple       # (x, y) [m]
    freq_hz: float
    phase_rad: float = 0.0
    ramp_s: float = 0.0    # linear amplitude ramp-in from zero

    def __post_init__(self):
        if self.freq_hz <= 0.0:
            raise ValueError("freq_hz must be > 0")
        if self.ramp_s < 0.0:
            raise ValueError("ramp_s must be >= 0")

    def sample(self, t: np.ndarray):
        t = np.asarray(t, dtype=float)
        w = 2.0 * math.pi * self.freq_hz
        s = np.sin(w * t + self.phase_rad)
        c = np.cos(w * t + self.phase_rad)
        if self.ramp_s > 0.0:
            env = np.clip(t / self.ramp_s, 0.0, 1.0)
            denv = np.where(t < self.ramp_s, 1.0 / self.ramp_s, 0.0)
        else:
            env = np.ones_like(t)
            denv = np.zeros_like(t)
        pos = np.empty((len(t), 2))
        vel = np.empty((len(t), 2))
        acc = np.empty((len(t), 2))
        for k in range(2):
            a = self.amplitude[k]
            pos[:, k] = self.center[k] + a * env * s
            vel[:, k] = a * (denv * s + env * w * c)
            acc[:, k] = a * (2.0 * denv * w * c - env * w * w * s)
        return pos, vel, acc


class BSplineTrajectory:
    """Clamped quadratic B-spline through planar control points over a
    fixed duration; holds the final point afterwards.

    Repeating the first and last control points gives rest-to-rest motion.
    """

    def __init__(self, control_points: Sequence[Sequence[float]],
                 duration_s: float):
        pts = np.asarray(control_points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
            raise ValueError("need at least 3 planar control points")
        if duration_s <= 0.0:
            raise ValueError("duration_s must be > 0")
        self.control_points = pts
        self.duration_s = float(duration_s)
        n = pts.shape[0]
        k = 2
        inner = np.linspace(0.0, duration_s, n - k + 1)
        knots = np.concatenate([[0.0] * k, inner, [duration_s] * k])
        self._spl = BSpline(knots, pts, k, extrapolate=False)
        self._dspl = self._spl.derivative(1)
        self._ddspl = self._spl.derivative(2)

    @classmethod
    def vertical_lift(cls, start_xy: Sequence[float], height: float,
                      duration_s: float) -> "BSplineTrajectory":
        x0, y0 = float(start_xy[0]), float(start_xy[1])
        pts = [(x0, y0), (x0, y0), (x0, y0 + 0.5 * height),
               (x0, y0 + height), (x0, y0 + height)]
        return cls(pts, duration_s)

    def sample(self, t: np.ndarray):
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, 0.0, self.duration_s)
        pos = self._spl(tc)
        vel = self._dspl(tc)
        acc = self._ddspl(tc)
        held = t > self.duration_s
        if held.any():
            vel[held] = 0.0
            acc[held] = 0.0
        return pos, vel, acc


# ------------------------------------------------------------ sim loop

TESTBED_CSV_HEADER = ("t_s,x_m,y_m,x_des_m,y_des_m,q0_rad,q1_rad,"
                      "tau_cmd_0_nm,tau_cmd_1_nm,tau_app_0_nm,tau_app_1_nm,"
                      "i_0_a,i_1_a,f_k_0_n,f_k_1_n")


@dataclass
class TestbedTrace:
    dt: float
    t: np.ndarray
    x: np.ndarray              # hip position (n, 2)
    x_des: np.ndarray          # commanded hip position (n, 2)
    q: np.ndarray              # joint angles (n, 2)
    qdot: np.ndarray           # joint rates (n, 2)
    tau_cmd: np.ndarray        # controller torque request (n, 2)
    tau_applied: np.ndarray    # torque delivered at the joints (n, 2)
    i_m: np.ndarray            # motor currents (n, 2); nan in ideal mode
    f_k: np.ndarray            # spring forces (n, 2); nan in ideal mode
    motor_speed_rad_s: np.ndarray  # motor speeds (n, 2); nan in ideal mode
    saturation_count: int = 0
    singular_count: int = 0
    meta: dict = field(default_factory=dict)

    def max_tracking_error(self) -> float:
        return float(np.max(np.linalg.norm(self.x - self.x_des, axis=1)))

    def to_csv(self) -> str:
        return csv_table(TESTBED_CSV_HEADER, (
            self.t, self.x, self.x_des, self.q, self.tau_cmd,
            self.tau_applied, self.i_m, self.f_k))

    def counters(self) -> dict:
        """Deterministic work counts of the run that produced this trace."""
        steps = len(self.t)
        return {"control_steps": steps,
                "rk4_substeps": steps * LEG_SUBSTEPS[self.meta["mode"]],
                "saturated_steps": self.saturation_count,
                "singularity_damped_steps": self.singular_count}


_WORKSPACE_MARGIN = 0.02  # clearance kept from both workspace radii [m]


def _check_workspace(pos: np.ndarray, params: TwoDofParams):
    r = np.linalg.norm(pos, axis=1)
    outer = params.reach - _WORKSPACE_MARGIN
    inner = params.inner_radius + _WORKSPACE_MARGIN
    if float(r.max()) > outer:
        raise WorkspaceViolation(
            f"path reaches radius {r.max():.3f} m; limit {outer:.3f} m")
    if float(r.min()) < inner:
        raise WorkspaceViolation(
            f"path reaches radius {r.min():.3f} m; inner limit {inner:.3f} m")


# Leg RK4 substeps per control period, per mode: the smallest count whose
# largest output deviation over the leg_sim benchmark seeds 0-10, against 10
# and against 20 substeps, stays within half of the tightest relative check
# on that mode's outputs, with the saturated and averaged step counts exact.
# Ideal mode, 1e-3 on osc_metrics: 9.4e-10 at 1 substep. Cascaded mode, 1e-6
# on efficiency_summary: 4.3e-7 at 7 substeps, 8.1e-7 at 6.
LEG_SUBSTEPS = {"ideal_torque": 1, "cascaded_vlca": 7}


def leg_period_map(params: TwoDofParams, cascaded: bool,
                   actuator: ActuatorParams, profile: LinkageProfile,
                   external_force: Optional[Callable[[float], Sequence[float]]] = None):
    """The leg's advance over one control period, built once per run.

    Returns advance(state, u0, u1, t) -> state: n = LEG_SUBSTEPS[mode]
    classical RK4 substeps of CONTROL_DT / n with u held for the period (the
    joint torques [N*m] in ideal mode, the motor currents [A] in cascaded
    mode) and the hip force external_force(t) taken at the period start t.
    The state is (q0, q1, w0, w1), followed in cascaded mode by the screw
    position, screw rate and linkage displacement of each joint's actuator
    (x0, v0, l0, x1, v1, l1).

    The run constants of _dyn_scalars are hoisted in its association order
    and the stages use rk4_step's 0.5*h, h and h/6 products, so one period
    equals n calls of simkit.rk4_step on the same rates bit for bit. A
    stage angle outside the profile's range raises OutOfRange.
    """
    cos, sin = math.cos, math.sin
    n = LEG_SUBSTEPS["cascaded_vlca" if cascaded else "ideal_torque"]
    h = simkit.CONTROL_DT / n
    hh, h6 = 0.5 * h, h / 6.0

    p = params
    l1, l2, m2, i2, mp, grav = p.l1, p.l2, p.m2, p.i2, p.payload_mass, p.gravity
    a11_0 = p.i1 + p.i2 + p.m1 * p.c1 ** 2
    a11_m2, a11_m2c = p.l1 ** 2 + p.c2 ** 2, 2.0 * p.l1 * p.c2
    a11_mp, a11_mpc = p.l1 ** 2 + p.l2 ** 2, 2.0 * p.l1 * p.l2
    a12_m2, a12_m2c = p.c2 ** 2, p.l1 * p.c2
    a12_mp, a12_mpc = p.l2 ** 2, p.l1 * p.l2
    a22 = p.i2 + p.m2 * p.c2 ** 2 + mp * p.l2 ** 2
    h_s1 = p.m2 * p.l1 * p.c2 + mp * p.l1 * p.l2
    g_c0 = p.m1 * p.c1 + (p.m2 + mp) * p.l1
    g_c01 = p.m2 * p.c2 + mp * p.l2
    pushed = external_force is not None

    def accel(a, b, wa, wb, t0, t1, fx, fy):
        """Joint accelerations under joint torques (t0, t1) and hip force
        (fx, fy); _dyn_scalars and the inverse of its mass matrix."""
        c1_ = cos(b)
        a11 = a11_0 + m2 * (a11_m2 + a11_m2c * c1_) + mp * (a11_mp + a11_mpc * c1_)
        a12 = i2 + m2 * (a12_m2 + a12_m2c * c1_) + mp * (a12_mp + a12_mpc * c1_)
        hv = h_s1 * sin(b)
        b1 = -hv * (2.0 * wa * wb + wb * wb)
        b2 = hv * wa * wa
        c01 = cos(a + b)
        g1 = (g_c0 * cos(a) + g_c01 * c01) * grav
        g2 = g_c01 * c01 * grav
        if pushed:
            s0, s01 = sin(a), sin(a + b)
            te0 = (-l1 * s0 - l2 * s01) * fx + (l1 * cos(a) + l2 * c01) * fy
            te1 = -l2 * s01 * fx + l2 * c01 * fy
        else:
            te0 = te1 = 0.0
        det = a11 * a22 - a12 * a12
        r_0 = t0 - b1 - g1 + te0
        r_1 = t1 - b2 - g2 + te1
        return (a22 * r_0 - a12 * r_1) / det, (a11 * r_1 - a12 * r_0) / det

    if not cascaded:
        def advance(state, tau0, tau1, t):
            fx, fy = external_force(t) if pushed else (0.0, 0.0)
            a, b, wa, wb = state
            for _ in range(n):
                pa1, pb1 = accel(a, b, wa, wb, tau0, tau1, fx, fy)
                a2, b2 = a + hh * wa, b + hh * wb
                wa2, wb2 = wa + hh * pa1, wb + hh * pb1
                pa2, pb2 = accel(a2, b2, wa2, wb2, tau0, tau1, fx, fy)
                a3, b3 = a + hh * wa2, b + hh * wb2
                wa3, wb3 = wa + hh * pa2, wb + hh * pb2
                pa3, pb3 = accel(a3, b3, wa3, wb3, tau0, tau1, fx, fy)
                a4, b4 = a + h * wa3, b + h * wb3
                wa4, wb4 = wa + h * pa3, wb + h * pb3
                pa4, pb4 = accel(a4, b4, wa4, wb4, tau0, tau1, fx, fy)
                a += h6 * (wa + 2.0 * wa2 + 2.0 * wa3 + wa4)
                b += h6 * (wb + 2.0 * wb2 + 2.0 * wb3 + wb4)
                wa += h6 * (pa1 + 2.0 * pa2 + 2.0 * pa3 + pa4)
                wb += h6 * (pb1 + 2.0 * pb2 + 2.0 * pb3 + pb4)
            return a, b, wa, wb
        return advance

    k_r, b_r = actuator.k_r, actuator.b_r
    m_m, b_dt = actuator.effective_mass, actuator.drivetrain_damping
    n_drive = actuator.drive_constant
    arm = profile.arm
    lo, hi = profile.angles_rad[0], profile.angles_rad[-1]
    # a profile with one arm value returns it exactly wherever it is defined
    arm_c = profile.arms_m[0] if len(set(profile.arms_m)) == 1 else None

    def rates(a, b, wa, wb, x0, v0, l0, x1, v1, l1_, fi0, fi1, fx, fy):
        """(wd0, wd1, vd0, vd1, ld0, ld1) with the screw drive forces
        fi = n_drive * i held."""
        if arm_c is not None and lo <= a <= hi and lo <= b <= hi:
            r0 = r1 = arm_c
        else:
            r0, r1 = arm(a), arm(b)
        ld0, ld1 = r0 * wa, r1 * wb
        f0 = k_r * (x0 - l0) + b_r * (v0 - ld0)
        f1 = k_r * (x1 - l1_) + b_r * (v1 - ld1)
        wd0, wd1 = accel(a, b, wa, wb, r0 * f0, r1 * f1, fx, fy)
        return (wd0, wd1, (fi0 - b_dt * v0 - f0) / m_m,
                (fi1 - b_dt * v1 - f1) / m_m, ld0, ld1)

    def advance(state, i0, i1, t):
        fx, fy = external_force(t) if pushed else (0.0, 0.0)
        fi0, fi1 = n_drive * i0, n_drive * i1
        a, b, wa, wb, x0, v0, l0, x1, v1, l1_ = state
        for _ in range(n):
            pa1, pb1, va1, vb1, la1, lb1 = rates(
                a, b, wa, wb, x0, v0, l0, x1, v1, l1_, fi0, fi1, fx, fy)
            a2, b2 = a + hh * wa, b + hh * wb
            wa2, wb2 = wa + hh * pa1, wb + hh * pb1
            x02, v02, l02 = x0 + hh * v0, v0 + hh * va1, l0 + hh * la1
            x12, v12, l12 = x1 + hh * v1, v1 + hh * vb1, l1_ + hh * lb1
            pa2, pb2, va2, vb2, la2, lb2 = rates(
                a2, b2, wa2, wb2, x02, v02, l02, x12, v12, l12, fi0, fi1, fx, fy)
            a3, b3 = a + hh * wa2, b + hh * wb2
            wa3, wb3 = wa + hh * pa2, wb + hh * pb2
            x03, v03, l03 = x0 + hh * v02, v0 + hh * va2, l0 + hh * la2
            x13, v13, l13 = x1 + hh * v12, v1 + hh * vb2, l1_ + hh * lb2
            pa3, pb3, va3, vb3, la3, lb3 = rates(
                a3, b3, wa3, wb3, x03, v03, l03, x13, v13, l13, fi0, fi1, fx, fy)
            a4, b4 = a + h * wa3, b + h * wb3
            wa4, wb4 = wa + h * pa3, wb + h * pb3
            x04, v04, l04 = x0 + h * v03, v0 + h * va3, l0 + h * la3
            x14, v14, l14 = x1 + h * v13, v1 + h * vb3, l1_ + h * lb3
            pa4, pb4, va4, vb4, la4, lb4 = rates(
                a4, b4, wa4, wb4, x04, v04, l04, x14, v14, l14, fi0, fi1, fx, fy)
            a += h6 * (wa + 2.0 * wa2 + 2.0 * wa3 + wa4)
            b += h6 * (wb + 2.0 * wb2 + 2.0 * wb3 + wb4)
            wa += h6 * (pa1 + 2.0 * pa2 + 2.0 * pa3 + pa4)
            wb += h6 * (pb1 + 2.0 * pb2 + 2.0 * pb3 + pb4)
            x0 += h6 * (v0 + 2.0 * v02 + 2.0 * v03 + v04)
            v0 += h6 * (va1 + 2.0 * va2 + 2.0 * va3 + va4)
            l0 += h6 * (la1 + 2.0 * la2 + 2.0 * la3 + la4)
            x1 += h6 * (v1 + 2.0 * v12 + 2.0 * v13 + v14)
            v1 += h6 * (vb1 + 2.0 * vb2 + 2.0 * vb3 + vb4)
            l1_ += h6 * (lb1 + 2.0 * lb2 + 2.0 * lb3 + lb4)
        return a, b, wa, wb, x0, v0, l0, x1, v1, l1_
    return advance


def osc_run_inputs(trajectory, payload_kg: float, duration: float,
                   params: TwoDofParams):
    """The checks every leg run makes before it integrates, and what they
    yield: (params carrying the payload, sample times, desired positions,
    velocities, accelerations) at the control rate. Raises ValueError for
    a bad run length or payload and WorkspaceViolation for a path the leg
    cannot reach."""
    simkit.check_duration(duration)
    params = replace(params, payload_mass=float(payload_kg))
    dt = simkit.CONTROL_DT
    times = np.arange(int(round(duration / dt))) * dt
    pos_des, vel_des, acc_des = trajectory.sample(times)
    _check_workspace(pos_des, params)
    return params, times, pos_des, vel_des, acc_des


def simulate_osc(trajectory, payload_kg: float, mode: str, duration: float,
                 task_gains: TaskGains = TaskGains(),
                 params: TwoDofParams = TwoDofParams(),
                 actuator: ActuatorParams = VLCA_ACTUATOR,
                 force_gains: ControllerGains = EXPERIMENT_GAINS,
                 profile: Optional[LinkageProfile] = None,
                 external_force: Optional[Callable[[float], Sequence[float]]] = None,
                 q_init: Optional[Sequence[float]] = None) -> TestbedTrace:
    """Track a hip trajectory under operational-space control.

    mode 'ideal_torque' applies the commanded torques directly;
    'cascaded_vlca' closes a force loop per joint through the series
    actuator, the PDM loop with its disturbance observer, including current
    saturation and command delay. The leg starts at rest on the
    trajectory's initial point, knee down (or at q_init when given), with
    the spring preloaded against gravity.
    """
    if mode not in ("ideal_torque", "cascaded_vlca"):
        raise ValueError("mode must be 'ideal_torque' or 'cascaded_vlca'")
    params, times, pos_des, vel_des, acc_des = osc_run_inputs(
        trajectory, payload_kg, duration, params)
    if profile is None:
        profile = LinkageProfile.constant(DEFAULT_MOMENT_ARM)
    dt = simkit.CONTROL_DT
    n = len(times)

    if q_init is None:
        q = inverse_kinematics(pos_des[0], params)
        q0, q1 = float(q[0]), float(q[1])
    else:
        q0, q1 = float(q_init[0]), float(q_init[1])
    cascaded = mode == "cascaded_vlca"
    advance = leg_period_map(params, cascaded, actuator, profile, external_force)
    k_r, b_r = actuator.k_r, actuator.b_r

    state = (q0, q1, 0.0, 0.0)
    if cascaded:
        ctrls = [simkit.DiscreteForceController(ControllerKind.PDM_DOB,
                                                actuator, force_gains)
                 for _ in range(2)]
        # preload the springs against gravity so the leg starts settled
        _, _, _, _, _, g1, g2 = _dyn_scalars(q0, q1, 0.0, 0.0, params)
        state += ((g1 / profile.arm(q0)) / k_r, 0.0, 0.0,
                  (g2 / profile.arm(q1)) / k_r, 0.0, 0.0)

    trace = TestbedTrace(dt=dt, t=times, x=np.empty((n, 2)), x_des=pos_des,
                         q=np.empty((n, 2)), qdot=np.empty((n, 2)),
                         tau_cmd=np.empty((n, 2)), tau_applied=np.empty((n, 2)),
                         i_m=np.full((n, 2), math.nan),
                         f_k=np.full((n, 2), math.nan),
                         motor_speed_rad_s=np.full((n, 2), math.nan),
                         meta={"mode": mode, "payload_kg": payload_kg})
    singular = 0

    for k in range(n):
        t = float(times[k])
        q0, q1, w0, w1 = state[:4]
        tau0, tau1, damped = _osc_tau(q0, q1, w0, w1,
                                      pos_des[k, 0], pos_des[k, 1],
                                      vel_des[k, 0], vel_des[k, 1],
                                      acc_des[k, 0], acc_des[k, 1],
                                      task_gains, params)
        if damped:
            singular += 1
        if cascaded:
            x0, v0, l0, x1, v1, l1 = state[4:]
            r0, r1 = profile.arm(q0), profile.arm(q1)
            f_meas0, f_meas1 = k_r * (x0 - l0), k_r * (x1 - l1)
            u = (ctrls[0].step(tau0 / r0, f_meas0, v0),
                 ctrls[1].step(tau1 / r1, f_meas1, v1))
            ld0, ld1 = r0 * w0, r1 * w1
            f0 = k_r * (x0 - l0) + b_r * (v0 - ld0)
            f1 = k_r * (x1 - l1) + b_r * (v1 - ld1)
            trace.tau_applied[k] = (r0 * f0, r1 * f1)
            trace.i_m[k] = u
            trace.f_k[k] = (f_meas0, f_meas1)
            trace.motor_speed_rad_s[k] = (actuator.n_m * v0, actuator.n_m * v1)
        else:
            u = (tau0, tau1)
            trace.tau_applied[k] = u
        trace.tau_cmd[k] = (tau0, tau1)
        trace.q[k] = (q0, q1)
        trace.qdot[k] = (w0, w1)
        trace.x[k] = hip_position((q0, q1), params)

        state = advance(state, u[0], u[1], t)
        if not all(map(math.isfinite, state)):
            raise simkit.NonFiniteState(f"leg simulation diverged at t={t:.3f} s")

    trace.singular_count = singular
    if cascaded:
        trace.saturation_count = sum(c.saturation_count for c in ctrls)
        if trace.saturation_count:
            trace.meta["saturated"] = True
    return trace
