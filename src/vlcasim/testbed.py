"""Planar ankle/knee leg testbed: closed-form rigid-body dynamics, a
screw linkage of constant moment arm (vlca.DEFAULT_MOMENT_ARM) at each
joint, operational-space control, and coupled simulation with either
ideal torque sources or the full actuator force loops in series.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import simkit
from .lintf import csv_table
from .vlca import (ActuatorParams, ControllerGains, ControllerKind,
                   DEFAULT_MOMENT_ARM, EXPERIMENT_GAINS, VLCA_ACTUATOR)


class WorkspaceViolation(ValueError):
    """Requested hip path leaves the reachable annulus: bad input."""


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


# The leg's rates as source lines, each tagged with the kernels that take
# it: "dyn" (mass matrix, velocity product, gravity) in _leg_dynamics and in
# every period body; "joint" (the joint solve) in every period body; "push"
# (the hip force's joint torques te0, te1, else 0.0) under a hip force;
# "spring" and "screw" in cascaded mode. They read the state (_LEG_STATE),
# the joint torques t0, t1, the screw drive forces fi0, fi1, the hip force
# fx, fy and run constants.
_LEG_LINES = [line.split(" ", 1) for line in """\
dyn c0, c1_ = cos(q0), cos(q1)
dyn a11 = a11_0 + m2 * (a11_m2 + a11_m2c * c1_) + mp * (a11_mp + a11_mpc * c1_)
dyn a12 = i2 + m2 * (a12_m2 + a12_m2c * c1_) + mp * (a12_mp + a12_mpc * c1_)
dyn hv, c01 = h_s1 * sin(q1), cos(q0 + q1)
dyn b1, b2 = -hv * (2.0 * w0 * w1 + w1 * w1), hv * w0 * w0
dyn g1, g2 = (g_c0 * c0 + g_c01 * c01) * grav, g_c01 * c01 * grav
push s01 = sin(q0 + q1)
push te0 = (-l1 * sin(q0) - l2 * s01) * fx + (l1 * c0 + l2 * c01) * fy
push te1 = -l2 * s01 * fx + l2 * c01 * fy
spring dd0, dd1 = v0 - r * w0, v1 - r * w1
spring f0, f1 = k_r * d0 + b_r * dd0, k_r * d1 + b_r * dd1
spring t0, t1 = r * f0, r * f1
joint det = a11 * a22 - a12 * a12
joint r_0, r_1 = t0 - b1 - g1 + te0, t1 - b2 - g2 + te1
joint wd0, wd1 = (a22 * r_0 - a12 * r_1) / det, (a11 * r_1 - a12 * r_0) / det
screw vd0, vd1 = (fi0 - b_dt * v0 - f0) / m_m, (fi1 - b_dt * v1 - f1) / m_m""".splitlines()]
# the state's names, and its rates' in the same order
_LEG_STATE = ("q0", "q1", "w0", "w1", "d0", "v0", "d1", "v1")
_LEG_RATES = ("w0", "w1", "wd0", "wd1", "dd0", "vd0", "dd1", "vd1")


def _leg_constants(p: TwoDofParams) -> dict:
    """The run constants of p that _LEG_LINES reads, by name."""
    mp = p.payload_mass
    return dict(
        l1=p.l1, l2=p.l2, m2=p.m2, i2=p.i2, mp=mp, grav=p.gravity,
        a11_0=p.i1 + p.i2 + p.m1 * p.c1 ** 2, a11_m2=p.l1 ** 2 + p.c2 ** 2,
        a11_m2c=2.0 * p.l1 * p.c2, a11_mp=p.l1 ** 2 + p.l2 ** 2,
        a11_mpc=2.0 * p.l1 * p.l2, a12_m2=p.c2 ** 2, a12_m2c=p.l1 * p.c2,
        a12_mp=p.l2 ** 2, a12_mpc=p.l1 * p.l2,
        a22=p.i2 + p.m2 * p.c2 ** 2 + mp * p.l2 ** 2,
        h_s1=p.m2 * p.l1 * p.c2 + mp * p.l1 * p.l2,
        g_c0=p.m1 * p.c1 + (p.m2 + mp) * p.l1, g_c01=p.m2 * p.c2 + mp * p.l2)


# The operational-space law as source lines: the joint torques tau0, tau1
# that give the hip the task-space acceleration the gains ask for, through
# the "dyn" lines' mass matrix, velocity product and gravity, and the flag
# damped for a Jacobian near its singularity, where a damped least-squares
# solve takes over. They read the joint state (q0, q1, w0, w1), the desired
# hip position, velocity and acceleration (xd, yd, vxd, vyd, axd, ayd) and
# the run constants kp0, kp1, kd0, kd1 and damp_at (_leg_run).
_OSC_LINES = """\
s0, c0 = sin(q0), cos(q0)
s01, c01 = sin(q0 + q1), cos(q0 + q1)
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
ax = axd + kp0 * (xd - px) + kd0 * (vxd - (j00 * w0 + j01 * w1))
ay = ayd + kp1 * (yd - py) + kd1 * (vyd - (j10 * w0 + j11 * w1))
rx = ax - (jd00 * w0 + jd01 * w1)
ry = ay - (jd10 * w0 + jd11 * w1)
det = j00 * j11 - j01 * j10
damped = abs(det) < damp_at
if not damped:
    inv = 1.0 / det
    qdd0 = inv * (j11 * rx - j01 * ry)
    qdd1 = inv * (-j10 * rx + j00 * ry)
else:
    # damped least-squares through J^T (J J^T + lam^2 I)^-1
    fro = sqrt(j00 * j00 + j01 * j01 + j10 * j10 + j11 * j11)
    lam = 0.01 * fro * (1.0 - abs(det) / damp_at)
    m00 = j00 * j00 + j01 * j01 + lam * lam
    m01 = j00 * j10 + j01 * j11
    m11 = j10 * j10 + j11 * j11 + lam * lam
    mdet = m00 * m11 - m01 * m01
    ux = (m11 * rx - m01 * ry) / mdet
    uy = (-m01 * rx + m00 * ry) / mdet
    qdd0 = j00 * ux + j10 * uy
    qdd1 = j01 * ux + j11 * uy
tau0 = a11 * qdd0 + a12 * qdd1 + b1 + g1
tau1 = a12 * qdd0 + a22 * qdd1 + b2 + g2""".splitlines()
_KERNEL_GLOBALS = {"cos": math.cos, "sin": math.sin, "sqrt": math.sqrt,
                   "copysign": math.copysign}


@lru_cache(maxsize=None)
def _dyn_factory(constants: tuple):
    """factory(*constants) -> dyn, the "dyn" lines as a function; compiled
    once."""
    body = "".join(f"        {line}\n" for tag, line in _LEG_LINES if tag == "dyn")
    return simkit._compile(
        f"def factory({', '.join(constants)}):\n"
        f"    def dyn(q0, q1, w0, w1):\n{body}"
        "        return a11, a12, a22, b1, b2, g1, g2\n    return dyn\n",
        "<testbed._dyn_factory>", "factory", **_KERNEL_GLOBALS)


def _leg_dynamics(p: TwoDofParams):
    """The leg's rigid-body dynamics with the run constants of p hoisted:
    dyn(q0, q1, w0, w1) -> (a11, a12, a22, b1, b2, g1, g2), the mass-matrix
    entries, the velocity-product vector and the gravity vector, equal bit
    for bit to the reference _dyn_scalars in tests/oracles.py. It runs the
    "dyn" lines of _LEG_LINES, which every leg period body inlines."""
    constants = _leg_constants(p)
    return _dyn_factory(tuple(constants))(*constants.values())


def hip_position(q, params: TwoDofParams) -> np.ndarray:
    """Hip (x, y) of one joint pair q, or row by row of an (n, 2) array."""
    q = np.asarray(q, dtype=float)
    q0, q01 = q[..., 0], q[..., 0] + q[..., 1]
    return np.stack([params.l1 * np.cos(q0) + params.l2 * np.cos(q01),
                     params.l1 * np.sin(q0) + params.l2 * np.sin(q01)], -1)


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


def _bspline_eval(t: np.ndarray, c: np.ndarray, k: int, x: np.ndarray):
    """The spline of knots t, coefficient rows c and degree k at each x in
    [t[k], t[-k-1]], by de Boor: the k + 1 non-zero Cox-de Boor basis values
    of x's knot interval, built and summed in the order of SciPy's
    BSpline.__call__, so the values equal it bit for bit."""
    n = len(t) - k - 1
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    basis = [np.ones_like(x)]
    for j in range(1, k + 1):
        prev, basis = basis, [np.zeros_like(x)] + [None] * j
        for m in range(1, j + 1):
            xb, xa = t[ell + m], t[ell + m - j]
            w = prev[m - 1] / (xb - xa)
            basis[m - 1] = basis[m - 1] + w * (xb - x)
            basis[m] = w * (x - xa)
    out = np.zeros((len(x), c.shape[1]))
    for m, b in enumerate(basis):
        out = out + c[ell + m - k] * b[:, None]
    return out


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
        t = np.concatenate([[0.0] * k, inner, [duration_s] * k])
        # position, velocity and acceleration splines; each derivative's
        # coefficients as SciPy's splder forms them, on the knots less one
        # at each end
        self._splines = [(t, pts, k)]
        c = pts
        for deg in (k, k - 1):
            c = (c[1:] - c[:-1]) * deg / (t[deg + 1:-1] - t[1:-deg - 1])[:, None]
            t = t[1:-1]
            self._splines.append((t, c, deg - 1))

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
        pos, vel, acc = (_bspline_eval(*spl, tc) for spl in self._splines)
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
        steps, substeps = len(self.t), self.meta["substeps"]
        return {"control_steps": steps,
                "leg_substeps": steps * substeps,
                "rate_evaluations": steps * substeps * len(_DP5_B),
                "saturated_steps": self.saturation_count,
                "singularity_damped_steps": self.singular_count}


_WORKSPACE_MARGIN = 0.02  # clearance kept from both workspace radii [m]


def _check_workspace(pos: np.ndarray, params: TwoDofParams):
    r = np.linalg.norm(pos, axis=1)
    outer = params.reach - _WORKSPACE_MARGIN
    inner = params.inner_radius + _WORKSPACE_MARGIN
    # negated so that a NaN radius fails both checks
    if not float(r.max()) <= outer:
        raise WorkspaceViolation(
            f"path reaches radius {r.max():.3f} m; limit {outer:.3f} m")
    if not float(r.min()) >= inner:
        raise WorkspaceViolation(
            f"path reaches radius {r.min():.3f} m; inner limit {inner:.3f} m")


# Leg DP5 substeps per control period, per mode: the smallest count whose
# largest output deviation over the leg_sim benchmark seeds 0-10, against 10
# and against 20 substeps, stays within half of the tightest relative check
# on that mode's outputs, with the saturated and averaged step counts exact.
# Ideal mode, 1e-3 on osc_metrics: 3.4e-10 at 1 substep. Cascaded mode, 1e-6
# on efficiency_summary: 4.2e-8 at 2 substeps, 1.8e-6 at 1. leg_substeps
# raises the cascaded count where the actuators need it for stability.
LEG_SUBSTEPS = {"ideal_torque": 1, "cascaded_vlca": 2}

# at most 50 times a nominal cascaded period's work: a run whose actuators
# need more is rejected before it starts
MAX_LEG_SUBSTEPS = 100

# The 6-stage 5th-order solution of the Dormand-Prince 5(4) pair (Dormand &
# Prince, J. Comput. Appl. Math. 6, 1980) as fixed steps: the stage rows
# a_ij and the weights b_j, without the step-size control and the FSAL
# error stage. Its stability region holds the negative real axis down to
# -3.3066 and the left half-disk of radius 0.9972, which the imaginary axis
# bounds; the floor in leg_substeps keeps h*lambda inside the two.
_DP5_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP5_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP5_REAL_LIMIT, _DP5_DISK_RADIUS = 3.306, 0.997


def leg_substeps(params: TwoDofParams, cascaded: bool,
                 actuator: ActuatorParams) -> int:
    """DP5 substeps per control period: LEG_SUBSTEPS[mode], raised in
    cascaded mode to the smallest count that keeps h*lambda inside DP5's
    stability region for every eigenvalue lambda of the linear
    actuator-joint block.

    That block is M x'' + C x' + K x = 0 over the screw positions and joint
    angles: the effective mass and the leg's mass matrix, the motor drag
    plus the spring damping b_r across each screw and its linkage, and the
    spring k_r across them. Each lambda solves lambda^2 + c lambda + k = 0
    with c <= (b_dt + b_r)/m_m + b_r r^2/I and k <= k_r (1/m_m + r^2/I),
    r the moment arm DEFAULT_MOMENT_ARM and I a floor on the mass matrix's
    smallest eigenvalue, so a real lambda lies in [-c, 0] and a complex one
    within sqrt(k) of 0. Raises ValueError above MAX_LEG_SUBSTEPS, and for a
    mass matrix that is singular at some knee angle."""
    if not cascaded:
        return LEG_SUBSTEPS["ideal_torque"]
    # det / trace at the straight and the folded knee: the determinant is
    # concave in cos(q1) and the trace linear, so this bounds the smallest
    # eigenvalue over every knee angle from below
    dyn = _leg_dynamics(params)
    mass = [dyn(0.0, q1, 0.0, 0.0)[:3] for q1 in (0.0, math.pi)]
    i_min = (min(a11 * a22 - a12 * a12 for a11, a12, a22 in mass)
             / max(a11 + a22 for a11, _, a22 in mass))
    # singular, to rounding, where a12^2 reaches a11 a22: only a thigh
    # without inertia (i2 = 0) lets the knee turn without moving any mass
    if any(a12 * a12 >= (1.0 - 1e-12) * a11 * a22 for a11, a12, a22 in mass):
        raise ValueError(
            f"i2 = {params.i2:g} makes the leg's mass matrix singular at a "
            "straight or folded knee: with this payload and these centroids "
            "the knee turns without moving any inertia")
    r2, m_m = DEFAULT_MOMENT_ARM ** 2, actuator.effective_mass
    c_max = actuator.effective_damping / m_m + actuator.b_r * r2 / i_min
    k_max = actuator.k_r * (1.0 / m_m + r2 / i_min)
    n = max(LEG_SUBSTEPS["cascaded_vlca"],
            math.ceil(simkit.CONTROL_DT * c_max / _DP5_REAL_LIMIT),
            math.ceil(simkit.CONTROL_DT * math.sqrt(k_max) / _DP5_DISK_RADIUS))
    if n > MAX_LEG_SUBSTEPS:
        raise ValueError(
            f"the actuators' damping and stiffness need {n} leg substeps per "
            f"control period, more than {MAX_LEG_SUBSTEPS}")
    return n


@lru_cache(maxsize=None)
def _leg_kernel(m: int, pushed: bool, constants: tuple):
    """factory(n, external_force, *constants) -> run(des, states, taus,
    cmds_0, cmds_1, *state) -> (error, singular, saturated): the whole leg
    run over the first m of the eight state floats, the rest carried as
    given. Per row (xd, yd, vxd, vyd, axd, ayd) of des, one control period:
    record the state in states; run the first stage's "dyn" lines, then
    _OSC_LINES on them, recording the torques in taus; in cascaded mode
    turn each torque into a current command, recorded in cmds_0 or cmds_1,
    by the joint's PDM_DOB lines (simkit._force_law, names suffixed _0 or
    _1); then n fixed DP5 substeps with the command "delay" periods old and
    the hip force external_force(k * dt) held. Every stage runs the mode's
    lines of _LEG_LINES on its own names and adds to the state the sum of
    its (h * a_ij) * k_j products (constants h<row>_<j>), left to right in
    j, as tests/oracles.py's dp5_step does; the first substep reuses the
    period start's "dyn" lines. The last state is recorded too. A
    ValueError of the period's arithmetic (math.cos of a state past the
    floats) ends the run, returned as error; the hip force's own exceptions
    propagate. Compiled once per (m, pushed, constants)."""
    tags = {"dyn", "joint", *["push"] * pushed, *["spring", "screw"] * (m == 8)}
    lines = [(tag, line) for tag, line in _LEG_LINES if tag in tags]
    xs = [f"x{i}" for i in range(8)]
    rows = [[j for j, a in enumerate(row, 1) if a] for row in (*_DP5_A, _DP5_B)]
    # the substep's lines, the first stage's tagged ("dyn" for its dynamics)
    body, ks, stage = [], [], xs
    for s, row in enumerate(rows, 1):
        # stage s: its rates k_s, then the next stage (after the last: x)
        names = dict(zip(_LEG_STATE, stage))
        ks.append([names.get(k, f"k{s}_{i}") for i, k in enumerate(_LEG_RATES[:m])])
        names.update(zip(_LEG_RATES, ks[-1]))
        body += [(tag if s == 1 else "", simkit._renamed(line, names))
                 for tag, line in lines]
        sums = [f"{x} + ({' + '.join(f'h{s}_{j} * {ks[j - 1][i]}' for j in row)})"
                for i, x in enumerate(xs[:m])]
        if s < len(rows):
            stage = [f"y{s + 1}_{i}" for i in range(m)] + xs[m:]
            body += [("", f"{y} = {sum_}") for y, sum_ in zip(stage, sums)]
        else:  # at once: the sums read the first stage's rates, x among them
            body.append(("", f"{', '.join(xs[:m])} = {', '.join(sums)}"))

    dyn = [line for tag, line in body if tag == "dyn"]
    start, drive = ["singular = 0"], ["t0, t1 = tau0, tau1"]
    if m == 8:
        drive = []
        law_tags = simkit._FORCE_TAGS[ControllerKind.PDM_DOB]
        for j, (d, v) in enumerate((("x4", "x5"), ("x6", "x7"))):
            first, period = simkit._force_law(law_tags, f"_{j}")
            start += first
            drive += [f"f_target_{j}, f_meas_{j}, v_m_{j} = tau{j} / r, k_r * {d}, {v}",
                      *period, f"cmds_{j}.append(i_cmd_{j})"]
        drive.append("fi0, fi1 = n_drive * cmds_0[k], n_drive * cmds_1[k]")
    if not pushed:
        start.append("te0 = te1 = 0.0")
    joints = dict(zip(_LEG_STATE, xs))
    period = [*dyn, *(simkit._renamed(line, joints) for line in _OSC_LINES),
              "singular += damped", "taus.append(tau0)", "taus.append(tau1)",
              *drive, "for sub in range(n):", "    if sub:",
              *(f"        {line}" for line in dyn),
              *(f"    {line}" for tag, line in body if tag != "dyn")]
    saturated = "sat_0 + sat_1" if m == 8 else "0"
    src = "\n".join([
        f"def factory(n, external_force, {', '.join(constants)}):",
        f"    def run(des, states, taus, cmds_0, cmds_1, {', '.join(xs)}):",
        *(f"        {line}" for line in start),
        "        for k, (xd, yd, vxd, vyd, axd, ayd) in enumerate(des):",
        *(f"            states.append({x})" for x in xs),
        *["            fx, fy = external_force(k * dt)"] * pushed,
        "            try:",
        *(f"                {line}" for line in period),
        "            except ValueError as error:",
        f"                return error, singular, {saturated}",
        *(f"        states.append({x})" for x in xs),
        f"        return None, singular, {saturated}",
        "    return run", ""])
    return simkit._compile(src, f"<testbed._leg_kernel m={m} pushed={pushed} run>",
                           "factory", **_KERNEL_GLOBALS)


def _leg_run(params: TwoDofParams, cascaded: bool, actuator: ActuatorParams,
             task_gains: TaskGains, force: dict,
             external_force: Optional[Callable[[float], Sequence[float]]]):
    """(n, run): a leg run's substeps per control period and its kernel
    (_leg_kernel) with every constant bound: the leg's, the actuator's, the
    DP5 coefficients, the task gains and, in cascaded mode, force, each
    joint's PDM_DOB constants (simkit.force_law_constants). run(des,
    states, taus, cmds_0, cmds_1, *state) records into lists or arrays,
    each joint's commands starting with force["delay"] zeros.

    The state is (q0, q1, w0, w1, d0, v0, d1, v1): the joint angles and
    rates, then each actuator's spring deflection d (the screw position
    less the linkage displacement) and screw rate v, so d's rate is v - r*w
    and the spring force k_r*d + b_r*(v - r*w), r the moment arm. Ideal
    mode integrates the joints only, under the law's torques, and carries
    the actuator entries as given; cascaded mode integrates all eight."""
    n = leg_substeps(params, cascaded, actuator)
    h = simkit.CONTROL_DT / n
    (kp0, kp1), (kd0, kd1) = task_gains.kp, task_gains.kd
    constants = {
        **_leg_constants(params), "k_r": actuator.k_r, "b_r": actuator.b_r,
        "r": DEFAULT_MOMENT_ARM, "m_m": actuator.effective_mass,
        "b_dt": actuator.drivetrain_damping, "n_drive": actuator.drive_constant,
        **{f"h{s}_{j}": h * a for s, row in enumerate((*_DP5_A, _DP5_B), 1)
           for j, a in enumerate(row, 1) if a},
        "kp0": kp0, "kp1": kp1, "kd0": kd0, "kd1": kd1,
        "damp_at": 1e-3 * params.reach ** 2, "dt": simkit.CONTROL_DT,
        **(force if cascaded else {})}
    return n, _leg_kernel(8 if cascaded else 4, external_force is not None,
                          tuple(constants))(n, external_force, *constants.values())


def osc_run_inputs(trajectory, payload_kg: float, duration: float,
                   params: TwoDofParams, actuator: ActuatorParams,
                   force_gains: ControllerGains):
    """The checks every leg run makes before it integrates, and what they
    yield: (params carrying the payload, sample times, desired positions,
    velocities, accelerations, the constants of each joint's PDM_DOB force
    law, simkit.force_law_constants). Raises ValueError for a bad run
    length, payload, force loop, actuator block or singular mass matrix
    (leg_substeps), and its subclass WorkspaceViolation for a path the leg
    cannot reach."""
    n = simkit.control_steps(duration, "duration_s")
    params = replace(params, payload_mass=float(payload_kg))
    force = simkit.force_law_constants(ControllerKind.PDM_DOB, actuator,
                                       force_gains)
    leg_substeps(params, True, actuator)
    times = np.arange(n) * simkit.CONTROL_DT
    pos_des, vel_des, acc_des = trajectory.sample(times)
    _check_workspace(pos_des, params)
    return params, times, pos_des, vel_des, acc_des, force


def simulate_osc(trajectory, payload_kg: float, mode: str, duration: float,
                 task_gains: TaskGains = TaskGains(),
                 params: TwoDofParams = TwoDofParams(),
                 actuator: ActuatorParams = VLCA_ACTUATOR,
                 force_gains: ControllerGains = EXPERIMENT_GAINS,
                 external_force: Optional[Callable[[float], Sequence[float]]] = None,
                 q_init: Optional[Sequence[float]] = None) -> TestbedTrace:
    """Track a hip trajectory under operational-space control.

    mode 'ideal_torque' applies the commanded torques directly;
    'cascaded_vlca' closes a force loop per joint through the series
    actuator, the PDM loop with its disturbance observer, including current
    saturation and command delay. The leg starts at rest on the
    trajectory's initial point, knee down (or at q_init when given), with
    the spring preloaded against gravity.

    The whole run is one generated kernel (_leg_kernel). A state that
    leaves the floats raises simkit.NonFiniteState naming the start of the
    period that produced it; an exception of external_force propagates.
    """
    if mode not in ("ideal_torque", "cascaded_vlca"):
        raise ValueError("mode must be 'ideal_torque' or 'cascaded_vlca'")
    params, times, pos_des, vel_des, acc_des, force = osc_run_inputs(
        trajectory, payload_kg, duration, params, actuator, force_gains)
    q0, q1 = map(float, inverse_kinematics(pos_des[0], params)
                 if q_init is None else q_init)
    cascaded = mode == "cascaded_vlca"
    k_r, b_r, r = actuator.k_r, actuator.b_r, DEFAULT_MOMENT_ARM

    d0 = d1 = 0.0  # the actuator entries stay at zero in ideal mode
    if cascaded:
        # preload the springs against gravity so the leg starts settled
        g1, g2 = _leg_dynamics(params)(q0, q1, 0.0, 0.0)[5:]
        d0, d1 = (g1 / r) / k_r, (g2 / r) / k_r

    n, run = _leg_run(params, cascaded, actuator, task_gains, force,
                      external_force)
    # packed doubles: no float object outlives its step
    states, taus = array("d"), array("d")
    cmds = [array("d", bytes(8 * force["delay"])) for _ in range(2)]
    error, singular, saturated = run(
        np.hstack((pos_des, vel_des, acc_des)).tolist(), states, taus, *cmds,
        q0, q1, 0.0, 0.0, d0, 0.0, d1, 0.0)
    states = np.frombuffer(states).reshape(-1, 8)
    # row k + 1 is the state period k produced; a period that raised
    # recorded no state
    bad = np.flatnonzero(~np.isfinite(states[1:]).all(axis=1))
    if error is not None or bad.size:
        k = bad[0] if bad.size else len(states) - 1
        raise simkit.NonFiniteState(f"leg simulation diverged at "
                                    f"t={times[k]:.3f} s") from (
            None if bad.size else error)

    steps = len(times)
    states = states[:steps]
    tau_cmd = np.frombuffer(taus).reshape(-1, 2)
    q, qdot = states[:, :2], states[:, 2:4]
    if cascaded:
        # spring deflection and screw rate of both actuators
        f_k, v_s = k_r * states[:, 4::2], states[:, 5::2]
        tau_applied = r * (f_k + b_r * (v_s - r * qdot))
        i_m = np.column_stack([np.frombuffer(c)[:steps] for c in cmds])
        motor_speed = actuator.n_m * v_s
    else:
        tau_applied = tau_cmd.copy()
        i_m, f_k, motor_speed = (np.full(q.shape, math.nan) for _ in range(3))
    return TestbedTrace(dt=simkit.CONTROL_DT, t=times, x=hip_position(q, params),
                        x_des=pos_des, q=q, qdot=qdot,
                        tau_cmd=tau_cmd, tau_applied=tau_applied,
                        i_m=i_m, f_k=f_k, motor_speed_rad_s=motor_speed,
                        saturation_count=saturated, singular_count=singular,
                        meta={"mode": mode, "payload_kg": payload_kg,
                              "substeps": n})
