"""Reference formulas the tests hold the live kernels against."""
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction as Fr
from functools import reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

from vlcasim.lintf import NoCrossover, stability_margins, zoh_discretize
from vlcasim.simkit import (CONTROL_DT, CURRENT_LIMIT_A, _locked_plant,
                            delay_samples)
from vlcasim.testbed import TwoDofParams, leg_substeps
from vlcasim.vlca import (DEFAULT_MOMENT_ARM, MARGIN_DELAY_GRID,
                          ActuatorParams, ControllerGains, ControllerKind,
                          MarginCalibration, open_loop_tf, q_taud_tf)


@dataclass(frozen=True)
class JacobianInfo:
    j: np.ndarray       # 2x2 hip Jacobian
    jdot: np.ndarray    # its time derivative at the given joint rates
    det: float
    singular: bool      # |det| under 1e-6 * reach^2


def hip_jacobian(q: Sequence[float], params: TwoDofParams,
                 qdot: Sequence[float] = (0.0, 0.0)) -> JacobianInfo:
    """The hip Jacobian in matrix form, with its rate and determinant."""
    l1, l2 = params.l1, params.l2
    s0, c0 = math.sin(q[0]), math.cos(q[0])
    s01, c01 = math.sin(q[0] + q[1]), math.cos(q[0] + q[1])
    j = np.array([[-l1 * s0 - l2 * s01, -l2 * s01],
                  [l1 * c0 + l2 * c01, l2 * c01]])
    wsum = qdot[0] + qdot[1]
    jdot = np.array([[-l1 * c0 * qdot[0] - l2 * c01 * wsum, -l2 * c01 * wsum],
                     [-l1 * s0 * qdot[0] - l2 * s01 * wsum, -l2 * s01 * wsum]])
    det = l1 * l2 * math.sin(q[1])
    return JacobianInfo(j=j, jdot=jdot, det=det,
                        singular=abs(det) < 1e-6 * params.reach ** 2)


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


def osc_tau(q0, q1, w0, w1, xd, yd, vxd, vyd, axd, ayd, gains,
            p: TwoDofParams):
    """The operational-space torque law at one state, unhoisted:
    (tau0, tau1, damped) for the joint state, the desired hip position,
    velocity and acceleration, the TaskGains gains and the leg p."""
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


def total_energy(q, qdot, params: TwoDofParams) -> float:
    """Kinetic plus gravitational potential energy of the leg [J]."""
    a11, a12, a22, _, _, _, _ = _dyn_scalars(q[0], q[1], qdot[0], qdot[1],
                                             params)
    w0, w1 = qdot[0], qdot[1]
    ke = 0.5 * (a11 * w0 * w0 + 2.0 * a12 * w0 * w1 + a22 * w1 * w1)
    s0, s01 = math.sin(q[0]), math.sin(q[0] + q[1])
    y1 = params.c1 * s0
    y2 = params.l1 * s0 + params.c2 * s01
    yp = params.l1 * s0 + params.l2 * s01
    pe = params.gravity * (params.m1 * y1 + params.m2 * y2
                           + params.payload_mass * yp)
    return ke + pe


def rk4_step(f: Callable, t: float, y: Sequence[float], h: float) -> tuple:
    """One classical RK4 step of y' = f(t, y) over h; y and f(t, y) are
    equal-length sequences of floats."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, tuple(s + 0.5 * h * d for s, d in zip(y, k1)))
    k3 = f(t + 0.5 * h, tuple(s + 0.5 * h * d for s, d in zip(y, k2)))
    k4 = f(t + h, tuple(s + h * d for s, d in zip(y, k3)))
    return tuple(s + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                 for s, a, b, c, d in zip(y, k1, k2, k3, k4))


# Dormand & Prince, J. Comput. Appl. Math. 6 (1980): the nodes, the stage
# rows and the weights of the 5th-order solution of their 5(4) pair
_DP5_C = tuple(map(float, (Fr(1, 5), Fr(3, 10), Fr(4, 5), Fr(8, 9), Fr(1))))
_DP5_A = tuple(tuple(map(float, row)) for row in (
    (Fr(1, 5),),
    (Fr(3, 40), Fr(9, 40)),
    (Fr(44, 45), Fr(-56, 15), Fr(32, 9)),
    (Fr(19372, 6561), Fr(-25360, 2187), Fr(64448, 6561), Fr(-212, 729)),
    (Fr(9017, 3168), Fr(-355, 33), Fr(46732, 5247), Fr(49, 176),
     Fr(-5103, 18656))))
_DP5_B = tuple(map(float, (Fr(35, 384), Fr(0), Fr(500, 1113), Fr(125, 192),
                           Fr(-2187, 6784), Fr(11, 84))))


def dp5_step(f: Callable, t: float, y: Sequence[float], h: float) -> tuple:
    """One fixed step of the 5th-order Dormand-Prince solution of
    y' = f(t, y) over h, without error estimate; y and f(t, y) are
    equal-length sequences of floats. Each stage adds to y the sum of the
    (h * a_ij) * k_j products, left to right in j, zero weights left out."""
    def incr(coeffs, ks):
        hc = [h * c for c in coeffs]
        return [reduce(add, (c * k for c, k in zip(hc, col) if c))
                for col in zip(*ks)]

    ks = [f(t, y)]
    for c, row in zip(_DP5_C, _DP5_A):
        stage = tuple(s + d for s, d in zip(y, incr(row, ks)))
        ks.append(f(t + c * h, stage))
    return tuple(s + d for s, d in zip(y, incr(_DP5_B, ks)))


def plant_energy(params, y) -> float:
    """Kinetic plus spring energy of the locked-output plant state
    (x_r, v_r) [J]."""
    return 0.5 * params.effective_mass * y[1] ** 2 + 0.5 * params.k_r * y[0] ** 2


def locked_plant_rates(params, force: float = 0.0):
    """rk4_step rates (x_r, v_r) -> (v_r, a_r) of the locked-output spring
    plant under a held screw-axis force [N]."""
    inv_m = 1.0 / params.effective_mass
    b, k = params.effective_damping, params.k_r
    return lambda _t, y: (y[1], (force - b * y[1] - k * y[0]) * inv_m)


def thermal_rises(adb, params, current_a: float, rise_w: float,
                  rise_h: float, n: int):
    """The two-node thermal recurrence in Python floats: the winding and
    housing rises above ambient, from (rise_w, rise_h) and then after each
    of n periods, under the 2 x 3 update [Ad | Bd] adb. The winding power
    is held over each period at its value at the period start."""
    (a00, a01, b0), (a10, a11, b1) = np.asarray(adb).tolist()
    amb, r25, alpha = params.ambient_c, params.r_elec_25, params.alpha
    i2 = current_a ** 2
    w, h = rise_w, rise_h
    ws, hs = [w], [h]
    for _ in range(n):
        p = i2 * (r25 * (1.0 + alpha * (amb + w - 25.0)))
        w, h = a00 * w + a01 * h + b0 * p, a10 * w + a11 * h + b1 * p
        ws.append(w)
        hs.append(h)
    return np.array(ws), np.array(hs)


def polyline_points(x, y, limits, logx: bool = False, logy: bool = False,
                    frame=(64, 704, 394, 34)) -> str:
    """The points attribute of an SVG polyline, mapped and formatted one
    point at a time: x and y are the cleaned samples, limits the axis
    limits (x_lo, x_hi, y_lo, y_hi), frame the pixel span (px0, px1, py0,
    py1) of the 720x440 chart."""
    def to_px(v, lo, hi, p_lo, p_hi, log):
        if log:
            v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
        return p_lo + (v - lo) / (hi - lo) * (p_hi - p_lo)

    x_lo, x_hi, y_lo, y_hi = limits
    px0, px1, py0, py1 = frame
    return " ".join(
        f"{to_px(float(xv), x_lo, x_hi, px0, px1, logx):.2f},"
        f"{to_px(float(yv), y_lo, y_hi, py0, py1, logy):.2f}"
        for xv, yv in zip(x, y))


def m4_kept(x, y, limits, logx: bool = False, logy: bool = False,
            frame=(64, 704, 394, 34)):
    """The samples of a cleaned series that a chart draws, found one point
    at a time: every sample, unless the series has more than four points
    per pixel column and its pixel x never decreases; then, in each column
    floor(x_px - px0), the first and last sample and the first of least
    and of greatest pixel y, in their original order."""
    def to_px(v, lo, hi, p_lo, p_hi, log):
        if log:
            v, lo, hi = math.log10(v), math.log10(lo), math.log10(hi)
        return p_lo + (v - lo) / (hi - lo) * (p_hi - p_lo)

    x_lo, x_hi, y_lo, y_hi = limits
    px0, px1, py0, py1 = frame
    pts = [(to_px(float(a), x_lo, x_hi, px0, px1, logx),
            to_px(float(b), y_lo, y_hi, py0, py1, logy)) for a, b in zip(x, y)]
    if (len(pts) <= 4 * (px1 - px0 + 1)
            or any(b[0] < a[0] for a, b in zip(pts, pts[1:]))):
        return x, y
    columns = {}  # column -> [first, last, lowest, highest] sample index
    for i, (xp, yp) in enumerate(pts):
        c = math.floor(xp - px0)
        if c not in columns:
            columns[c] = [i, i, i, i]
            continue
        picks = columns[c]
        picks[1] = i
        if yp < pts[picks[2]][1]:
            picks[2] = i
        if yp > pts[picks[3]][1]:
            picks[3] = i
    kept = sorted({i for picks in columns.values() for i in picks})
    return np.asarray(x)[kept], np.asarray(y)[kept]


def csv_per_cell(header: str, columns) -> str:
    """CSV text with every cell formatted on its own: a float as %.10g, an
    int as is, text as given, None, NaN and +-inf as an empty cell."""
    def cell(v) -> str:
        if isinstance(v, str):
            return v
        if v is None or not math.isfinite(v):
            return ""
        return "%d" % v if isinstance(v, (int, np.integer)) else "%.10g" % v

    cols = [list(c) for c in columns]
    return "\n".join([header] + [",".join(cell(v) for v in r)
                                 for r in zip(*cols)]) + "\n"


def phase_margin(kind: ControllerKind, params, gains) -> float:
    """The loop's phase margin [deg] from its own scan; NaN without a unity
    crossing."""
    try:
        return stability_margins(open_loop_tf(kind, params, gains)).phase_margin_deg
    except NoCrossover:
        return math.nan


def calibrate_margins_grid(params, gains, pm_pdf_target: float = 17.1,
                           pm_pdm_target: float = 47.6, delay_grid=None,
                           q_d_grid=None) -> MarginCalibration:
    """calibrate_margins by brute force: a full margin scan of the PDM loop
    at every delay and of the PDF loop at every (delay, cutoff) point,
    walked delay-major; a strict < keeps the first of tied points."""
    if delay_grid is None:
        delay_grid = MARGIN_DELAY_GRID
    if q_d_grid is None:
        q_d_grid = 2.0 * math.pi * np.geomspace(20.0, 200.0, 16)
    best = None
    for t in delay_grid:
        g_t = replace(gains, delay_t=float(t))
        pm_pdm = phase_margin(ControllerKind.PDM, params, g_t)
        if math.isnan(pm_pdm):
            continue
        for wd in q_d_grid:
            g = replace(g_t, q_d_cutoff=float(wd))
            pm_pdf = phase_margin(ControllerKind.PDF, params, g)
            if math.isnan(pm_pdf):
                continue
            obj = max(abs(pm_pdf - pm_pdf_target), abs(pm_pdm - pm_pdm_target))
            if best is None or obj < best[0]:
                best = (obj, float(t), float(wd), pm_pdf, pm_pdm)
    if best is None:
        return MarginCalibration(*(math.nan,) * 7)
    obj, t, wd, pm_pdf, pm_pdm = best
    g = replace(gains, delay_t=t, q_d_cutoff=wd)
    return MarginCalibration(
        delay_t=t, q_d_cutoff=wd, pm_pdf_deg=pm_pdf, pm_pdm_deg=pm_pdm,
        pm_pidm_deg=phase_margin(ControllerKind.PIDM, params, g),
        pm_pdm_dob_deg=phase_margin(ControllerKind.PDM_DOB, params, g),
        objective_deg=obj)


class _TustinDeriv:
    """Bilinear discretization of w*s/(s+w)."""

    def __init__(self, cutoff_rad_s: float):
        k = 2.0 / CONTROL_DT
        self._a = (k - cutoff_rad_s) / (k + cutoff_rad_s)
        self._b = cutoff_rad_s * k / (k + cutoff_rad_s)
        self._y = 0.0
        self._u = 0.0

    def step(self, u: float) -> float:
        y = self._a * self._y + self._b * (u - self._u)
        self._y, self._u = y, u
        return y


class _TustinBiquad:
    """Bilinear discretization of (B2 s^2 + B1 s + B0)/(A2 s^2 + A1 s + A0),
    direct form II transposed."""

    def __init__(self, num, den):
        b2, b1, b0 = num[2], num[1], num[0]
        a2, a1, a0 = den[2], den[1], den[0]
        k = 2.0 / CONTROL_DT
        k2 = k * k
        d0 = a2 * k2 + a1 * k + a0
        self.b0 = (b2 * k2 + b1 * k + b0) / d0
        self.b1 = (2.0 * b0 - 2.0 * b2 * k2) / d0
        self.b2 = (b2 * k2 - b1 * k + b0) / d0
        self.a1 = (2.0 * a0 - 2.0 * a2 * k2) / d0
        self.a2 = (a2 * k2 - a1 * k + a0) / d0
        self.z1 = 0.0
        self.z2 = 0.0

    def step(self, u: float) -> float:
        y = self.b0 * u + self.z1
        self.z1 = self.b1 * u - self.a1 * y + self.z2
        self.z2 = self.b2 * u - self.a2 * y
        return y


class _DobShaper:
    """Reference correction from a filtered plant-inverse force estimate.

    Solves the observer's direct-feedthrough algebraically each step, so no
    extra sample of delay is introduced beyond the loop's own.
    """

    def __init__(self, params: ActuatorParams, gains: ControllerGains):
        q = q_taud_tf(gains)  # the margin model's observer filter, monic
        w2, den = q.num.coefficients[0], q.den.coefficients
        m = params.effective_mass
        b = params.effective_damping + gains.k_dm * params.n_m
        k = params.k_r * (1.0 + gains.k_p)
        self._q = _TustinBiquad((w2, 0.0, 0.0), den)
        scale = w2 / k
        self._g = _TustinBiquad((k * scale, b * scale, m * scale), den)

    def shape(self, f_desired: float, f_meas: float) -> float:
        """Solve this period's corrected reference; commit() must follow."""
        g_out = self._g.step(f_meas)
        # f_ref = f_d + Q(f_ref) - G(f_meas); Q has feedthrough b0 < 1
        return (f_desired + self._q.z1 - g_out) / (1.0 - self._q.b0)

    def commit(self, f_ref: float) -> None:
        """Advance the observer filter with the reference actually acted on
        (back-calculated under current clipping, to keep the integral-like
        observer from winding up)."""
        self._q.step(f_ref)


class ReferenceForceController:
    """The force controller as four classes: the derivative filter, the
    biquad and the observer's shape/commit protocol apart; the run kernels
    state it once, as the tagged lines simkit._FORCE_LINES.

    step() takes the raw force target, the measured spring force, and the
    motor-side velocity in screw coordinates; it returns the current that
    reaches the amplifier this period (after the command delay and clip).
    """

    def __init__(self, kind: ControllerKind, params: ActuatorParams,
                 gains: ControllerGains):
        self.kind = kind
        self.params = params
        self.gains = gains
        self.saturation_count = 0
        self._n = params.drive_constant
        self._integ = 0.0
        # the commands in flight, oldest first: the transport delay's FIFO
        self._delay = deque([0.0] * delay_samples(gains.delay_t))
        self._deriv = None
        self._dob = None
        if kind is ControllerKind.PDF:
            self._deriv = _TustinDeriv(gains.cutoff("q_d_cutoff"))
            self._k_df = gains.resolved_k_df(params)
        if kind is ControllerKind.PDM_DOB:
            self._dob = _DobShaper(params, gains)

    @property
    def latency_s(self) -> float:
        """Time between computing a command and it reaching the amplifier."""
        return len(self._delay) * CONTROL_DT

    def step(self, f_target: float, f_meas: float, motor_velocity: float) -> float:
        g = self.gains
        f_ref = self._dob.shape(f_target, f_meas) if self._dob else f_target
        err = f_ref - f_meas
        damp = g.k_dm * self.params.n_m * motor_velocity
        if self.kind is ControllerKind.PDF:
            u = g.k_p * err + f_ref - self._k_df * self._deriv.step(f_meas)
        elif self.kind is ControllerKind.PIDM:
            integ_next = self._integ + err * CONTROL_DT
            u = g.k_p * err + g.k_i * integ_next + f_ref - damp
        else:  # PDM and the DOB's inner loop
            u = g.k_p * err + f_ref - damp
        i_cmd = u / self._n
        clipped = abs(i_cmd) > CURRENT_LIMIT_A
        if clipped:
            i_cmd = math.copysign(CURRENT_LIMIT_A, i_cmd)
            self.saturation_count += 1
        if self.kind is ControllerKind.PIDM:
            # hold the integrator while the amplifier is at its rail
            self._integ = self._integ if clipped else integ_next
        if self._dob is not None:
            if clipped:
                # back-calculate the reference consistent with the clipped
                # command so the observer tracks the plant's real input
                f_ref = (i_cmd * self._n + g.k_p * f_meas + damp) / (1.0 + g.k_p)
            self._dob.commit(f_ref)
        self._delay.append(i_cmd)
        return self._delay.popleft()


def affine_step(rows, x: Sequence[float], u: float) -> list:
    """One period of the map [Ad | Bd], given as rows of floats, from the
    state x under the held input u: each row's products with (x, u) summed
    left to right in column order."""
    return [reduce(add, (a * c for a, c in zip(row, [*x, u]))) for row in rows]


def force_loop(kind: ControllerKind, params: ActuatorParams,
               gains: ControllerGains, reference, n: int):
    """simkit.run_force_tracking's loop written out: ReferenceForceController
    on the locked-output plant, stepped by affine_step from rest for n
    periods. Returns (states, currents, saturated): x0 and the state after
    each period, the current each period held, and the clipped count."""
    ctrl = ReferenceForceController(kind, params, gains)
    rows = np.hstack(zoh_discretize(*_locked_plant(params), CONTROL_DT)).tolist()
    x = [0.0, 0.0]
    states, currents = [x], []
    for k in range(n):
        t = k * CONTROL_DT
        i = ctrl.step(reference.value(t + ctrl.latency_s), params.k_r * x[0],
                      x[1])
        currents.append(i)
        x = affine_step(rows, x, params.drive_constant * i)
        states.append(x)
    return states, currents, ctrl.saturation_count


def leg_period(params, cascaded, actuator, external_force, state, u0, u1, t):
    """One leg control period as leg_substeps(...) dp5_step calls on leg
    rates written from _dyn_scalars and DEFAULT_MOMENT_ARM, with the torques
    or currents and the hip force held at t."""
    k_r, b_r = actuator.k_r, actuator.b_r
    m_m, b_dt = actuator.effective_mass, actuator.drivetrain_damping
    n_drive = actuator.drive_constant
    l1, l2 = params.l1, params.l2

    def rates(_t, y):
        a, b, wa, wb = y[:4]
        te0 = te1 = 0.0
        if external_force is not None:
            fx, fy = external_force(t)
            s0, c0 = math.sin(a), math.cos(a)
            s01, c01 = math.sin(a + b), math.cos(a + b)
            te0 = (-l1 * s0 - l2 * s01) * fx + (l1 * c0 + l2 * c01) * fy
            te1 = -l2 * s01 * fx + l2 * c01 * fy
        if cascaded:
            d0, v0, d1, v1 = y[4:]
            r = DEFAULT_MOMENT_ARM
            dd0, dd1 = v0 - r * wa, v1 - r * wb
            f0 = k_r * d0 + b_r * dd0
            f1 = k_r * d1 + b_r * dd1
            t0, t1 = r * f0, r * f1
        else:
            t0, t1 = u0, u1
        a11, a12, a22, b1, b2, g1, g2 = _dyn_scalars(a, b, wa, wb, params)
        det = a11 * a22 - a12 * a12
        r_0 = t0 - b1 - g1 + te0
        r_1 = t1 - b2 - g2 + te1
        wd0 = (a22 * r_0 - a12 * r_1) / det
        wd1 = (a11 * r_1 - a12 * r_0) / det
        if not cascaded:
            return (wa, wb, wd0, wd1) + (0.0,) * 4
        vd0 = (n_drive * u0 - b_dt * v0 - f0) / m_m
        vd1 = (n_drive * u1 - b_dt * v1 - f1) / m_m
        return wa, wb, wd0, wd1, dd0, vd0, dd1, vd1

    n = leg_substeps(params, cascaded, actuator)
    h = CONTROL_DT / n
    for _ in range(n):
        state = dp5_step(rates, t, state, h)
    return state


def leg_run(params: TwoDofParams, cascaded: bool, actuator: ActuatorParams,
            task_gains, force_gains: ControllerGains, rows, state,
            external_force=None):
    """testbed.simulate_osc's loop written out: per row (xd, yd, vxd, vyd,
    axd, ayd) of rows, osc_tau at the state, in cascaded mode one
    ReferenceForceController per joint, and leg_period. Returns (states,
    torques, held inputs, saturated, damped): the state at each period
    start, the law's torques and the torques or currents each period held,
    and the clipped and singularity-damped period counts."""
    ctrls = [ReferenceForceController(ControllerKind.PDM_DOB, actuator,
                                      force_gains) for _ in range(2)]
    k_r, r = actuator.k_r, DEFAULT_MOMENT_ARM
    states, taus, held, damped_count = [], [], [], 0
    for k, (xd, yd, vxd, vyd, axd, ayd) in enumerate(rows):
        tau0, tau1, damped = osc_tau(*state[:4], xd, yd, vxd, vyd, axd, ayd,
                                     task_gains, params)
        damped_count += damped
        u = (tau0, tau1)
        if cascaded:
            u = (ctrls[0].step(tau0 / r, k_r * state[4], state[5]),
                 ctrls[1].step(tau1 / r, k_r * state[6], state[7]))
        states.append(tuple(state))
        taus.append((tau0, tau1))
        held.append(u)
        state = leg_period(params, cascaded, actuator, external_force, state,
                           *u, k * CONTROL_DT)
    return (states, taus, held, sum(c.saturation_count for c in ctrls),
            damped_count)
