"""Reference formulas the tests hold the live kernels against."""
import math
from dataclasses import dataclass, replace
from fractions import Fraction as Fr
from functools import reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

from vlcasim.testbed import TwoDofParams
from vlcasim.vlca import (MARGIN_DELAY_GRID, ControllerKind, MarginCalibration,
                          loop_margins, open_loop_tf)


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
    """The loop's phase margin [deg]; NaN without a unity crossing."""
    rep = loop_margins(open_loop_tf(kind, params, gains))
    return math.nan if rep is None else rep.phase_margin_deg


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
