"""Reference formulas the tests hold the live kernels against."""
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from vlcasim.testbed import TwoDofParams, _dyn_scalars


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
