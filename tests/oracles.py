"""Reference formulas the tests hold the live kernels against."""
import math

from vlcasim.testbed import TwoDofParams, _dyn_scalars


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
