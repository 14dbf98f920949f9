"""stability_margins against an independent brute-force reference.

The reference evaluates the loop, delay included, on BRUTE_PER_DECADE
points per decade over MARGIN_BAND, unwraps its phase there and reads every
crossing off a sign change between neighbouring points. The engine scans a
200-per-decade grid instead and assumes that every crossing keeps the phase
monotone (and |L| - 1 of one sign change) within its 1/200-decade cell, the
same assumption the phase unwrap of the scan always made; the generated
loops are not filtered for it.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vlcasim.lintf import (MARGIN_BAND, MARGIN_REL_TOL, DelayedTransferFunction,
                           NoCrossover, Polynomial, stability_margins, tf_eval)
from vlcasim.vlca import (VLCA_ACTUATOR, ControllerGains, ControllerKind,
                          open_loop_tf)

BRUTE_PER_DECADE = 20_000


def _real_root(r):
    return Polynomial((r, 1.0))


@st.composite
def generic_loops(draw):
    """Two real poles, one underdamped pair, up to two real zeros, 0-10 ms
    delay. DC gains from 0.3 let a resonant peak cross unity twice or not
    at all."""
    corner = st.floats(0.5, 50.0)
    den = _real_root(draw(corner)) * _real_root(draw(corner))
    wn, zeta = draw(st.floats(5.0, 200.0)), draw(st.floats(0.05, 0.9))
    den = den * Polynomial((wn * wn, 2.0 * zeta * wn, 1.0))
    num = Polynomial((1.0,))
    for r in draw(st.lists(corner, max_size=2)):
        num = num * _real_root(r)
    dc = 10.0 ** draw(st.floats(-0.5, 2.0))
    num = num.scaled(dc * den.coefficients[0] / num.coefficients[0])
    return DelayedTransferFunction(num, den, draw(st.floats(0.0, 10e-3)))


@st.composite
def actuator_loops(draw):
    """The four VLCA force loops with gains 0.5-2x nominal, 0-10 ms delay."""
    scale = st.floats(0.5, 2.0)
    gains = ControllerGains(k_p=4.0 * draw(scale), k_dm=15.0 * draw(scale),
                            k_i=300.0 * draw(scale),
                            delay_t=draw(st.floats(0.0, 10e-3)))
    kind = draw(st.sampled_from(list(ControllerKind)))
    return open_loop_tf(kind, VLCA_ACTUATOR, gains)


def _root(g, a, b):
    """Scalar bisection of a sign change of g in [a, b] to 1e-13 relative."""
    ga = g(a)
    while b - a > 1e-13 * a:
        m = math.sqrt(a * b)
        gm = g(m)
        if ga * gm <= 0.0:
            b = m
        else:
            a, ga = m, gm
    return math.sqrt(a * b)


def _brute_crossings(tf):
    """(omega, PM in deg) of every unity crossing and (omega, GM in dB) of
    every -180 deg (mod 360) crossing found between neighbouring points of
    the dense grid, each refined inside its cell by scalar bisection."""
    decades = math.log10(MARGIN_BAND[1] / MARGIN_BAND[0])
    w = np.geomspace(*MARGIN_BAND, int(decades * BRUTE_PER_DECADE) + 1)
    s = 1j * w
    h = (np.polyval(tf.num.coefficients[::-1], s)
         / np.polyval(tf.den.coefficients[::-1], s) * np.exp(-s * tf.delay_s))
    # at the low end of the band every generated loop's phase lies between
    # -180 and 0 deg, so the principal value there is on the engine's branch
    phase = np.unwrap(np.angle(h))

    def phase_in_cell(i, x):
        return phase[i] + cmath.phase(tf_eval(tf, x) / h[i])

    f = np.abs(h) - 1.0
    unity = []
    for i in np.flatnonzero(f[:-1] * f[1:] < 0.0):
        x = _root(lambda x: abs(tf_eval(tf, x)) - 1.0, w[i], w[i + 1])
        unity.append((x, 180.0 + math.degrees(phase_in_cell(i, x))))

    k = np.floor((phase + math.pi) / (2.0 * math.pi))
    phase_x = []
    for i in np.flatnonzero(k[:-1] != k[1:]):
        level = 2.0 * math.pi * max(k[i], k[i + 1]) - math.pi
        x = _root(lambda x: phase_in_cell(i, x) - level, w[i], w[i + 1])
        phase_x.append((x, -20.0 * math.log10(abs(tf_eval(tf, x)))))
    return unity, phase_x


def _miss_deg(angle_deg, target_deg):
    miss = (angle_deg - target_deg) % 360.0
    return min(miss, 360.0 - miss)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.one_of(generic_loops(), actuator_loops()))
def test_margins_agree_with_a_dense_brute_force_scan(tf):
    unity, phase_x = _brute_crossings(tf)
    try:
        rep = stability_margins(tf)
    except NoCrossover:
        assert not unity
        return
    assert rep.crossover_count == len(unity)

    h_gc = tf_eval(tf, rep.gain_crossover_rad_s)
    assert abs(h_gc) == pytest.approx(1.0, rel=1e-6)
    assert _miss_deg(rep.phase_margin_deg,
                     180.0 + math.degrees(cmath.phase(h_gc))) < 1e-6
    assert rep.phase_margin_deg == pytest.approx(min(pm for _, pm in unity),
                                                 abs=1e-5)

    if not phase_x:
        assert math.isinf(rep.gain_margin_db)
        assert math.isnan(rep.phase_crossover_rad_s)
        return
    w_pc = rep.phase_crossover_rad_s
    # the bisection leaves w_pc within MARGIN_REL_TOL of the crossing, where
    # the phase moves by omega*T plus the rational slope per unit log omega
    slack = math.degrees((w_pc * tf.delay_s + 10.0) * MARGIN_REL_TOL)
    assert _miss_deg(math.degrees(cmath.phase(tf_eval(tf, w_pc))), -180.0) \
        < 1e-6 + slack
    assert rep.gain_margin_db == pytest.approx(min(gm for _, gm in phase_x),
                                               abs=1e-5)
