"""Frequency-domain core: evaluation, sweeps, margins, fitting."""
import cmath
import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from oracles import csv_per_cell
from vlcasim import lintf, powertherm, simkit
from vlcasim.lintf import (DelayedTransferFunction, FitDiverged,
                           FRF_CSV_HEADER, FrequencyResponsePoint, NoCrossover,
                           PoleOnAxis, Polynomial, bode_sweep, csv_table,
                           fit_second_order, frf_to_csv, stability_margins,
                           sweep_response, tf_eval, zoh_discretize)
from vlcasim.vlca import VLCA_ACTUATOR, force_plant, plant_px


def _tf(num, den, delay=0.0):
    return DelayedTransferFunction(Polynomial(num), Polynomial(den), delay)


def _random_stable_tf(rng, delay=0.0):
    # two real poles plus one underdamped pair, up to two real zeros,
    # DC gain normalized above unity so a gain crossover always exists
    den = Polynomial((1.0,))
    for _ in range(2):
        den = den * Polynomial((float(rng.uniform(0.5, 50.0)), 1.0))
    wn = float(rng.uniform(5.0, 200.0))
    zeta = float(rng.uniform(0.1, 0.9))
    den = den * Polynomial((wn * wn, 2.0 * zeta * wn, 1.0))
    num = Polynomial((1.0,))
    for _ in range(int(rng.integers(0, 3))):
        num = num * Polynomial((float(rng.uniform(0.5, 50.0)), 1.0))
    dc = float(rng.uniform(2.0, 100.0))
    num = num.scaled(dc * den.coefficients[0] / num.coefficients[0])
    return DelayedTransferFunction(num, den, delay)


# ---------------------------------------------------------------- evaluation

def test_eval_identity_is_one():
    g = _tf((1.0,), (1.0,))
    assert tf_eval(g, 3.7) == 1.0 + 0.0j


def test_eval_integrator():
    g = _tf((1.0,), (0.0, 1.0))
    h = tf_eval(g, 1.0)
    assert h == pytest.approx(-1.0j, abs=1e-15)


def test_eval_rejects_nonpositive_frequency():
    g = _tf((1.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        tf_eval(g, 0.0)
    with pytest.raises(ValueError):
        tf_eval(g, -2.0)
    with pytest.raises(ValueError):
        tf_eval(g, np.array([1.0, 0.0, 2.0]))


def test_eval_pole_on_axis_raises():
    g = _tf((1.0,), (1.0, 0.0, 1.0))  # undamped unit resonance
    with pytest.raises(PoleOnAxis):
        tf_eval(g, 1.0)
    with pytest.raises(PoleOnAxis):
        tf_eval(g, np.array([0.5, 1.0, 2.0]))


def test_denominator_normalization_preserves_response():
    a = _tf((2.0, 4.0), (6.0, 3.0))
    b = _tf((1.0, 2.0), (3.0, 1.5))
    for w in (0.1, 1.0, 10.0):
        assert cmath.isclose(a.eval(w), b.eval(w), rel_tol=1e-14)


def test_normalizing_again_leaves_the_coefficients_alone():
    # 49 * (1/49) rounds to 0.9999999999999999, which a second scaling by
    # its reciprocal would move again
    tf = _tf((3.0, 7.0), (5.0, 11.0, 49.0))
    assert tf.den.coefficients[-1] == 1.0
    again = replace(tf, delay_s=2.5e-3)
    assert again.num.coefficients == tf.num.coefficients
    assert again.den.coefficients == tf.den.coefficients


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        _tf((1.0,), (0.0,))


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        _tf((1.0,), (1.0, 1.0), -1e-3)


def test_dc_gain():
    assert _tf((3.0,), (6.0, 1.0)).dc_gain() == pytest.approx(0.5)
    assert math.isinf(_tf((1.0,), (0.0, 1.0)).dc_gain())


# -------------------------------------------------------------------- sweeps

def test_bode_constant_gain():
    pts = bode_sweep(_tf((2.0,), (1.0,)), 0.1, 100.0)
    assert all(p.magnitude == pytest.approx(2.0) for p in pts)
    assert all(p.phase_deg == pytest.approx(0.0, abs=1e-9) for p in pts)


def test_bode_grid_is_strictly_increasing():
    pts = bode_sweep(force_plant(VLCA_ACTUATOR), 0.01, 1e4, 24)
    w = np.array([p.omega for p in pts])
    assert np.all(np.diff(w) > 0.0)
    assert w[0] == pytest.approx(0.01) and w[-1] == pytest.approx(1e4)


def test_bode_unit_double_pole_at_corner():
    # 1/(s+1)^2 evaluated on a grid that lands on omega = 1 exactly
    pts = bode_sweep(_tf((1.0,), (1.0, 2.0, 1.0)), 0.01, 100.0, 24)
    best = min(pts, key=lambda p: abs(p.omega - 1.0))
    assert best.omega == pytest.approx(1.0, rel=1e-12)
    assert best.magnitude == pytest.approx(0.5, rel=1e-12)
    assert best.phase_deg == pytest.approx(-90.0, abs=1e-9)


def test_bode_plant_resonant_peak_location():
    pts = bode_sweep(force_plant(VLCA_ACTUATOR), 1.0, 1e3, 96)
    peak = max(pts, key=lambda p: p.magnitude)
    assert peak.magnitude > 1.0
    assert peak.omega == pytest.approx(114.6, rel=0.10)


def test_phase_unwrap_steps_stay_small():
    # a delayed loop keeps adjacent phase steps well under a half turn
    tf = DelayedTransferFunction(force_plant(VLCA_ACTUATOR).num,
                                 force_plant(VLCA_ACTUATOR).den, 1e-3)
    pts = bode_sweep(tf, 0.01, 1e4, 24)
    steps = np.abs(np.diff([p.phase_deg for p in pts]))
    assert np.max(steps) < 180.0


def test_unwrapped_phase_matches_pointwise_evaluation():
    # invariant: the unwrapped sweep phase agrees with the principal phase
    # of a direct evaluation modulo full turns, within 1e-9 rad
    rng = np.random.default_rng(11)
    for _ in range(25):
        tf = _random_stable_tf(rng, delay=float(rng.uniform(0.0, 2e-3)))
        pts = bode_sweep(tf, 0.05, 5e3, 24)
        for p in pts:
            principal = math.degrees(cmath.phase(tf.eval(p.omega)))
            wrapped = (p.phase_deg - principal + 180.0) % 360.0 - 180.0
            assert abs(math.radians(wrapped)) < 1e-9


def test_sweep_response_matches_bode_sweep():
    tf = force_plant(VLCA_ACTUATOR)
    a = bode_sweep(tf, 0.1, 1e3, 24)
    b = sweep_response(tf.eval, 0.1, 1e3, 24)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.omega == pb.omega
        assert pa.magnitude == pytest.approx(pb.magnitude, rel=1e-12)
        assert pa.phase_deg == pytest.approx(pb.phase_deg, abs=1e-9)


def test_delay_shifts_phase_without_touching_magnitude():
    rng = np.random.default_rng(3)
    base = _random_stable_tf(rng)
    t_d = 1.7e-3
    delayed = DelayedTransferFunction(base.num, base.den, t_d)
    pts0 = bode_sweep(base, 0.1, 1e3, 24)
    pts1 = bode_sweep(delayed, 0.1, 1e3, 24)
    for p0, p1 in zip(pts0, pts1):
        assert p1.magnitude == pytest.approx(p0.magnitude, rel=1e-12)
        drop = math.degrees(p0.omega * t_d)
        assert p1.phase_deg == pytest.approx(p0.phase_deg - drop, abs=1e-6)


# ------------------------------------------------------------------- margins

def test_margins_first_order_lag():
    rep = stability_margins(_tf((10.0,), (1.0, 1.0)))
    wc = math.sqrt(99.0)
    pm = 180.0 - math.degrees(math.atan(wc))
    assert rep.gain_crossover_rad_s == pytest.approx(wc, rel=1e-9)
    assert rep.phase_margin_deg == pytest.approx(pm, abs=1e-6)
    # 180 - degrees(atan(sqrt(99))) to 40 digits (mpmath), rounded
    assert rep.phase_margin_deg == pytest.approx(95.73917047726679, rel=1e-12)
    assert math.isinf(rep.gain_margin_db)
    assert math.isnan(rep.phase_crossover_rad_s)
    assert rep.crossover_count == 1


def test_margins_pure_integrator():
    rep = stability_margins(_tf((1.0,), (0.0, 1.0)))
    assert rep.gain_crossover_rad_s == pytest.approx(1.0, rel=1e-9)
    assert rep.phase_margin_deg == pytest.approx(90.0, abs=1e-9)


def test_margins_delayed_integrator():
    rep = stability_margins(_tf((1.0,), (0.0, 1.0), 0.1))
    # crossover still at 1 rad/s; the delay eats omega*T of phase
    assert rep.gain_crossover_rad_s == pytest.approx(1.0, rel=1e-9)
    assert rep.phase_margin_deg == pytest.approx(90.0 - math.degrees(0.1),
                                                 abs=1e-6)
    assert rep.phase_margin_deg == pytest.approx(84.27042204654619, abs=1e-6)


def test_margins_low_gain_never_crosses():
    with pytest.raises(NoCrossover):
        stability_margins(_tf((0.5,), (1.0, 1.0)))


def test_margins_resonant_peak_crosses_twice():
    # DC gain 0.8 rises through unity over a sharp peak and falls back
    wn, zeta = 10.0, 0.1
    g = _tf((0.8 * wn * wn,), (wn * wn, 2.0 * zeta * wn, 1.0))
    rep = stability_margins(g)
    assert rep.crossover_count == 2
    # the reported crossing is the one with the least phase margin; the
    # pins are the exact crossing (a root of a quadratic in omega^2) and its
    # margin to 40 digits (mpmath), rounded
    assert rep.gain_crossover_rad_s == pytest.approx(13.247093360856262,
                                                     rel=1e-9)
    assert rep.phase_margin_deg == pytest.approx(19.34025045207559, rel=1e-9)


def test_margin_is_consistent_with_phase_at_crossover():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(40):
        tf = _random_stable_tf(rng, delay=float(rng.uniform(0.0, 1e-3)))
        try:
            rep = stability_margins(tf)
        except NoCrossover:
            continue
        checked += 1
        h = tf.eval(rep.gain_crossover_rad_s)
        assert abs(h) == pytest.approx(1.0, rel=1e-6)
        principal = math.degrees(cmath.phase(h))
        miss = (rep.phase_margin_deg - (180.0 + principal)) % 360.0
        miss = min(miss, 360.0 - miss)
        assert miss < 1e-6
    assert checked >= 10


def test_phase_crossover_ignores_gain_scaling():
    # pure gain moves |G| but not the phase, so the phase crossover stays
    # put; DC gains above unity keep a gain crossover in every case
    refs = []
    for k in (2.0, 4.0, 10.0, 40.0):
        g = _tf((k,), (1.0, 3.0, 3.0, 1.0))  # k/(s+1)^3
        refs.append(stability_margins(g).phase_crossover_rad_s)
    assert refs[0] == pytest.approx(math.sqrt(3.0), rel=1e-9)
    assert all(r == refs[0] for r in refs[1:])


def test_gain_margin_of_third_order_lag():
    # (s+1)^3 crosses -180 deg at sqrt(3) where |G| = 1/8
    rep = stability_margins(_tf((4.0,), (1.0, 3.0, 3.0, 1.0)))
    assert rep.phase_crossover_rad_s == pytest.approx(math.sqrt(3.0), rel=1e-9)
    assert rep.gain_margin_db == pytest.approx(20.0 * math.log10(2.0), rel=1e-9)


# ------------------------------------------------------------------- fitting

def _second_order_points(k, wn, zeta, w):
    s = 1j * w
    h = k * wn * wn / (s * s + 2.0 * zeta * wn * s + wn * wn)
    ph = np.degrees(np.unwrap(np.angle(h)))
    return [FrequencyResponsePoint(float(wi), float(abs(hi)), float(pi))
            for wi, hi, pi in zip(w, h, ph)]


def test_fit_round_trip_clean_data():
    w = np.geomspace(1.0, 100.0, 40)
    fit = fit_second_order(_second_order_points(1.0, 10.0, 0.5, w))
    assert fit.gain == pytest.approx(1.0, rel=1e-6)
    assert fit.omega_n == pytest.approx(10.0, rel=1e-6)
    assert fit.zeta == pytest.approx(0.5, rel=1e-6)


def test_fit_recovers_overdamped_system_under_noise():
    # 1 percent multiplicative magnitude noise, small phase jitter;
    # every seed recovers the triple within 5 percent
    truth = (3.0, 120.0, 1.2)
    w = np.geomspace(6.0, 2400.0, 60)
    clean = _second_order_points(*truth, w)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = [FrequencyResponsePoint(
                     p.omega,
                     p.magnitude * (1.0 + 0.01 * rng.standard_normal()),
                     p.phase_deg + 0.2 * rng.standard_normal())
                 for p in clean]
        fit = fit_second_order(noisy)
        assert fit.gain == pytest.approx(truth[0], rel=0.05)
        assert fit.omega_n == pytest.approx(truth[1], rel=0.05)
        assert fit.zeta == pytest.approx(truth[2], rel=0.05)


def test_fit_recovers_actuator_resonance():
    pts = bode_sweep(force_plant(VLCA_ACTUATOR), 10.0, 1e3, 24)
    fit = fit_second_order(pts)
    assert fit.omega_n == pytest.approx(114.6, rel=0.02)
    assert fit.gain == pytest.approx(1.0, rel=0.02)


def test_fit_needs_enough_points_and_span():
    w = np.geomspace(1.0, 100.0, 40)
    pts = _second_order_points(1.0, 10.0, 0.5, w)
    with pytest.raises(ValueError):
        fit_second_order(pts[:9])
    narrow = _second_order_points(1.0, 10.0, 0.5, np.linspace(8.0, 12.0, 20))
    with pytest.raises(ValueError):
        fit_second_order(narrow)


def test_fit_diverges_on_pathological_magnitudes():
    w = np.geomspace(1.0, 100.0, 30)
    pts = [FrequencyResponsePoint(float(wi),
                                  1e-280 if wi < 10.0 else 1e280, 0.0)
           for wi in w]
    with pytest.raises(FitDiverged,
                       match="^second-order fit could not proceed: "):
        fit_second_order(pts)


def test_fit_evaluator_matches_parameters():
    fit_pts = _second_order_points(2.0, 50.0, 0.3, np.geomspace(5.0, 500.0, 30))
    fit = fit_second_order(fit_pts)
    for p in fit_pts:
        h = fit.eval(p.omega)
        assert abs(h) == pytest.approx(p.magnitude, rel=1e-6)


# ----------------------------------------------------------- discretization

def test_zoh_first_order_lag():
    ad, bd = zoh_discretize([[-2.0]], [[3.0]], 0.1)
    assert ad.shape == bd.shape == (1, 1)
    assert ad[0, 0] == pytest.approx(math.exp(-0.2), rel=1e-14)
    assert bd[0, 0] == pytest.approx(1.5 * (1.0 - math.exp(-0.2)), rel=1e-14)


def test_zoh_double_integrator():
    dt = 0.01
    ad, bd = zoh_discretize([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], dt)
    np.testing.assert_allclose(ad, [[1.0, dt], [0.0, 1.0]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(bd, [[0.5 * dt * dt], [dt]], rtol=1e-12)


def _norm1(a) -> float:
    return float(np.abs(a).sum(axis=0).max())


@pytest.fixture(scope="module")
def scenario_exponent_arguments():
    """Every matrix the default scenarios exponentiate: the locked plant
    (force_tracking, bode), the two position-step plants, the hammer strike's
    struck and free oscillators on both mounts, and the thermal network at
    each step of its calibration and with coolant on and off."""
    seen = []
    expm = lintf._expm
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lintf, "_expm", lambda a: seen.append(a) or expm(a))
        zoh_discretize(*simkit._locked_plant(VLCA_ACTUATOR), simkit.CONTROL_DT)
        for element in ("elastomer", "steel_spring"):
            zoh_discretize(*simkit.two_mass_plant(element), simkit.CONTROL_DT)
        for grounding in ("viscoelastic", "rigid"):
            simkit.run_impact(simkit.ImpactConfig(grounding))
        params = powertherm.calibrate_thermal().params
        for cooling_on in (True, False):
            powertherm._propagator(params, cooling_on, 1e-3)
    return seen


def test_expm_equals_scipy_on_the_scenario_matrices(
        scenario_exponent_arguments):
    # measured: 6.2e-16 of the map's 1-norm at worst, on the elastomer
    # position-step plant
    linalg = pytest.importorskip("scipy.linalg")
    for a in scenario_exponent_arguments:
        want = linalg.expm(a)
        assert _norm1(lintf._expm(a) - want) <= 1e-15 * _norm1(want)


@st.composite
def _decaying_matrices(draw):
    """n x n, n from 1 to 5: entries in [-1, 1] shifted left by the 1-norm,
    so that the exponential's 1-norm is at most 1, then scaled by 1e-4 to
    1e3. The 1-norms run from 0 to about 4e3, 0 to 10 squarings."""
    n = draw(st.integers(1, 5))
    m = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n,
                                 max_size=n * n)), (n, n))
    scale = 10.0 ** draw(st.floats(-4.0, 3.0))
    return scale * (m - _norm1(m) * np.eye(n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_decaying_matrices())
def test_expm_equals_scipy_on_decaying_matrices(a):
    # measured: 13.4 eps * max(1, |A|_1) at worst over 2,000 examples; the
    # squarings scale the rounding error with the 1-norm
    linalg = pytest.importorskip("scipy.linalg")
    eps = np.finfo(float).eps
    err = _norm1(lintf._expm(a) - linalg.expm(a))
    assert err <= 32.0 * eps * max(1.0, _norm1(a))


def test_expm_closed_forms():
    for n in range(1, 6):
        assert lintf._expm(np.zeros((n, n))).tolist() == np.eye(n).tolist()
    # the rotation generator at w*dt = 10 rad, past theta_13: one squaring
    w = 10.0
    np.testing.assert_allclose(
        lintf._expm(np.array([[0.0, w], [-w, 0.0]])),
        [[math.cos(w), math.sin(w)], [-math.sin(w), math.cos(w)]],
        rtol=0, atol=4 * np.finfo(float).eps)


def test_expm_of_a_non_finite_norm_is_non_finite():
    # the scaling exponent of an infinite 1-norm is not an integer; the
    # callers' divergence checks report the NaN map instead
    for a in ([[math.inf]], [[1e308, 0.0], [1e308, 0.0]], [[math.nan]]):
        assert np.isnan(lintf._expm(np.array(a))).all()


def _locked_map(scale, *names):
    params = replace(VLCA_ACTUATOR, **{k: getattr(VLCA_ACTUATOR, k) * scale
                                       for k in names})
    return zoh_discretize(*simkit._locked_plant(params), simkit.CONTROL_DT)[0]


@pytest.fixture(scope="module")
def thermal_params():
    return powertherm.calibrate_thermal().params


def _thermal_map(base, scale, cooling_on, *names):
    params = replace(base, **{k: getattr(base, k) / scale for k in names})
    return powertherm._propagator(params, cooling_on, 1e-3)[:, :2]


def _diverges(scale):
    return pytest.mark.xfail(strict=True, reason=(
        "the squarings amplify rounding by 2^s: non-finite maps, or finite "
        f"ones with spectral radius above 1, from about {scale:g} on"))


# each plant stiffened by f: the named fields of the locked plant multiplied
# by f, or those of the thermal network, coolant on or off, divided by f
@pytest.mark.parametrize("plant, stiffened", [
    # a damper stiffer by f: slow mode -k/b, fast mode -b/m
    ("locked", ("b_r",)),
    # the winding node faster than the housing by f, coolant on
    ("thermal_on", ("c_winding",)),
    # the housing pinned to ambient, coolant on and off
    ("thermal_on", ("r_ha_on", "r_ha_off")),
    ("thermal_off", ("r_ha_on", "r_ha_off")),
    pytest.param("locked", ("k_r",), marks=_diverges(1e13)),
    pytest.param("locked", ("k_r", "b_r"), marks=_diverges(1e14)),
    pytest.param("thermal_off", ("c_winding",), marks=_diverges(1e13)),
    pytest.param("thermal_on", ("c_housing",), marks=_diverges(1e15)),
    pytest.param("thermal_on", ("r_wh",), marks=_diverges(1e13)),
], ids=lambda v: v if isinstance(v, str) else "+".join(v))
def test_zoh_of_a_stiff_stable_plant_does_not_expand(thermal_params, plant,
                                                     stiffened):
    # every quarter decade of f from 1 to 1e200: the map stays finite and
    # its spectral radius stays at or below 1 up to rounding
    for e in np.arange(0.0, 200.01, 0.25):
        if plant == "locked":
            ad = _locked_map(10.0 ** e, *stiffened)
        else:
            ad = _thermal_map(thermal_params, 10.0 ** e,
                              plant == "thermal_on", *stiffened)
        assert np.isfinite(ad).all(), e
        rho = max(abs(np.linalg.eigvals(ad)))
        assert rho <= 1.0 + 4 * np.finfo(float).eps, e


# ----------------------------------------------------------------------- csv

def test_frf_csv_round_trip():
    pts = bode_sweep(force_plant(VLCA_ACTUATOR), 1.0, 100.0, 12)
    text = frf_to_csv(pts)
    rows = list(csv.reader(io.StringIO(text)))
    assert ",".join(rows[0]) == FRF_CSV_HEADER
    back = [[float(tok) for tok in row] for row in rows[1:]]
    assert len(back) == len(pts)
    for a, (omega, magnitude, phase_deg) in zip(pts, back):
        assert omega == pytest.approx(a.omega, rel=1e-9)
        assert magnitude == pytest.approx(a.magnitude, rel=1e-9)
        assert phase_deg == pytest.approx(a.phase_deg, rel=1e-9, abs=1e-9)


def test_csv_cells_follow_one_rule():
    text = csv_table("name,count,value", [
        ["a b", "x;y", "", "c"],
        [7, 12345678901, True, -3],
        [None, math.nan, math.inf, -math.inf],
    ])
    assert text == ("name,count,value\n"
                    "a b,7,\n"
                    "x;y,12345678901,\n"
                    ",1,\n"
                    "c,-3,\n")


def test_csv_numbers_are_ten_significant_digits():
    col = np.array([-0.0, 5e-324, 1.0 / 3.0, 2.0 ** 70, 42.0])
    assert csv_table("v", [col]).splitlines()[1:] == [
        "-0", "4.940656458e-324", "0.3333333333", "1.180591621e+21", "42"]
    # a non-finite cell blanks only itself, in an array as in a list
    col[1] = math.nan
    assert csv_table("v", [col]) == csv_table("v", [col.tolist()])
    assert csv_table("v", [col]).splitlines()[2] == ""


def test_csv_two_dimensional_column_splits_into_columns():
    pairs = np.array([[1.0, 2.0], [3.0, math.nan]])
    text = csv_table("t,a,b,flag", [np.array([0.0, 0.5]), pairs,
                                    np.array([1, 0])])
    assert text == "t,a,b,flag\n0,1,2,1\n0.5,3,,0\n"


def test_csv_blocks_match_a_row_by_row_rendering():
    # three columns: a writer chunk holds `edge` rows, and the table spans
    # two chunks and part of a third, with non-finite cells either side of
    # the first chunk edge
    edge = lintf._CHUNK_CELLS // 3
    n = 2 * edge + 100
    rng = np.random.default_rng(3)
    t = np.arange(n) * 1e-3
    xy = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-8, 8, size=(n, 2))
    xy[[0, edge - 1, edge, n - 1], 1] = [math.nan, math.inf, -math.inf,
                                         math.nan]
    expected = ["t,x,y"] + [
        ",".join("" if not math.isfinite(v) else f"{v:.10g}"
                 for v in (t[k], *xy[k]))
        for k in range(n)]
    assert csv_table("t,x,y", [t, xy]) == "\n".join(expected) + "\n"


def test_csv_matches_the_per_cell_rule_for_every_kind_of_float_column():
    # with 4 or more columns, crosses a writer chunk
    n = lintf._CHUNK_CELLS // 4 + 200
    rng = np.random.default_rng(11)
    finite = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)
    mixed = finite.copy()
    mixed[rng.random(n) < 0.3] = math.nan
    kinds = {"nan": np.full(n, math.nan),
             "inf": np.where(rng.random(n) < 0.5, math.inf, -math.inf),
             "mixed": mixed, "finite": finite}
    for header, cols in [(",".join(kinds), list(kinds.values())),
                         ("t,nan,flag,inf", [np.arange(n) * 1e-3, kinds["nan"],
                                             np.arange(n) % 2,
                                             kinds["inf"]]),
                         ("nan,inf", [kinds["nan"], kinds["inf"]])]:
        text = csv_table(header, cols)
        assert text == csv_per_cell(header, cols), header
        rows = text.splitlines()[1:]
        assert len(rows) == n
        where = header.split(",").index("nan")
        assert all(r.split(",")[where] == "" for r in rows)


def test_csv_constant_columns_follow_the_per_cell_rule():
    # with 4 or more columns, crosses a writer chunk
    n = lintf._CHUNK_CELLS // 4 + 200
    t = np.arange(n) * 1e-3
    signed = np.zeros(n)
    signed[[3, 300]] = -0.0  # equal to 0.0, but not the same bits
    wide = np.full((n, 3), 2.5)  # a 2-D column: each column a strided view
    wide[:, 1], wide[:, 2] = -0.0, t
    header = "a,b,c,d,e,f,g"
    cols = [np.full(n, 0.1), np.full(n, -0.0), signed, wide, np.full(n, 1e300)]
    text = csv_table(header, cols)
    assert text == csv_per_cell(header, [*cols[:3], *wide.T, cols[4]])
    rows = [r.split(",") for r in text.splitlines()[1:]]
    assert {r[1] for r in rows} == {"-0"} and {r[2] for r in rows} == {"0", "-0"}
    # every column constant: the row template is the whole row
    assert csv_table("a,b", [np.full(n, 1.5), wide[:, :1]]) == (
        "a,b\n" + "1.5,2.5\n" * n)
    for empty in ([np.array([]), np.array([])], [np.empty((0, 2))]):
        assert csv_table("a,b", empty) == "a,b\n"


def test_csv_columns_must_match_the_header():
    with pytest.raises(ValueError):
        csv_table("a,b", [[1.0, 2.0]])
    with pytest.raises(ValueError):
        csv_table("a,b", [[1.0, 2.0], [3.0]])
    assert csv_table("a,b", [[], []]) == "a,b\n"


# --------------------------------------------- the vectorized %.10g writer

def _tie_neighbours(rng, n):
    """Decimal ties of the 11th significant digit, d.dddddddddd5e(k), as
    the nearest floats, with the floats one ulp either side of each."""
    digits = rng.integers(10 ** 9, 10 ** 10, n) * 10 + 5
    exps = rng.integers(-30, 30, n)
    ties = np.array([float(f"{d}e{k}") for d, k in zip(digits.tolist(),
                                                        exps.tolist())])
    return np.concatenate([ties, np.nextafter(ties, math.inf),
                           np.nextafter(ties, -math.inf)])


_SPECIAL = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                     -1e300, 1.7976931348623157e308, 1e-5, 1e-4, 0.1, 1.0,
                     1e10, 9999999999.5, 9999999999.7, 0.99999999997,
                     1234567890.5, 1234567891.5])


def _float_column(kind: str, n: int, rng) -> np.ndarray:
    if kind == "bits":  # every kind of float: NaN, +-inf, subnormals
        return rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    if kind == "wide":
        return rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300, n)
    if kind == "ties":
        return rng.choice(_tie_neighbours(rng, n), n)
    if kind == "special":
        return rng.choice(_SPECIAL, n) * rng.choice([1.0, -1.0], n)
    return np.arange(n) * 10.0 ** rng.integers(-6, 3)  # a time column


# a failing table is reported as drawn: shrinking one takes minutes
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=[Phase.generate])
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(300, 2500),
       kinds=st.lists(st.sampled_from(["bits", "wide", "ties", "special",
                                       "time"]), min_size=1, max_size=4),
       ends=st.lists(st.sampled_from(_SPECIAL), max_size=2))
def test_csv_writes_each_float_as_the_per_cell_rule(seed, rows, kinds, ends):
    # each column mixes the drawn kinds cell by cell, and columns of one
    # value (NaN, +-inf, -0.0, ...) may end the row; tables of
    # lintf._CHUNK_CELLS cells or more cross a chunk of the formatter
    rng = np.random.default_rng(seed)
    cols = []
    for _ in kinds:
        pick = rng.integers(0, len(kinds), rows)
        cols.append(np.choose(pick, [_float_column(k, rows, rng)
                                     for k in kinds]))
    cols += [np.full(rows, value) for value in ends]
    header = ",".join(f"c{j}" for j in range(len(cols)))
    assert csv_table(header, cols) == csv_per_cell(header, cols)


@pytest.mark.parametrize("value, text", [
    (1234567890.5, "1234567890"),    # a tie: % rounds half to even
    (1234567891.5, "1234567892"),
    (9999999999.5, "1e+10"),
    (5e-324, "4.940656458e-324"),    # past the decided exponents
    (1.7976931348623157e308, "1.797693135e+308"),
    (9999999999.7, "1e+10"),         # decided, and carried into 1e10
    (0.99999999997, "1"),
    (99999.999997, "100000")])
def test_an_undecided_or_carried_cell_is_written_as_percent_writes_it(
        value, text):
    assert "%.10g" % value == text
    col = np.full(300, value)
    col[1::2] *= -1.0
    assert csv_table("v", [col]).splitlines()[1:] == [text, "-" + text] * 150


def test_the_formatter_hands_the_undecided_values_to_percent():
    a = np.array([1234567890.5, 9999999999.5, 5e-324, 1.7976931348623157e308,
                  0.1, 1234567890.4, 9999999999.7, 0.0])
    n, e, by_percent = lintf._round10(a)
    assert by_percent.tolist() == [True] * 4 + [False] * 4
    assert n[4:].tolist() == [1e9, 1234567890.0, 1e9, 0.0]
    assert e[4:].tolist() == [-1, 9, 10, 0]


def test_a_small_float_table_and_a_mixed_one_are_written_cell_by_cell():
    # below _MIN_FORMATTER_CELLS, or with a text or int column, the table
    # takes the per-cell rule; each must still match it
    rng = np.random.default_rng(5)
    small = [rng.normal(size=10) for _ in range(3)]
    assert 30 < lintf._MIN_FORMATTER_CELLS
    assert csv_table("a,b,c", small) == csv_per_cell("a,b,c", small)
    mixed = [["x"] * 400, np.arange(400), rng.normal(size=400)]
    assert csv_table("a,b,c", mixed) == csv_per_cell("a,b,c", mixed)
    floats = [list(rng.normal(size=400)), list(rng.normal(size=400))]
    assert csv_table("a,b", floats) == csv_per_cell("a,b", floats)
