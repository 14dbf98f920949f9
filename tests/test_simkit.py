"""Fixed-step time-domain simulation against the rational models."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import locked_plant_rates, plant_energy, rk4_step
from vlcasim import simkit as sk
from vlcasim.vlca import (ControllerGains, ControllerKind, DEFAULT_MOMENT_ARM,
                          EXPERIMENT_GAINS, VLCA_ACTUATOR, closed_loop_tf,
                          force_plant)

P = VLCA_ACTUATOR
G = ControllerGains()
G60 = EXPERIMENT_GAINS


def _make_trace(t, u, y):
    zeros = np.zeros_like(t)
    return sk.SimTrace(dt=float(t[1] - t[0]), t=t, f_cmd=u, f_meas=y,
                       f_loadcell=y.copy(), i_m=zeros, x_r=zeros.copy())


# --------------------------------------------------------------- integrator

def _locked_run(n, command):
    return sk._run_linear(sk._locked_plant(P), n, command)


def test_equilibrium_state_stays_put():
    # 100 periods from rest with no input
    assert not _locked_run(101, lambda k, y: 0.0).any()


def test_constant_current_settles_at_static_deflection():
    x = _locked_run(3001, lambda k, y: P.drive_constant * 1.0)[-1, 0]
    assert x == pytest.approx(P.drive_constant / P.k_r, rel=1e-9)


def test_run_loop_holds_each_command_over_its_period():
    # row k is the state the command of period k sees; the history is
    # the exact map applied to the held inputs, for the 2-state locked
    # plant and the 4-state position-loop plant
    for plant in (sk._locked_plant(P), sk.two_mass_plant("elastomer")):
        seen = []

        def command(k, y):
            seen.append(list(y))
            return 100.0 * math.sin(0.3 * k)

        states = sk._run_linear(plant, 50, command)
        assert states.tolist() == seen
        ad, bd = sk.zoh_discretize(*plant, sk.CONTROL_DT)
        for k in range(49):
            np.testing.assert_allclose(
                states[k + 1],
                ad @ states[k] + bd[:, 0] * 100.0 * math.sin(0.3 * k),
                rtol=1e-12, atol=1e-18)


def _column_order_sum(row, v):
    total = row[0] * v[0]
    for a, b in zip(row[1:], v[1:]):
        total = total + a * b
    return total


_ENTRIES = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 4]).flatmap(lambda n: st.tuples(
    st.lists(_ENTRIES, min_size=n * (n + 1), max_size=n * (n + 1)),
    st.lists(_ENTRIES, min_size=n + 1, max_size=n + 1))))
def test_the_scalar_map_sums_each_row_in_column_order(case):
    entries, v = case
    n = len(v) - 1
    adb = np.array(entries).reshape(n, n + 1)
    got = sk._affine_map(adb)(v[:n], v[n])
    assert [type(g) for g in got] == [float] * n
    want = [_column_order_sum(row, v) for row in adb.tolist()]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    # and it is the matrix product up to rounding in its summation order
    product = adb[:, :n] @ v[:n] + adb[:, n] * v[n]
    assert (np.abs(np.array(got) - product) <= 1e-14 * (np.abs(adb) @ np.abs(v))).all()


def _gemv_divergence(adb, n, command):
    """The period in which stepping x -> adb (x, u) by numpy's matrix
    product first leaves the floats, or None."""
    x = np.zeros(adb.shape[0])
    with np.errstate(all="ignore"):
        for k in range(n):
            x = adb @ np.append(x, command(k, x.tolist()))
            if not np.isfinite(x).all():
                return k
    return None


@pytest.mark.parametrize("adb", [
    [[1.0, math.inf, 0.0], [0.0, 1.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, math.nan]],
    [[1.0, 0.0, 0.0], [-math.inf, 1.0, 1.0]],
    # finite but expanding: the state overflows after about 1,000 periods
    [[2.0, 0.0, 1.0], [0.0, 1.5, 1.0]],
], ids=["inf_in_ad", "nan_in_bd", "negative_inf_in_ad", "expanding"])
def test_a_non_finite_state_stops_the_run_in_the_period_numpy_would(
        monkeypatch, adb):
    adb = np.array(adb)
    monkeypatch.setattr(sk, "zoh_discretize",
                        lambda a, b, dt: (adb[:, :2], adb[:, 2:]))
    k = _gemv_divergence(adb, 2000, lambda k, y: 1.0)
    assert k is not None
    with pytest.raises(sk.NonFiniteState,
                       match=rf"^plant state diverged at t={k * 1e-3:.3f} s$"):
        _locked_run(2000, lambda k, y: 1.0)


def test_every_period_steps_python_floats(monkeypatch):
    # each history row the commands see, and each input they return, is
    # Python floats: no numpy scalar enters the scalar map
    run_linear = sk._run_linear
    seen = set()

    def checked(plant, n, command):
        def recorded(k, y):
            u = command(k, y)
            seen.update(map(type, y))
            seen.add(type(u))
            return u
        return run_linear(plant, n, recorded)

    monkeypatch.setattr(sk, "_run_linear", checked)
    for kind in ControllerKind:
        sk.run_force_tracking(kind, G, sk.StepRef(500.0), 0.2)
    sk.run_plant_chirp(np.full(200, 1.0))
    for element in ("elastomer", "steel_spring"):
        sk.run_joint_position_control(element, duration=0.2)
    assert seen == {float}


def test_free_decay_matches_model_damping_ratio():
    # the exact update's eigenvalues are exp(lambda * dt) of the continuous
    # poles; their damping ratio is the model's to 7.4e-15 relative
    ad, _ = sk.zoh_discretize(*sk._locked_plant(P), sk.CONTROL_DT)
    lam = np.log(np.linalg.eigvals(ad)) / sk.CONTROL_DT
    zeta = -lam.real / np.abs(lam)
    assert zeta == pytest.approx([P.damping_ratio] * 2, rel=1e-13)


def test_integrator_error_falls_fourth_order():
    rates = locked_plant_rates(P)

    def terminal(dt):
        y = (1e-4, 0.0)
        for _ in range(int(round(0.05 / dt))):
            y = rk4_step(rates, 0.0, y, dt)
        return y

    ref_x, ref_v = terminal(1e-6)
    for dt in (1e-3, 5e-4, 2.5e-4):
        x1, v1 = terminal(dt)
        x2, v2 = terminal(dt / 2.0)
        e1 = math.hypot(x1 - ref_x, (v1 - ref_v) / 1e3)
        e2 = math.hypot(x2 - ref_x, (v2 - ref_v) / 1e3)
        assert e1 / e2 >= 8.0  # fourth-order scheme: halving dt buys ~16x


def test_unforced_energy_never_increases():
    # one period's push from rest, then 2000 unforced periods
    states = _locked_run(2002, lambda k, y: 1e3 if k == 0 else 0.0)
    e = [plant_energy(P, y) for y in states[1:].tolist()]
    e0 = e[0]
    assert e0 > 0.0
    for prev, cur in zip(e, e[1:]):
        assert cur - prev <= 1e-9 * e0


def test_step_plant_guards():
    # a drive at the edge of the float range pushes the plant past it; the
    # run stops instead of returning a trace of NaNs
    with pytest.raises(sk.NonFiniteState):
        sk.run_plant_chirp(np.full(500, 1e308))


def test_run_clock_rounds_and_bounds_the_step_count():
    assert sk.control_steps(0.0025, "d") == 2  # round half to even
    assert sk.control_steps(2.5, "d", dt=0.01) == 250
    for dt in (sk.CONTROL_DT, 0.01):
        assert (sk.control_steps(sk.MAX_RUN_SAMPLES * dt, "d", dt)
                == sk.MAX_RUN_SAMPLES)
        for duration in (0.5 * dt, 1.001 * sk.MAX_RUN_SAMPLES * dt,
                         math.inf, math.nan):
            with pytest.raises(ValueError, match="^hold_s must give 1 to"):
                sk.control_steps(duration, "hold_s", dt)


# --------------------------------------------------------------- controller

def test_controller_transport_delay_in_samples():
    # a command that changes every period: the delay must carry each
    # value, not just its timing
    targets = [100.0, -40.0, 7.0, 0.0, 0.0, 0.0]

    def outputs(delay_t):
        ctrl = sk.DiscreteForceController(ControllerKind.PDM, P,
                                          replace(G, delay_t=delay_t))
        assert ctrl.latency_s == pytest.approx(delay_t)
        return [ctrl.step(f, 0.0, 0.0) for f in targets]

    undelayed = outputs(0.0)
    for delay_t, first_live in ((0.0, 0), (1e-3, 1), (2e-3, 2), (3e-3, 3)):
        outs = outputs(delay_t)
        nonzero = [k for k, o in enumerate(outs) if abs(o) > 0.0]
        assert nonzero[0] == first_live
        assert outs == ([0.0] * first_live
                        + undelayed[:len(targets) - first_live])


def test_loop_delay_must_be_whole_control_periods():
    assert sk.delay_samples(0.0) == 0
    assert sk.delay_samples(3e-3) == 3  # 2.9999999999999996 periods
    for delay_t in (0.25e-3, 0.4e-3, 1.5e-3, 2.5e-3):
        with pytest.raises(ValueError, match="delay_t"):
            sk.DiscreteForceController(ControllerKind.PDM, P,
                                       replace(G, delay_t=delay_t))


def test_observer_with_vanishing_cutoff_reduces_to_inner_loop():
    ref = sk.SineRef(amplitude=300.0, freq_hz=3.0)
    tr_pdm = sk.run_force_tracking(ControllerKind.PDM, G, ref, 2.0)
    tr_dob = sk.run_force_tracking(ControllerKind.PDM_DOB,
                                   replace(G, q_taud_cutoff=1e-7), ref, 2.0)
    assert np.max(np.abs(tr_pdm.f_meas - tr_dob.f_meas)) < 1e-9


def test_step_tracking_settles_without_error():
    tr = sk.run_force_tracking(ControllerKind.PDM, G, sk.StepRef(500.0), 3.0)
    assert abs(tr.f_meas[-1] - 500.0) < 1e-9
    assert tr.saturation_count == 0


def test_ramp_tracking_error_and_overshoot():
    # joint-torque ramp equivalent to 1 -> 25 N*m over 100 ms
    f_lo = 1.0 / DEFAULT_MOMENT_ARM
    f_hi = 25.0 / DEFAULT_MOMENT_ARM
    ramp = sk.RampRef(start_level=f_lo, end_level=f_hi, start_time=0.2,
                      ramp_time=0.1)
    tr = sk.run_force_tracking(ControllerKind.PDM_DOB, G60, ramp, 1.5)
    peak_err = float(np.max(np.abs(tr.f_cmd - tr.f_meas)))
    overshoot = (float(np.max(tr.f_meas)) - f_hi) / f_hi
    assert peak_err / f_hi < 0.05
    assert peak_err / f_hi == pytest.approx(0.0409, abs=0.002)
    assert overshoot < 0.10
    assert overshoot == pytest.approx(0.0255, abs=0.002)
    assert tr.saturation_count == 0


def test_saturation_is_counted_and_warned():
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        tr = sk.run_force_tracking(ControllerKind.PDM, G, sk.StepRef(4e4), 0.5)
    assert tr.saturation_count == 500
    [warning] = [w for w in wlist if issubclass(w.category, sk.SaturationWarning)]
    assert "on 500 control steps" in str(warning.message)


def test_reference_shapes():
    step = sk.StepRef(10.0, start_time=1.0)
    assert step.value(0.999) == 0.0 and step.value(1.0) == 10.0
    ramp = sk.RampRef(2.0, 6.0, 1.0, 2.0)
    assert ramp.value(0.0) == 2.0
    assert ramp.value(2.0) == pytest.approx(4.0)
    assert ramp.value(5.0) == 6.0
    with pytest.raises(ValueError):
        sk.RampRef(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        sk.ChirpRef(1.0, 10.0, 5.0, 1.0)
    chirp = sk.ChirpRef(1.0, 1.0, 10.0, 5.0)
    assert chirp.value(0.0) == pytest.approx(0.0, abs=1e-12)


# --------------------------------------------------- empirical response

def test_identity_record_recovers_flat_response():
    ch = sk.ChirpRef(amplitude=1.0, f0_hz=0.2, f1_hz=80.0, duration_s=60.0)
    t = np.arange(int(61.0 / 1e-3)) * 1e-3
    u = np.array([ch.value(tt) if tt <= ch.duration_s else 0.0 for tt in t])
    pts = sk.empirical_frequency_response(_make_trace(t, u, u.copy()))
    assert len(pts) >= 50
    assert max(abs(p.magnitude - 1.0) for p in pts) < 1e-9
    assert max(abs(p.phase_deg) for p in pts) < 1e-9


def test_single_sample_delay_shows_linear_phase():
    ch = sk.ChirpRef(amplitude=1.0, f0_hz=0.2, f1_hz=80.0, duration_s=60.0)
    t = np.arange(int(61.0 / 1e-3)) * 1e-3
    u = np.array([ch.value(tt) if tt <= ch.duration_s else 0.0 for tt in t])
    y = np.concatenate([[0.0], u[:-1]])
    pts = sk.empirical_frequency_response(_make_trace(t, u, y))
    near_50 = min(pts, key=lambda p: abs(p.omega - 2.0 * math.pi * 50.0))
    want = -math.degrees(near_50.omega * 1e-3)
    assert near_50.phase_deg == pytest.approx(want, abs=1.0)


def test_underexcited_records_are_refused():
    ch = sk.ChirpRef(amplitude=1.0, f0_hz=0.2, f1_hz=80.0, duration_s=60.0)
    t = np.arange(int(61.0 / 1e-3)) * 1e-3
    u = np.array([ch.value(tt) if tt <= ch.duration_s else 0.0 for tt in t])

    with pytest.raises(sk.InsufficientExcitation, match="too short"):
        sk.empirical_frequency_response(_make_trace(t[:500], u[:500],
                                                    u[:500].copy()))

    tone = np.sin(2.0 * math.pi * 5.0 * t)
    with pytest.raises(sk.InsufficientExcitation, match="two decades"):
        sk.empirical_frequency_response(_make_trace(t, tone, tone.copy()))

    rng = np.random.default_rng(7)
    noise = rng.normal(0.0, 1.0, len(t))
    with pytest.raises(sk.InsufficientExcitation, match="consistent"):
        sk.empirical_frequency_response(_make_trace(t, u, noise))


@pytest.mark.parametrize("chirp", [
    sk.ChirpRef(amplitude=2.0, f0_hz=0.5, f1_hz=150.0, duration_s=40.0),
    sk.ChirpRef(amplitude=200.0, f0_hz=0.3, f1_hz=60.0, duration_s=90.0),
], ids=["bode_default", "closed_loop_90s"])
def test_chirp_drive_equals_the_reference_bit_for_bit(chirp):
    n = sk.chirp_record_samples(chirp.duration_s)
    want = np.array([chirp.value(k * sk.CONTROL_DT)
                     if k * sk.CONTROL_DT <= chirp.duration_s else 0.0
                     for k in range(n)])
    assert sk.chirp_drive(chirp).tobytes() == want.tobytes()


def test_silent_drive_is_refused():
    # a zero-amplitude chirp records no input, so every ratio would be 0/0
    chirp = sk.ChirpRef(amplitude=0.0, f0_hz=0.5, f1_hz=150.0, duration_s=2.0)
    trace = sk.run_plant_chirp(sk.chirp_drive(chirp))
    assert (len(trace.t) == sk.chirp_record_samples(chirp.duration_s)
            >= sk.FRF_MIN_SAMPLES)
    with pytest.raises(sk.InsufficientExcitation, match="all zero"):
        sk.empirical_frequency_response(trace)


@pytest.fixture(scope="module")
def plant_chirp_points():
    chirp = sk.ChirpRef(amplitude=2.0, f0_hz=0.5, f1_hz=150.0,
                        duration_s=120.0)
    return sk.empirical_frequency_response(
        sk.run_plant_chirp(sk.chirp_drive(chirp)))


def test_plant_chirp_matches_rational_model(plant_chirp_points):
    fp = force_plant(P)
    worst_mag, worst_ph = 0.0, 0.0
    n_band = 0
    for p in plant_chirp_points:
        f_hz = p.omega / (2.0 * math.pi)
        if not 1.0 <= f_hz <= 100.0:
            continue
        n_band += 1
        h = fp.eval(p.omega)
        worst_mag = max(worst_mag, abs(p.magnitude - abs(h)) / abs(h))
        worst_ph = max(worst_ph,
                       abs(p.phase_deg - math.degrees(np.angle(h))))
    assert n_band >= 30
    assert worst_mag < 0.01
    assert worst_ph < 0.1


def test_closed_loop_chirp_matches_model_magnitude():
    chirp = sk.ChirpRef(amplitude=200.0, f0_hz=0.3, f1_hz=60.0,
                        duration_s=90.0)
    with warnings.catch_warnings():
        # brief clipping near resonance is part of the measured response
        warnings.simplefilter("ignore", sk.SaturationWarning)
        tr = sk.run_force_tracking(ControllerKind.PDM_DOB, G60, chirp, 91.0)
    pts = sk.empirical_frequency_response(tr)
    cl = closed_loop_tf(ControllerKind.PDM_DOB, P, G60)
    worst = 0.0
    for f_hz in np.geomspace(0.5, 40.0, 10):
        w = 2.0 * math.pi * f_hz
        best = min(pts, key=lambda p: abs(p.omega - w))
        want = abs(cl.eval(best.omega))
        worst = max(worst, abs(best.magnitude - want) / want)
    assert worst < 0.05


# ------------------------------------------------------------ position loop

def test_position_loop_spring_elements():
    assert sk.spring_element("elastomer", P) == (P.k_r, P.b_r)
    assert sk.spring_element("steel_spring", P) == (605000.0, 8000.0)
    with pytest.raises(ValueError):
        sk.spring_element("rubber_band", P)


def test_viscoelastic_element_softens_the_step_response():
    results = {}
    for element in ("elastomer", "steel_spring"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sk.SaturationWarning)
            tr = sk.run_joint_position_control(element)
        results[element] = (tr.meta["overshoot_frac"],
                            tr.meta["settling_time_s"])
    over_e, settle_e = results["elastomer"]
    over_s, settle_s = results["steel_spring"]
    assert over_e < over_s
    assert settle_e < settle_s
    assert over_e == pytest.approx(0.0, abs=1e-3)
    assert over_s == pytest.approx(0.0846, abs=0.005)


def _position_loop_matrix(element):
    """Continuous closed-loop state matrix A - B K of the two_mass_plant
    under the position law f = k_p (x_des - x_l) - k_d v_m, delay and
    sampling ignored."""
    a, b = sk.two_mass_plant(element)
    return a - b @ np.array([[0.0, sk.POSITION_KD, sk.POSITION_KP, 0.0]])


def test_position_loop_dominant_damping():
    def dominant_zeta(element):
        ev = np.linalg.eigvals(_position_loop_matrix(element))
        osc = ev[np.abs(ev.imag) > 1e-6]
        return min(-lam.real / abs(lam) for lam in osc)

    z_e = dominant_zeta("elastomer")
    z_s = dominant_zeta("steel_spring")
    assert z_e > 4.0 * z_s
    assert z_e == pytest.approx(0.8103, abs=0.01)
    assert z_s == pytest.approx(0.1798, abs=0.01)


def test_zero_step_position_command_stays_at_rest():
    tr = sk.run_joint_position_control("elastomer", step_rad=0.0,
                                       duration=0.5)
    assert np.max(np.abs(tr.q_out)) == 0.0
    assert "overshoot_frac" not in tr.meta


@pytest.mark.parametrize("element,clipped", [("elastomer", 108),
                                             ("steel_spring", 185)])
def test_a_saturating_position_step_counts_its_clipped_periods(element,
                                                              clipped):
    with pytest.warns(sk.SaturationWarning):
        tr = sk.run_joint_position_control(element, step_rad=1.0,
                                           duration=1.0)
    # one count per command the clip changed; the motor holds each one,
    # a period late, at the limit
    assert tr.saturation_count == clipped
    assert clipped == np.count_nonzero(np.abs(tr.i_m) == sk.CURRENT_LIMIT_A)
    assert clipped == np.count_nonzero(
        np.abs(tr.f_cmd / P.drive_constant) > sk.CURRENT_LIMIT_A)


# ------------------------------------------------- exact linear stepping

def _rk4_discretize(a, b, dt, substeps=10):
    """Per-period map of `substeps` rk4_step calls on x' = A x + B u with u
    held. RK4 on a linear system is linear in (x, u), so the map is read
    off column by column from unit initial conditions."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float).reshape(len(a), -1)
    n = len(a)

    def rates(_t, z):
        return tuple(a @ z[:n] + b @ z[n:]) + (0.0,) * b.shape[1]

    h = dt / substeps
    cols = []
    for unit in np.eye(n + b.shape[1]):
        z = tuple(unit)
        for j in range(substeps):
            z = rk4_step(rates, j * h, z, h)
        cols.append(z[:n])
    m = np.array(cols).T
    return m[:, :n], m[:, n:]


@pytest.fixture
def rk4_reference(monkeypatch):
    """Rerun a simulator with its linear plant stepped by 10 RK4 substeps
    per control period in place of the exact zero-order-hold update."""
    def run(simulate, *args, **kwargs):
        calls = []

        def discretize(a, b, dt):
            calls.append(dt)
            return _rk4_discretize(a, b, dt)

        with monkeypatch.context() as patch:
            patch.setattr(sk, "zoh_discretize", discretize)
            trace = simulate(*args, **kwargs)
        assert calls == [sk.CONTROL_DT]
        return trace
    return run


def test_rk4_discretize_reproduces_step_plant():
    # the reference map is one rk4_step on the locked plant's rates
    y = (1e-4, -0.02)
    force = P.drive_constant * 2.0
    a, b = sk._locked_plant(P)
    ad, bd = _rk4_discretize(a, b, 1e-3, substeps=1)
    want = rk4_step(locked_plant_rates(P, force), 0.0, y, 1e-3)
    got = ad @ y + bd[:, 0] * force
    assert got == pytest.approx(want, rel=1e-12, abs=1e-18)


# The exact update and 10 RK4 substeps agree to at most 6e-10 of full scale
# (pd_f and the chirp; 5e-12 of the step on the position loop). A bound of
# 1e-8 leaves room for rounding, while a first-order or mistimed update
# misses it by orders of magnitude.
@pytest.mark.parametrize("kind", list(ControllerKind))
def test_force_tracking_matches_rk4_reference(kind, rk4_reference):
    full_scale = 25.0 / DEFAULT_MOMENT_ARM
    ramp = sk.RampRef(start_level=0.0, end_level=full_scale, start_time=0.1,
                      ramp_time=0.1)
    exact = sk.run_force_tracking(kind, G60, ramp, 1.0)
    ref = rk4_reference(sk.run_force_tracking, kind, G60, ramp, 1.0)
    assert np.max(np.abs(exact.f_meas - ref.f_meas)) < 1e-8 * full_scale
    assert np.max(np.abs(exact.f_loadcell - ref.f_loadcell)) < 1e-8 * full_scale


def test_plant_chirp_matches_rk4_reference(rk4_reference):
    chirp = sk.ChirpRef(amplitude=2.0, f0_hz=0.5, f1_hz=150.0, duration_s=2.0)
    drive = sk.chirp_drive(chirp)
    exact = sk.run_plant_chirp(drive)
    ref = rk4_reference(sk.run_plant_chirp, drive)
    peak = float(np.max(np.abs(ref.f_meas)))
    assert np.max(np.abs(exact.f_meas - ref.f_meas)) < 1e-8 * peak


@pytest.mark.parametrize("element", ["elastomer", "steel_spring"])
def test_position_step_matches_rk4_reference(element, rk4_reference):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sk.SaturationWarning)
        exact = sk.run_joint_position_control(element, duration=1.0)
        ref = rk4_reference(sk.run_joint_position_control, element,
                            duration=1.0)
    assert np.max(np.abs(exact.q_out - ref.q_out)) < 1e-8 * 0.05
    assert exact.saturation_count == ref.saturation_count


def test_position_loop_matrix_closes_the_two_mass_plant():
    m_m = VLCA_ACTUATOR.effective_mass
    for element in ("elastomer", "steel_spring"):
        a, _ = sk.two_mass_plant(element)
        # moving both masses together stretches nothing
        assert np.all(a @ [1.0, 0.0, 1.0, 0.0] == 0.0)
        # the loop feeds back the load position and the motor speed into
        # the motor force, and nothing else
        closed = _position_loop_matrix(element)
        np.testing.assert_array_equal(np.delete(closed, 1, 0),
                                      np.delete(a, 1, 0))
        np.testing.assert_allclose(
            a[1] - closed[1],
            [0.0, sk.POSITION_KD / m_m, sk.POSITION_KP / m_m, 0.0],
            rtol=1e-12)


# ------------------------------------------------------------------- impact

def test_impact_peak_insensitive_to_grounding():
    tv = sk.run_impact(sk.ImpactConfig(grounding="viscoelastic"))
    tr = sk.run_impact(sk.ImpactConfig(grounding="rigid"))
    peak_v = float(np.max(tv.f_loadcell))
    peak_r = float(np.max(tr.f_loadcell))
    assert abs(peak_v - peak_r) / peak_r < 0.15
    assert abs(peak_v - peak_r) / peak_r < 0.001  # observed well under that
    # but the compliant mount moves while the rigid one cannot
    defl_v = float(np.max(np.abs(tv.x_r)))
    defl_r = float(np.max(np.abs(tr.x_r)))
    assert defl_r == 0.0
    assert defl_v > 1e-4


def test_zero_impulse_impact_is_flat():
    tr = sk.run_impact(sk.ImpactConfig(impulse_ns=0.0))
    assert np.max(np.abs(tr.f_loadcell)) == 0.0
    assert np.max(np.abs(tr.x_r)) == 0.0


def test_impact_config_validation():
    with pytest.raises(ValueError):
        sk.ImpactConfig(grounding="loose")
    with pytest.raises(ValueError):
        sk.ImpactConfig(impulse_ns=-1.0)
    with pytest.raises(ValueError):
        sk.ImpactConfig(pulse_width_s=10e-3)


def _impact_rk4_reference(config, params=P, substeps=500):
    """(load cell, deflection) of run_impact's strike with every control
    period taken as `substeps` rk4_step calls: on the hammer-forced rates
    while the pulse acts, then as the free plant's RK4 period map."""
    w = config.pulse_width_s
    f_peak = config.impulse_ns * math.pi / (2.0 * w)
    m_tot = params.effective_mass + sk.IMPACT_SENSOR_MASS_KG
    visco = config.grounding == "viscoelastic"
    k = params.k_r if visco else 0.0
    b = params.drivetrain_damping + (params.b_r if visco else 0.0)

    def hammer(t):
        return f_peak * math.sin(math.pi * t / w) if 0.0 <= t <= w else 0.0

    def rates(t, y):
        return y[1], (hammer(t) - b * y[1] - k * y[0]) / m_tot

    dt = sk.CONTROL_DT
    h = dt / substeps
    free, _ = _rk4_discretize([[0.0, 1.0], [-k / m_tot, -b / m_tot]],
                              [0.0, 0.0], dt, substeps)
    n = int(round(sk.IMPACT_DURATION_S / dt))
    y, load, defl = (0.0, 0.0), np.empty(n), np.empty(n)
    for i in range(n):
        t = i * dt
        load[i] = hammer(t) - sk.IMPACT_SENSOR_MASS_KG * rates(t, y)[1]
        defl[i] = y[0] if visco else 0.0
        if t < w:
            for j in range(substeps):
                y = rk4_step(rates, t + j * h, y, h)
        else:
            y = tuple(free @ y)
    return load, defl


# The exact strike and 500 RK4 substeps per period agree to 8.7e-12 of the
# peak or better (0.5 ms pulse). A bound of 1e-9 leaves room for rounding,
# while 50 substeps miss the exact map by 8.7e-8 of the peak at 0.5 ms.
@pytest.mark.parametrize("grounding", ["rigid", "viscoelastic"])
@pytest.mark.parametrize("width", [0.5e-3, 0.7e-3, 1.5e-3, 2e-3, 5e-3])
def test_impact_matches_rk4_reference(grounding, width):
    cfg = sk.ImpactConfig(grounding=grounding, pulse_width_s=width)
    tr = sk.run_impact(cfg)
    load, defl = _impact_rk4_reference(cfg)
    assert len(tr.t) == len(load) == 300
    assert (np.max(np.abs(tr.f_loadcell - load))
            <= 1e-9 * np.max(np.abs(load)))
    assert (np.max(np.abs(tr.x_r - defl))
            <= 1e-9 * np.max(np.abs(defl)))


@pytest.mark.parametrize("b_m", [10.0, 1e3])
def test_heavy_drag_strike_reads_the_hammer_force(b_m):
    # the drag holds the assembly still, so the cap passes the whole hammer
    # force; 50 RK4 substeps per period are unstable at b_m = 10
    for grounding in ("rigid", "viscoelastic"):
        tr = sk.run_impact(sk.ImpactConfig(grounding=grounding),
                           replace(P, b_m=b_m))
        assert (np.max(tr.f_loadcell)
                == pytest.approx(tr.meta["f_peak_n"], rel=1e-6))


# ---------------------------------------------------------------------- csv

def test_trace_csv_layout():
    tr = sk.run_impact(sk.ImpactConfig())
    lines = tr.to_csv().strip().splitlines()
    assert lines[0] == sk.SIM_CSV_HEADER
    assert len(lines) == len(tr.t) + 1
    ncols = len(lines[0].split(","))
    first = lines[1].split(",")
    assert len(first) == ncols
    # channels the scenario never produced serialize as empty cells
    i_q = lines[0].split(",").index("q_out")
    assert first[i_q] == ""
    # a row holding NaN, -0.0 and a subnormal value, cell by cell
    tr.f_cmd[2], tr.f_meas[2], tr.x_r[2] = math.nan, -0.0, 5e-324
    cells = (tr.t[2], tr.f_cmd[2], tr.f_meas[2], tr.f_loadcell[2], tr.i_m[2],
             tr.x_r[2], tr.q_out[2], math.nan)
    row = tr.to_csv().splitlines()[3]
    assert row == ",".join("" if math.isnan(c) else f"{float(c):.10g}"
                           for c in cells)
    assert row.split(",")[1:3] == ["", "-0"]
    assert row.split(",")[5] == "4.940656458e-324"
