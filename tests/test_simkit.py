"""Fixed-step time-domain simulation against the rational models."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import locked_plant_rates, plant_energy
from vlcasim import simkit as sk
from vlcasim.vlca import (ControllerGains, ControllerKind, DEFAULT_MOMENT_ARM,
                          EXPERIMENT_GAINS, VLCA_ACTUATOR, closed_loop_tf,
                          force_plant)

P = VLCA_ACTUATOR
G = ControllerGains()
G60 = EXPERIMENT_GAINS


def _make_trace(t, u, y):
    zeros = np.zeros_like(t)
    nans = np.full_like(t, math.nan)
    return sk.SimTrace(dt=float(t[1] - t[0]), t=t, f_cmd=u, f_meas=y,
                       f_loadcell=y.copy(), i_m=zeros, x_r=zeros.copy(),
                       q_out=nans, temp_c=nans.copy())


# --------------------------------------------------------------- integrator

def _locked_step():
    return sk._zoh_step(*sk._locked_plant(P))


def test_equilibrium_state_stays_put():
    step = _locked_step()
    y = [0.0, 0.0]
    for _ in range(100):
        y = step(y, 0.0)
    assert y == [0.0, 0.0]


def test_constant_current_settles_at_static_deflection():
    step = _locked_step()
    y = [0.0, 0.0]
    for _ in range(3000):
        y = step(y, P.drive_constant * 1.0)
    assert y[0] == pytest.approx(P.drive_constant / P.k_r, rel=1e-9)


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
            y = sk.rk4_step(rates, 0.0, y, dt)
        return y

    ref_x, ref_v = terminal(1e-6)
    for dt in (1e-3, 5e-4, 2.5e-4):
        x1, v1 = terminal(dt)
        x2, v2 = terminal(dt / 2.0)
        e1 = math.hypot(x1 - ref_x, (v1 - ref_v) / 1e3)
        e2 = math.hypot(x2 - ref_x, (v2 - ref_v) / 1e3)
        assert e1 / e2 >= 8.0  # fourth-order scheme: halving dt buys ~16x


def test_unforced_energy_never_increases():
    step = _locked_step()
    y = [1e-4, 0.0]
    e0 = plant_energy(P, y)
    prev = e0
    for _ in range(2000):
        y = step(y, 0.0)
        e = plant_energy(P, y)
        assert e - prev <= 1e-9 * e0
        prev = e


def test_step_plant_guards():
    # a force at the edge of the float range drives the loop past it; the
    # run stops instead of returning a trace of NaNs
    with pytest.raises(sk.NonFiniteState):
        sk.run_force_tracking(ControllerKind.PDM_DOB, G60, sk.StepRef(0.0),
                              0.5, external_force=lambda t: 1e308)


# --------------------------------------------------------------- controller

def test_controller_transport_delay_in_samples():
    for delay_t, first_live in ((0.0, 0), (1e-3, 1), (2e-3, 2)):
        ctrl = sk.DiscreteForceController(ControllerKind.PDM, P,
                                          replace(G, delay_t=delay_t))
        assert ctrl.latency_s == pytest.approx(delay_t)
        outs = [ctrl.step(100.0 if k == 0 else 0.0, 0.0, 0.0)
                for k in range(5)]
        nonzero = [k for k, o in enumerate(outs) if abs(o) > 0.0]
        assert nonzero[0] == first_live


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
    assert tr.meta["saturated"] is True
    assert any(issubclass(w.category, sk.SaturationWarning) for w in wlist)


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
    n = sk.chirp_record_samples(chirp)
    want = np.array([chirp.value(k * sk.CONTROL_DT)
                     if k * sk.CONTROL_DT <= chirp.duration_s else 0.0
                     for k in range(n)])
    assert sk.chirp_drive(chirp).tobytes() == want.tobytes()


def test_silent_drive_is_refused():
    # a zero-amplitude chirp records no input, so every ratio would be 0/0
    chirp = sk.ChirpRef(amplitude=0.0, f0_hz=0.5, f1_hz=150.0, duration_s=2.0)
    trace = sk.run_plant_chirp(sk.chirp_drive(chirp))
    assert len(trace.t) == sk.chirp_record_samples(chirp) >= sk.FRF_MIN_SAMPLES
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
            z = sk.rk4_step(rates, j * h, z, h)
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
    want = sk.rk4_step(locked_plant_rates(P, force), 0.0, y, 1e-3)
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
    with pytest.raises(ValueError):
        sk.ImpactConfig(duration_s=1e-3, pulse_width_s=2e-3)


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
             tr.x_r[2], tr.q_out[2], tr.temp_c[2])
    row = tr.to_csv().splitlines()[3]
    assert row == ",".join("" if math.isnan(c) else f"{float(c):.10g}"
                           for c in cells)
    assert row.split(",")[1:3] == ["", "-0"]
    assert row.split(",")[5] == "4.940656458e-324"
