"""Two-node thermal model, rating calibration, and power accounting."""
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import thermal_rises
from vlcasim import powertherm as pt
from vlcasim.simkit import NonFiniteState
from vlcasim.vlca import VLCA_ACTUATOR


@pytest.fixture(scope="module")
def calibrated():
    return pt.calibrate_thermal()


# -------------------------------------------------------------- calibration

def test_calibration_hits_its_targets(calibrated):
    p = calibrated.params
    assert p.c_winding == pytest.approx(1.00000, abs=2e-5)
    assert p.c_housing == pytest.approx(2.46347, abs=2e-5)
    assert p.r_wh == pytest.approx(0.03578, abs=2e-5)
    assert p.r_ha_on == pytest.approx(3.54218, abs=2e-5)
    assert p.r_ha_off == pytest.approx(45.65193, abs=2e-5)
    res = calibrated.residuals
    assert set(res) == {"settle_c", "burst_peak_c", "cooled_ratio"}
    assert abs(res["settle_c"]) < 1e-6
    assert abs(res["burst_peak_c"]) < 1e-6
    assert abs(res["cooled_ratio"]) < 0.05


# the fit as the coordinate descent on both log-capacities left it, which
# the root find along the path reproduces: c_winding below 1 J/K with
# c_housing at its floor, c_housing alone, and c_housing at its ceiling
@pytest.mark.parametrize("k_tau, c_winding, c_housing", [
    (0.00907, 0.6594350969385133, 0.050000000001575236),
    (0.0448, 1.0, 2.463471830473756),
    (0.1344, 2.2629227514141244, 4999.999999993654),
    (448.0, 3.038211305995828, 4999.999999993654),
])
def test_calibration_keeps_the_descents_fit(k_tau, c_winding, c_housing):
    p = pt.calibrate_thermal(replace(VLCA_ACTUATOR, k_tau=k_tau)).params
    assert p.c_winding == pytest.approx(c_winding, rel=1e-10)
    assert p.c_housing == pytest.approx(c_housing, rel=1e-10)


def test_a_drive_too_weak_for_the_burst_is_infeasible():
    # the burst peak misses its target at every point of the path
    with pytest.raises(pt.CalibrationInfeasible,
                       match=r"misses burst_peak_c by 61\.25%"):
        pt.calibrate_thermal(replace(VLCA_ACTUATOR, k_tau=0.00448))


def test_calibration_is_one_short_root_find(monkeypatch):
    # the coordinate descent took 64 simulations at the defaults; the
    # cache is cleared so that a real calibration is counted
    pt._fit_network.cache_clear()
    calls = []
    simulate = pt.simulate_constant_current
    monkeypatch.setattr(pt, "simulate_constant_current",
                        lambda *a, **kw: calls.append(a) or simulate(*a, **kw))
    pt.calibrate_thermal()
    assert len(calls) <= 24


def test_an_actuator_is_calibrated_once_per_process(monkeypatch):
    pt._fit_network.cache_clear()
    first = pt.calibrate_thermal()
    first.residuals["settle_c"] = math.inf  # a caller's dict is its own
    monkeypatch.setattr(pt, "simulate_constant_current",
                        lambda *a, **kw: pytest.fail("calibrated again"))
    again = pt.calibrate_thermal(replace(VLCA_ACTUATOR), pt.ThermalTargets())
    assert again.params is first.params
    assert abs(again.residuals["settle_c"]) < 1e-6


def test_resistance_split_encodes_the_cooling_ratio(calibrated):
    p = calibrated.params
    # steady state is capacitance-free, so the cooled/uncooled current
    # ratio is the square root of the resistance ratio by construction
    assert math.sqrt(p.r_ha_off / p.r_ha_on) == pytest.approx(3.59, rel=1e-9)


def test_unity_ratio_target_keeps_one_resistance():
    rep = pt.calibrate_thermal(targets=pt.ThermalTargets(cooled_ratio=1.0))
    assert rep.params.r_ha_on == rep.params.r_ha_off


def test_impossible_targets_are_reported():
    # a burst that must end cooler than ambient cannot be matched
    bad = pt.ThermalTargets(burst_peak_c=10.0)
    with pytest.raises(pt.CalibrationInfeasible):
        pt.calibrate_thermal(targets=bad)


def test_thermal_param_validation(calibrated):
    p = calibrated.params
    with pytest.raises(ValueError):
        replace(p, c_winding=0.0)
    with pytest.raises(ValueError):
        replace(p, r_ha_on=p.r_ha_off * 2.0)  # cooling must help, not hurt
    with pytest.raises(ValueError):
        replace(p, limit_c=p.ambient_c - 1.0)
    replace(p, limit_c=p.ambient_c)  # equality allowed


# ----------------------------------------------------------------- stepping

def test_steady_state_ignores_capacitances(calibrated):
    p = calibrated.params
    for scale in (0.5, 2.0, 10.0):
        p2 = replace(p, c_winding=p.c_winding * scale,
                     c_housing=p.c_housing * scale)
        assert pt.steady_state_winding(10.0, p2, True) == pytest.approx(
            pt.steady_state_winding(10.0, p, True), rel=1e-12)


def test_steady_state_increases_with_current(calibrated):
    p = calibrated.params
    temps = [pt.steady_state_winding(i, p, True)
             for i in np.linspace(0.0, 10.0, 21)]
    assert temps[0] == pytest.approx(p.ambient_c)
    assert all(b > a for a, b in zip(temps, temps[1:]))


def test_cooling_off_runs_hotter(calibrated):
    p = calibrated.params
    assert (pt.steady_state_winding(3.0, p, False)
            > pt.steady_state_winding(3.0, p, True))


def test_unpowered_decay_is_monotone(calibrated):
    p = calibrated.params
    tr = pt.simulate_constant_current(0.0, 200.0, p, dt=0.01,
                                      initial=pt.ThermalState(120.0, 80.0))
    assert len(tr.t) == 20001
    assert tr.t_winding[0] == 120.0
    assert np.all(np.diff(tr.t_winding) <= 1e-12)
    assert tr.t_winding[-1] == pytest.approx(p.ambient_c, abs=0.01)


def test_hold_current_settles_at_target(calibrated):
    p = calibrated.params
    i_hold = 860.0 / VLCA_ACTUATOR.drive_constant
    assert i_hold == pytest.approx(6.4324, abs=1e-3)
    tr = pt.simulate_constant_current(i_hold, 2500.0, p, cooling_on=True,
                                      dt=10e-3)
    assert tr.t_winding[-1] == pytest.approx(115.0, abs=0.01)


def test_burst_peak_matches_target(calibrated):
    p = calibrated.params
    tr = pt.simulate_constant_current(31.0, 0.5, p, cooling_on=True, dt=1e-3)
    assert tr.peak_winding == pytest.approx(107.0, abs=0.01)
    assert np.max(tr.t_winding) == tr.peak_winding


def test_a_diverging_run_names_its_first_non_finite_time(calibrated):
    # the winding power overflows on the first step, so the first recorded
    # non-finite temperature is the second step's; the run names the start
    # of the period that produced it
    p = replace(calibrated.params, r_elec_25=1e300)
    with pytest.raises(NonFiniteState, match=r"diverged at t=0\.001 s"):
        pt.simulate_constant_current(31.0, 0.5, p, dt=1e-3)


@pytest.mark.parametrize("initial", [pt.ThermalState(math.inf, 25.0),
                                     pt.ThermalState(40.0, math.nan)],
                         ids=["inf_winding", "nan_housing"])
def test_a_non_finite_initial_state_is_named_at_the_run_start(calibrated,
                                                              initial):
    with pytest.raises(NonFiniteState,
                       match=r"^plant state diverged at t=0\.000 s$"):
        pt.simulate_constant_current(5.0, 0.5, calibrated.params, dt=1e-2,
                                     initial=initial)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(current=st.floats(0.0, 40.0), dt=st.sampled_from([1e-3, 1e-2]),
       cooling_on=st.booleans(), n=st.integers(1, 400),
       start=st.tuples(st.floats(-20.0, 150.0), st.floats(-20.0, 150.0)))
def test_constant_current_equals_the_float_recurrence_bit_for_bit(
        calibrated, current, dt, cooling_on, n, start):
    p = calibrated.params
    tr = pt.simulate_constant_current(current, n * dt, p, cooling_on, dt,
                                      initial=pt.ThermalState(*start))
    ws, hs = thermal_rises(pt._propagator(p, cooling_on, dt), p, current,
                           start[0] - p.ambient_c, start[1] - p.ambient_c, n)
    assert tr.t_winding.tobytes() == (p.ambient_c + ws).tobytes()
    assert tr.t_housing.tobytes() == (p.ambient_c + hs).tobytes()


# -------------------------------------------------------------- rating

def test_continuous_current_limits(calibrated):
    p = calibrated.params
    lim_on = pt.continuous_current_limit(p, True)
    lim_off = pt.continuous_current_limit(p, False)
    assert lim_on == pytest.approx(7.319666385, rel=1e-6)
    assert lim_off == pytest.approx(2.048373362, rel=1e-6)
    # the temperature-dependent winding resistance pulls the realized
    # current ratio slightly under the resistance-split figure
    assert lim_on / lim_off == pytest.approx(3.59, rel=0.01)
    # at the limit the steady winding temperature touches the ceiling
    assert pt.steady_state_winding(lim_on, p, True) == pytest.approx(
        p.limit_c, abs=1e-6)


def test_continuous_limit_vanishes_when_ceiling_is_ambient(calibrated):
    p = replace(calibrated.params, limit_c=calibrated.params.ambient_c)
    assert pt.continuous_current_limit(p, True) == pytest.approx(0.0, abs=1e-9)


def test_continuous_force_ratings(calibrated):
    p = calibrated.params
    on = pt.continuous_force_limit(p, VLCA_ACTUATOR, cooling_on=True)
    off = pt.continuous_force_limit(p, VLCA_ACTUATOR, cooling_on=False)
    assert on.screw_force_n == pytest.approx(978.633, abs=0.01)
    assert on.joint_torque_nm == pytest.approx(44.785, abs=0.01)
    assert off.screw_force_n == pytest.approx(273.866, abs=0.01)
    assert off.joint_torque_nm == pytest.approx(12.533, abs=0.01)
    assert on.screw_force_n > off.screw_force_n


# ---------------------------------------------------------------- power

def _fake_trace(scale_t=1.0):
    n = 501
    t = np.linspace(0.0, 2.0, n) * scale_t
    omega = 40.0 + 20.0 * np.sin(2.0 * math.pi * np.linspace(0.0, 2.0, n))
    ones = np.ones(n)
    k_tau = VLCA_ACTUATOR.k_tau
    tau = 0.89 * k_tau * 100.0 * ones
    return SimpleNamespace(t=t,
                           i_m=np.column_stack([ones, ones]),
                           motor_speed_rad_s=np.column_stack([omega, omega]),
                           tau_applied=np.column_stack([tau, tau]),
                           qdot=np.column_stack([omega / 100.0, omega / 100.0]))


def test_power_flow_recovers_a_known_efficiency():
    summary = pt.power_flow(_fake_trace(), min_motor_w=0.0)
    assert summary.drivetrain_efficiency_avg == pytest.approx(0.89, rel=1e-9)
    assert summary.n_averaged == 501
    assert 0.5 < summary.electrical_efficiency_avg < 0.89


def test_power_flow_is_time_scale_invariant():
    a = pt.power_flow(_fake_trace(), min_motor_w=0.0)
    b = pt.power_flow(_fake_trace(scale_t=7.3), min_motor_w=0.0)
    assert b.drivetrain_efficiency_avg == pytest.approx(
        a.drivetrain_efficiency_avg, rel=1e-12)


def test_power_flow_needs_positive_intervals():
    fake = _fake_trace()
    fake.tau_applied = -fake.tau_applied
    summary = pt.power_flow(fake)
    assert summary.n_averaged == 0
    assert math.isnan(summary.drivetrain_efficiency_avg)
    assert math.isnan(summary.electrical_efficiency_avg)


def test_power_csv_layout():
    summary = pt.power_flow(_fake_trace(), min_motor_w=0.0)
    text = pt.power_samples_to_csv(summary)
    lines = text.splitlines()
    assert lines[0] == pt.POWER_CSV_HEADER
    assert len(lines) == 1 + 501
    assert lines[1].split(",")[0] == "0"
    repeated = summary.t.copy()
    repeated[3] = repeated[2]
    with pytest.raises(ValueError, match="strictly increase"):
        pt.power_samples_to_csv(replace(summary, t=repeated))


def test_thermal_trace_csv(calibrated):
    p = calibrated.params
    tr = pt.simulate_constant_current(5.0, 1.0, p, cooling_on=True, dt=0.01)
    lines = pt.thermal_trace_to_csv(tr).strip().splitlines()
    assert lines[0] == pt.THERMAL_CSV_HEADER
    assert len(lines) == len(tr.t) + 1
    assert lines[1].endswith(",1")  # cooling flag serialized as 0/1
    with pytest.raises(ValueError):
        pt.simulate_constant_current(5.0, 1.0, p, dt=0.1)  # dt capped at 10 ms
    with pytest.raises(ValueError):
        pt.simulate_constant_current(5.0, 0.0, p)
