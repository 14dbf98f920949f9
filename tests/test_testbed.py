"""Two-link leg dynamics, linkage kinematics, and task-space control."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import _dyn_scalars, dp5_step, hip_jacobian, total_energy
from vlcasim import powertherm, simkit
from vlcasim import testbed as tb
from vlcasim.vlca import (ControllerGains, ControllerKind,
                          DEFAULT_MOMENT_ARM, VLCA_ACTUATOR)

P = tb.TwoDofParams()


# ----------------------------------------------------------------- dynamics

def test_param_validation_and_reach():
    with pytest.raises(ValueError):
        tb.TwoDofParams(l1=0.0)
    with pytest.raises(ValueError):
        tb.TwoDofParams(c1=0.5)  # centroid past the link end
    with pytest.raises(ValueError):
        tb.TwoDofParams(payload_mass=-1.0)
    assert P.reach == pytest.approx(0.8)
    assert P.inner_radius == 0.0


def _terms(q, qdot, params):
    """(mass matrix, velocity product, gravity) from _dyn_scalars."""
    a11, a12, a22, b1, b2, g1, g2 = _dyn_scalars(q[0], q[1], qdot[0], qdot[1],
                                                 params)
    return (np.array([[a11, a12], [a12, a22]]), np.array([b1, b2]),
            np.array([g1, g2]))


@st.composite
def legs_and_states(draw):
    """Random link geometry, masses, inertias, payload, gravity and a joint
    state (q0, q1, w0, w1)."""
    length, mass = st.floats(0.05, 1.0), st.floats(0.1, 10.0)
    l1, l2 = draw(length), draw(length)
    params = tb.TwoDofParams(
        l1=l1, l2=l2, m1=draw(mass), m2=draw(mass),
        c1=l1 * draw(st.floats(0.0, 1.0)), c2=l2 * draw(st.floats(0.0, 1.0)),
        i1=draw(st.floats(0.0, 1.0)), i2=draw(st.floats(0.0, 1.0)),
        payload_mass=draw(st.floats(0.0, 40.0)),
        gravity=draw(st.floats(0.0, 20.0)))
    angle, rate = st.floats(-2.0 * math.pi, 2.0 * math.pi), st.floats(-20.0, 20.0)
    return params, (draw(angle), draw(angle), draw(rate), draw(rate))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(legs_and_states())
def test_leg_dynamics_equals_the_reference_bit_for_bit(case):
    params, state = case
    got = tb._leg_dynamics(params)(*state)
    want = _dyn_scalars(*state, params)
    assert list(map(float.hex, got)) == list(map(float.hex, want))


def test_mass_matrix_symmetric_positive_definite():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        params = tb.TwoDofParams(payload_mass=float(rng.uniform(0.0, 30.0)))
        q = rng.uniform(-2.6, 2.6, 2)
        a = _terms(q, (0.0, 0.0), params)[0]
        assert a[0, 1] == a[1, 0]
        eig = np.linalg.eigvalsh(a)
        assert eig[0] > 0.0


def test_mass_matrix_matches_kinetic_energy_curvature():
    # central differences of the kinetic energy in joint rates reproduce
    # every entry of the mass matrix
    rng = np.random.default_rng(4)
    h = 1e-3
    for _ in range(20):
        q = rng.uniform(-1.2, 1.2, 2)
        a = _terms(q, (0.0, 0.0), P)[0]
        pe = total_energy(q, (0.0, 0.0), P)

        def ke(w):
            return total_energy(q, w, P) - pe

        for i in range(2):
            for j in range(2):
                wpp, wpm = np.zeros(2), np.zeros(2)
                wmp, wmm = np.zeros(2), np.zeros(2)
                wpp[i] += h; wpp[j] += h
                wpm[i] += h; wpm[j] -= h
                wmp[i] -= h; wmp[j] += h
                wmm[i] -= h; wmm[j] -= h
                fd = (ke(wpp) - ke(wpm) - ke(wmp) + ke(wmm)) / (4.0 * h * h)
                assert fd == pytest.approx(a[i, j], rel=1e-6)


def test_gravity_vector_matches_static_moments():
    # both links horizontal: each joint carries the weight moments of
    # everything distal to it
    gravity = _terms((0.0, 0.0), (0.0, 0.0), P)[2]
    g1 = P.gravity * (P.m1 * P.c1 + P.m2 * (P.l1 + P.c2)
                      + P.payload_mass * (P.l1 + P.l2))
    g2 = P.gravity * (P.m2 * P.c2 + P.payload_mass * P.l2)
    assert gravity[0] == pytest.approx(g1, rel=1e-12)
    assert gravity[1] == pytest.approx(g2, rel=1e-12)
    # straight up: no gravity torque at all
    up = _terms((math.pi / 2.0, 0.0), (0.0, 0.0), P)[2]
    assert np.max(np.abs(up)) < 1e-12


def test_velocity_product_vanishes_at_rest_and_is_power_neutral():
    rng = np.random.default_rng(9)
    assert np.all(_terms((0.7, -0.4), (0.0, 0.0), P)[1] == 0.0)
    # the velocity-product force absorbs exactly the power released by the
    # configuration-dependent inertia
    h = 1e-6
    for _ in range(25):
        q = rng.uniform(-1.5, 1.5, 2)
        w = rng.uniform(-3.0, 3.0, 2)
        b = _terms(q, w, P)[1]
        a_plus = _terms(q + h * w, (0.0, 0.0), P)[0]
        a_minus = _terms(q - h * w, (0.0, 0.0), P)[0]
        a_dot = (a_plus - a_minus) / (2.0 * h)
        lhs = float(w @ b)
        rhs = 0.5 * float(w @ a_dot @ w)
        assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-7)


def test_passive_swing_conserves_energy():
    # the leg's own period map, unactuated in zero gravity, for 1 s; in
    # cascaded mode, undamped and without current, the swing loads the
    # springs from rest and they trade energy with the joints and screws
    zero_g = replace(P, gravity=0.0)
    act = replace(VLCA_ACTUATOR, b_r=0.0, b_m=0.0)
    k_r, m_m = act.k_r, act.effective_mass

    def energy(s):
        return (total_energy(s[:2], s[2:4], zero_g)
                + 0.5 * k_r * (s[4] ** 2 + s[6] ** 2)
                + 0.5 * m_m * (s[5] ** 2 + s[7] ** 2))

    for cascaded, tol in ((False, 1e-6), (True, 1e-5)):
        advance = tb.leg_period_map(zero_g, cascaded, act)
        state = (0.4, -0.8, 1.0, -0.5) + (0.0,) * 4
        e0 = energy(state)
        drift = 0.0
        for k in range(1000):
            state = advance(state, 0.0, 0.0, k * simkit.CONTROL_DT)
            drift = max(drift, abs(energy(state) - e0))
        assert drift <= tol * abs(e0), cascaded


# --------------------------------------------------------------- kinematics

def test_jacobian_columns_are_turn_levers():
    q = np.array([0.7, -1.1])
    info = hip_jacobian(q, P)
    hip = tb.hip_position(q, P)
    knee = np.array([P.l1 * math.cos(q[0]), P.l1 * math.sin(q[0])])
    np.testing.assert_allclose(info.j[:, 0], [-hip[1], hip[0]], atol=1e-12)
    rel = hip - knee
    np.testing.assert_allclose(info.j[:, 1], [-rel[1], rel[0]], atol=1e-12)


def test_jacobian_rate_matches_finite_difference():
    q = np.array([0.7, -1.1])
    qd = np.array([0.3, -0.5])
    info = hip_jacobian(q, P, qd)
    h = 1e-6
    fd = (hip_jacobian(q + h * qd, P).j - info.j) / h
    np.testing.assert_allclose(info.jdot, fd, atol=1e-6)


def test_jacobian_flags_the_straight_leg():
    assert hip_jacobian((0.3, 0.0), P).singular
    assert not hip_jacobian((0.3, -0.9), P).singular


def test_inverse_kinematics_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        r = rng.uniform(0.15, 0.75)
        th = rng.uniform(-1.2, 1.5)
        target = np.array([r * math.cos(th), r * math.sin(th)])
        q = tb.inverse_kinematics(target, P)
        np.testing.assert_allclose(tb.hip_position(q, P), target, atol=1e-9)
        assert q[1] <= 0.0  # knee-down branch
    with pytest.raises(tb.WorkspaceViolation):
        tb.inverse_kinematics((1.0, 0.5), P)


def test_hip_position_maps_an_array_row_by_row():
    # the array form equals the one-pair arithmetic in math.cos/math.sin
    # bit for bit
    q = np.random.default_rng(5).uniform(-2.0 * math.pi, 2.0 * math.pi,
                                         (2000, 2))
    expect = [[P.l1 * math.cos(a) + P.l2 * math.cos(a + b),
               P.l1 * math.sin(a) + P.l2 * math.sin(a + b)]
              for a, b in q.tolist()]
    hips = tb.hip_position(q, P)
    assert hips.shape == (2000, 2)
    assert hips.tolist() == expect
    assert [tb.hip_position(row, P).tolist() for row in q[:50]] == expect[:50]


# ------------------------------------------------------------------ linkage

def test_linkage_rated_point():
    arm = tb.DEFAULT_MOMENT_ARM  # the one arm the leg's rates and trace read
    assert arm * 5900.0 == 270.0
    assert 91.0 / arm == pytest.approx(1988.5, abs=1.0)


# -------------------------------------------------------------- osc control

def test_rest_on_target_commands_gravity_support():
    q = np.array([1.2, -0.9])
    x_here = tb.hip_position(q, P)
    *tau, damped = tb._osc_tau(*q, 0.0, 0.0, *x_here, 0.0, 0.0, 0.0, 0.0,
                               tb.TaskGains(), P, tb._leg_dynamics(P))
    want = _terms(q, (0.0, 0.0), P)[2]
    np.testing.assert_allclose(tau, want, atol=1e-9)
    assert not damped


def test_osc_torque_is_the_computed_torque_law():
    # away from the singular band the kernel is M J^-1 (a - Jdot qdot) + b + g
    # with a = xdd_des + kp (x_des - x) + kd (xd_des - J qdot)
    rng = np.random.default_rng(17)
    gains = tb.TaskGains(kp=(625.0, 400.0), kd=(40.0, 30.0))
    dyn = tb._leg_dynamics(P)
    for _ in range(200):
        q = np.array([rng.uniform(-1.0, 2.5), -rng.uniform(0.3, 2.6)])
        qdot = rng.uniform(-4.0, 4.0, 2)
        x_des = tb.hip_position(q, P) + rng.uniform(-0.05, 0.05, 2)
        xd_des, xdd_des = rng.uniform(-1.0, 1.0, 2), rng.uniform(-5.0, 5.0, 2)
        jac = hip_jacobian(q, P, qdot)
        a = (xdd_des + np.multiply(gains.kp, x_des - tb.hip_position(q, P))
             + np.multiply(gains.kd, xd_des - jac.j @ qdot))
        m, b, g = _terms(q, qdot, P)
        want = m @ np.linalg.solve(jac.j, a - jac.jdot @ qdot) + b + g
        *tau, damped = tb._osc_tau(*q, *qdot, *x_des, *xd_des, *xdd_des,
                                   gains, P, dyn)
        assert not damped
        np.testing.assert_allclose(tau, want, rtol=1e-9, atol=1e-9)


def test_crouch_torques_stay_inside_the_joint_rating():
    p23 = tb.TwoDofParams(payload_mass=23.0)
    q = tb.inverse_kinematics((0.15, 0.45), p23)
    *tau, _ = tb._osc_tau(*q, 0.0, 0.0, *tb.hip_position(q, p23),
                          0.0, 0.0, 0.0, 0.0, tb.TaskGains(), p23,
                          tb._leg_dynamics(p23))
    assert np.max(np.abs(tau)) < 270.0
    assert tau[1] == pytest.approx(89.60, abs=0.5)


def test_task_stiffness_acts_linearly_on_error():
    q = np.array([1.2, -0.9])
    x_des = tb.hip_position(q, P) + np.array([0.03, -0.02])

    def tau(kp):
        return np.array(tb._osc_tau(*q, 0.0, 0.0, *x_des, 0.0, 0.0, 0.0, 0.0,
                                    tb.TaskGains(kp=(kp, kp)), P,
                                    tb._leg_dynamics(P))[:2])

    base, one, two = tau(0.0), tau(400.0), tau(800.0)
    np.testing.assert_allclose(two - base, 2.0 * (one - base),
                               rtol=1e-12, atol=1e-12)


def test_task_gain_validation():
    with pytest.raises(ValueError):
        tb.TaskGains(kp=(100.0,))
    with pytest.raises(ValueError):
        tb.TaskGains(kd=(-1.0, 10.0))


# ------------------------------------------------------------- trajectories

def test_sine_trajectory_validation():
    with pytest.raises(ValueError):
        tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.1), freq_hz=0.0)
    with pytest.raises(ValueError):
        tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.1),
                          freq_hz=1.0, ramp_s=-1.0)


def test_bspline_lift_is_rest_to_rest():
    bs = tb.BSplineTrajectory.vertical_lift((0.2, 0.4), 0.2, 2.0)
    pos, vel, _ = bs.sample(np.array([0.0, 2.0, 2.5]))
    np.testing.assert_allclose(pos[0], [0.2, 0.4], atol=1e-9)
    np.testing.assert_allclose(pos[1], [0.2, 0.6], atol=1e-9)
    np.testing.assert_allclose(pos[2], [0.2, 0.6], atol=1e-9)  # holds the end
    np.testing.assert_allclose(vel[0], 0.0, atol=1e-9)
    np.testing.assert_allclose(vel[1], 0.0, atol=1e-9)
    np.testing.assert_allclose(vel[2], 0.0, atol=1e-9)
    with pytest.raises(ValueError):
        tb.BSplineTrajectory(((0.2, 0.4), (0.2, 0.5)), 2.0)
    with pytest.raises(ValueError):
        tb.BSplineTrajectory(((0.2, 0.4), (0.2, 0.5), (0.2, 0.6)), 0.0)


def _scipy_bspline_sample(traj, t):
    """BSplineTrajectory.sample written with scipy.interpolate.BSpline."""
    interpolate = pytest.importorskip("scipy.interpolate")
    pts, duration, k = traj.control_points, traj.duration_s, 2
    inner = np.linspace(0.0, duration, len(pts) - k + 1)
    knots = np.concatenate([[0.0] * k, inner, [duration] * k])
    spl = interpolate.BSpline(knots, pts, k, extrapolate=False)
    tc = np.clip(t, 0.0, duration)
    pos, vel, acc = spl(tc), spl.derivative(1)(tc), spl.derivative(2)(tc)
    vel[t > duration] = 0.0
    acc[t > duration] = 0.0
    return pos, vel, acc


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                min_size=3, max_size=8),
       st.floats(0.05, 3.0))
def test_bspline_equals_scipy_bit_for_bit(points, duration):
    traj = tb.BSplineTrajectory(points, duration)
    t = np.arange(int((duration + 0.2) / 1e-3)) * 1e-3
    for got, want in zip(traj.sample(t), _scipy_bspline_sample(traj, t)):
        assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------- simulation

def test_zero_amplitude_regulation_holds_position():
    traj = tb.SineTrajectory(center=(0.2, 0.55), amplitude=(0.0, 0.0),
                             freq_hz=1.0)
    tr = tb.simulate_osc(traj, 10.0, "ideal_torque", 2.0)
    assert tr.max_tracking_error() < 1e-4
    assert tr.saturation_count == 0


def test_error_dynamics_follow_the_commanded_gains():
    # released from a 1 cm offset under ideal torque, each axis follows
    # the second-order law set by (kp, kd) within 5 percent
    kp, kd = 625.0, 40.0
    center = np.array([0.2, 0.5])
    traj = tb.SineTrajectory(center=tuple(center), amplitude=(0.0, 0.0),
                             freq_hz=1.0)
    q0 = tb.inverse_kinematics(center + np.array([0.01, 0.0]), P)
    tr = tb.simulate_osc(traj, 0.0, "ideal_torque", 0.6,
                         task_gains=tb.TaskGains(kp=(kp, kp), kd=(kd, kd)),
                         q_init=q0)
    ex = tr.x[:, 0] - center[0]
    wn = math.sqrt(kp)
    z = kd / (2.0 * wn)
    wd = wn * math.sqrt(1.0 - z * z)
    t = tr.t
    ana = ex[0] * np.exp(-z * wn * t) * (np.cos(wd * t)
                                         + z * wn / wd * np.sin(wd * t))
    mask = t <= 0.3
    assert np.max(np.abs(ex[mask] - ana[mask])) < 0.05 * abs(ex[0])
    # the other axis stays decoupled
    assert np.max(np.abs(tr.x[mask, 1] - center[1])) < 1e-4


def test_anisotropic_stiffness_shapes_the_compliance():
    traj = tb.SineTrajectory(center=(0.2, 0.55), amplitude=(0.0, 0.0),
                             freq_hz=1.0)
    gains = tb.TaskGains(kp=(25.0, 625.0), kd=(10.0, 50.0))

    def deflection(axis):
        def push(t):
            f = 50.0 if t > 1.0 else 0.0
            return (f, 0.0) if axis == 0 else (0.0, f)

        tr = tb.simulate_osc(traj, 10.0, "ideal_torque", 4.0,
                             task_gains=gains, external_force=push)
        return float(np.max(np.abs((tr.x - tr.x_des)[:, axis])))

    soft = deflection(0)
    stiff = deflection(1)
    assert soft / stiff > 5.0


def test_trajectory_leaving_the_workspace_is_refused():
    traj = tb.SineTrajectory(center=(0.0, 0.75), amplitude=(0.0, 0.1),
                             freq_hz=1.0)
    with pytest.raises(tb.WorkspaceViolation, match="radius"):
        tb.simulate_osc(traj, 10.0, "ideal_torque", 1.0)


def test_simulate_osc_argument_guards():
    traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.05),
                             freq_hz=1.0)
    with pytest.raises(ValueError):
        tb.simulate_osc(traj, 10.0, "open_loop", 1.0)
    with pytest.raises(ValueError):
        tb.simulate_osc(traj, 10.0, "ideal_torque", 0.0)


@pytest.mark.parametrize("run", ["force_tracking", "ideal_torque",
                                 "cascaded_vlca"])
def test_loop_state_is_plain_floats(monkeypatch, run):
    # every value the controllers and the leg's period map take and return
    # is a Python float, not a numpy scalar
    calls = {"step": [], "advance": []}
    step = simkit.DiscreteForceController.step
    period_map = tb.leg_period_map

    def spy_step(self, *args):
        out = step(self, *args)
        calls["step"].append((*args, out))
        return out

    def spy_map(*args, **kwargs):
        advance = period_map(*args, **kwargs)

        def spy_advance(state, *args):
            out = advance(state, *args)
            calls["advance"].append((*state, *args, *out))
            return out
        return spy_advance

    monkeypatch.setattr(simkit.DiscreteForceController, "step", spy_step)
    monkeypatch.setattr(tb, "leg_period_map", spy_map)
    if run == "force_tracking":
        simkit.run_force_tracking(ControllerKind.PDM_DOB, ControllerGains(),
                                  simkit.SineRef(20.0, 5.0), 0.05)
    else:
        traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.05, 0.05),
                                 freq_hz=2.0)
        tb.simulate_osc(traj, 10.0, run, 0.05)
    assert calls["step"] or run == "ideal_torque"
    assert calls["advance"] or run == "force_tracking"
    leaked = {type(v).__name__ for seen in calls.values() for args in seen
              for v in args if type(v) is not float}
    assert not leaked


def test_trace_csv_layout():
    traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.05),
                             freq_hz=1.0)
    tr = tb.simulate_osc(traj, 10.0, "ideal_torque", 0.2)
    lines = tr.to_csv().strip().splitlines()
    assert lines[0] == tb.TESTBED_CSV_HEADER
    assert len(lines) == len(tr.t) + 1
    assert len(lines[1].split(",")) == len(lines[0].split(","))
    # a row holding NaN, -0.0 and a subnormal value, cell by cell
    tr.x[3] = (math.nan, -0.0)
    tr.q[3, 1] = 5e-324
    cells = [tr.t[3], *tr.x[3], *tr.x_des[3], *tr.q[3], *tr.tau_cmd[3],
             *tr.tau_applied[3], *tr.i_m[3], *tr.f_k[3]]
    row = tr.to_csv().splitlines()[4]
    assert row == ",".join("" if math.isnan(c) else f"{float(c):.10g}"
                           for c in cells)
    assert row.split(",")[1:3] == ["", "-0"]
    assert row.split(",")[6] == "4.940656458e-324"


# ---------------------------------------------------------- period map

def _dp5_period(params, cascaded, actuator, external_force, state, u0, u1, t):
    """One control period as leg_substeps(...) dp5_step calls on leg rates
    written from _dyn_scalars and DEFAULT_MOMENT_ARM, with the torques or
    currents and the hip force held at t."""
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

    n = tb.leg_substeps(params, cascaded, actuator)
    h = simkit.CONTROL_DT / n
    for _ in range(n):
        state = dp5_step(rates, t, state, h)
    return state


@st.composite
def leg_periods(draw):
    """A leg state, held inputs, payload and hip force for one control
    period in either mode."""
    cascaded = draw(st.booleans())
    angle, rate = st.floats(-2.4, 2.4), st.floats(-6.0, 6.0)
    state = (draw(angle), draw(angle), draw(rate), draw(rate))
    if cascaded:
        defl, vel = st.floats(-4e-4, 4e-4), st.floats(-0.05, 0.05)
        for _ in range(2):
            state += (draw(defl), draw(vel))
        u = (draw(st.floats(-31.0, 31.0)), draw(st.floats(-31.0, 31.0)))
    else:
        state += (0.0,) * 4
        u = (draw(st.floats(-300.0, 300.0)), draw(st.floats(-300.0, 300.0)))
    force = None
    if draw(st.booleans()):
        fx, fy = draw(st.floats(-200.0, 200.0)), draw(st.floats(-200.0, 200.0))

        def force(t):
            return fx * math.cos(3.0 * t), fy
    return dict(params=replace(P, payload_mass=draw(st.floats(0.0, 30.0))),
                cascaded=cascaded, external_force=force, state=state, u=u,
                t=draw(st.floats(0.0, 5.0)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(leg_periods())
def test_period_map_equals_dp5_step_bit_for_bit(case):
    args = (case["params"], case["cascaded"], VLCA_ACTUATOR,
            case["external_force"])
    got = tb.leg_period_map(*args)(case["state"], *case["u"], case["t"])
    want = _dp5_period(*args, case["state"], *case["u"], case["t"])
    assert list(map(float.hex, got)) == list(map(float.hex, want))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(leg_periods().filter(lambda case: not case["cascaded"]),
       st.tuples(*[st.floats()] * 4))
@example(dict(params=P, cascaded=False, external_force=None, t=0.0,
              state=(0.6, -1.2, 0.3, -0.4), u=(20.0, -5.0)),
         (-0.0, 5e-324, math.inf, math.nan))
def test_ideal_period_returns_the_actuator_entries_as_given(case, entries):
    # ideal mode integrates the joints only: any actuator entries, -0.0 and
    # non-finite ones included, come back bit for bit (a zero-rate stage sum
    # would turn -0.0 into 0.0) and leave the joints as from rest
    advance = tb.leg_period_map(case["params"], False, VLCA_ACTUATOR,
                                case["external_force"])
    joints = case["state"][:4]
    got = advance(joints + entries, *case["u"], case["t"])
    at_rest = advance(joints + (0.0,) * 4, *case["u"], case["t"])
    assert list(map(float.hex, got[4:])) == list(map(float.hex, entries))
    assert list(map(float.hex, got[:4])) == list(map(float.hex, at_rest[:4]))
    assert at_rest[4:] == (0.0,) * 4


# --------------------------------------------------------- step budget

def _block_growth(params, actuator, arm, q1, n):
    """Largest |R(h*lambda)| over the eigenvalues lambda of the linear
    actuator-joint block at knee angle q1, R the gain of one dp5_step of
    h = CONTROL_DT / n on y' = lambda*y. The block: the screws and joints
    (x0, x1, q0, q1) under the effective mass and the mass matrix, the
    motor drag, and the spring and its damping across each screw and its
    linkage."""
    a11, a12, a22 = _dyn_scalars(0.0, q1, 0.0, 0.0, params)[:3]
    mass = np.diag([actuator.effective_mass] * 2 + [0.0, 0.0])
    mass[2:, 2:] = [[a11, a12], [a12, a22]]
    g = np.array([[1.0, 0.0, -arm, 0.0], [0.0, 1.0, 0.0, -arm]])
    damp = (actuator.b_r * g.T @ g
            + np.diag([actuator.drivetrain_damping] * 2 + [0.0, 0.0]))
    minv = np.linalg.inv(mass)
    a = np.block([[np.zeros((4, 4)), np.eye(4)],
                  [-minv @ (actuator.k_r * g.T @ g), -minv @ damp]])
    h = simkit.CONTROL_DT / n
    return max(abs(dp5_step(lambda _t, y: (lam * y[0],), 0.0, (1.0,), h)[0])
               for lam in np.linalg.eigvals(a))


@pytest.mark.parametrize("change", [
    {}, {"b_m": 0.3}, {"b_m": 1.0}, {"b_m": 12.0}, {"b_r": 1.2e6},
    {"k_r": 5.5e8}], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items())
    or "nominal")
def test_leg_substeps_keep_the_actuator_block_stable(change):
    # the floor comes from the run's parameters: the nominal actuator needs
    # only the accuracy count, and at every payload and knee angle no mode
    # of the linear block grows over a substep
    actuator = replace(VLCA_ACTUATOR, **change)
    for payload in (0.0, 10.0, 32.5):
        params = replace(P, payload_mass=payload)
        n = tb.leg_substeps(params, True, actuator)
        assert n >= tb.LEG_SUBSTEPS["cascaded_vlca"]
        assert change or n == tb.LEG_SUBSTEPS["cascaded_vlca"]
        for q1 in np.linspace(-math.pi, math.pi, 9):
            assert _block_growth(params, actuator, DEFAULT_MOMENT_ARM, q1,
                                 n) <= 1.0 + 1e-12
    assert tb.leg_substeps(P, False, actuator) == 1


def test_heavy_motor_drag_needs_the_substep_floor():
    # at the accuracy count alone the b_m = 1 block grows, and the run dies
    actuator = replace(VLCA_ACTUATOR, b_m=1.0)
    assert _block_growth(P, actuator, DEFAULT_MOMENT_ARM, -1.0,
                         tb.LEG_SUBSTEPS["cascaded_vlca"]) > 1.0


def test_leg_substeps_have_a_ceiling():
    with pytest.raises(ValueError, match="more than 100"):
        tb.leg_substeps(P, True, replace(VLCA_ACTUATOR, b_m=1e3))
    traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.05),
                             freq_hz=1.0)
    with pytest.raises(ValueError, match="leg substeps"):
        tb.simulate_osc(traj, 10.0, "cascaded_vlca", 0.1,
                        actuator=replace(VLCA_ACTUATOR, b_r=1e9))


def test_leg_substeps_meet_error_budget(monkeypatch):
    """The rule stated at LEG_SUBSTEPS, on short runs near the paper's
    operating points: against 10 and 20 substeps, each mode's count keeps
    the tracking error within half of its 1e-3 check and the efficiency
    averages within half of their 1e-6 check, moves no joint angle by more
    than 1e-8 rad, and leaves the saturated and averaged step counts
    exact."""
    sine = tb.SineTrajectory(center=(0.18, 0.45), amplitude=(0.0, 0.16),
                             freq_hz=2.0, phase_rad=1.2)
    lift = tb.BSplineTrajectory.vertical_lift((0.18, 0.30), 0.3, 0.4)
    chosen = dict(tb.LEG_SUBSTEPS)
    for mode, traj, payload_kg, duration in (
            ("ideal_torque", sine, 10.0, 0.4),
            ("cascaded_vlca", sine, 10.0, 0.4),
            ("cascaded_vlca", lift, 32.5, 0.5)):
        def run(substeps):
            monkeypatch.setitem(tb.LEG_SUBSTEPS, mode, substeps)
            return tb.simulate_osc(traj, payload_kg, mode, duration)

        got = run(chosen[mode])
        for ref in (run(10), run(20)):
            assert np.max(np.abs(got.q - ref.q)) <= 1e-8
            assert got.max_tracking_error() == pytest.approx(
                ref.max_tracking_error(), rel=5e-4, abs=0.0)
            assert got.saturation_count == ref.saturation_count
            if traj is lift:
                a, b = powertherm.power_flow(got), powertherm.power_flow(ref)
                assert a.n_averaged == b.n_averaged
                for name in ("drivetrain_efficiency_avg",
                             "electrical_efficiency_avg"):
                    assert getattr(a, name) == pytest.approx(
                        getattr(b, name), rel=5e-7, abs=0.0)
