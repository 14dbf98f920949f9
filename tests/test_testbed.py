"""Two-link leg dynamics, linkage kinematics, and task-space control."""
import math
import sys
import traceback
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (_dyn_scalars, dp5_step, hip_jacobian, leg_period,
                     leg_run, osc_tau, total_energy)
from vlcasim import powertherm, simkit
from vlcasim import testbed as tb
from vlcasim.vlca import (ControllerGains, ControllerKind,
                          DEFAULT_MOMENT_ARM, EXPERIMENT_GAINS, VLCA_ACTUATOR)

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
    # the reference period (oracles.leg_period, which the run kernel equals
    # bit for bit), unactuated in zero gravity, for 1 s; in cascaded mode,
    # undamped and without current, the swing loads the springs from rest
    # and they trade energy with the joints and screws
    zero_g = replace(P, gravity=0.0)
    act = replace(VLCA_ACTUATOR, b_r=0.0, b_m=0.0)
    k_r, m_m = act.k_r, act.effective_mass

    def energy(s):
        return (total_energy(s[:2], s[2:4], zero_g)
                + 0.5 * k_r * (s[4] ** 2 + s[6] ** 2)
                + 0.5 * m_m * (s[5] ** 2 + s[7] ** 2))

    for cascaded, tol in ((False, 1e-6), (True, 1e-5)):
        state = (0.4, -0.8, 1.0, -0.5) + (0.0,) * 4
        e0 = energy(state)
        drift = 0.0
        for k in range(1000):
            state = leg_period(zero_g, cascaded, act, None, state, 0.0, 0.0,
                               k * simkit.CONTROL_DT)
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

def _kernel_run(rows, state, params=P, cascaded=False, gains=tb.TaskGains(),
                force_gains=EXPERIMENT_GAINS, external_force=None):
    """len(rows) periods of the run kernel (testbed._leg_run) from state,
    as tests/oracles.leg_run returns its loop, the state after the last
    period among the states, and the kernel's error first: (error, states,
    torques, held inputs, saturated, damped)."""
    force = simkit.force_law_constants(ControllerKind.PDM_DOB, VLCA_ACTUATOR,
                                       force_gains)
    _, run = tb._leg_run(params, cascaded, VLCA_ACTUATOR, gains, force,
                         external_force)
    states, taus, cmds = [], [], [[0.0] * force["delay"] for _ in range(2)]
    error, singular, saturated = run(rows, states, taus, *cmds, *state)
    taus = list(zip(taus[::2], taus[1::2]))
    held = list(zip(*cmds))[:len(rows)] if cascaded else taus
    return (error, [tuple(states[i:i + 8]) for i in range(0, len(states), 8)],
            taus, held, saturated, singular)


def _law(gains, params, q0, q1, w0, w1, *target):
    """(tau0, tau1, damped): the law at the joint state and the desired hip
    position, velocity and acceleration, as one ideal period of the run
    kernel records it."""
    state = (*map(float, (q0, q1, w0, w1)), 0.0, 0.0, 0.0, 0.0)
    _, _, (tau,), _, _, damped = _kernel_run([tuple(map(float, target))],
                                             state, params, gains=gains)
    return (*tau, damped == 1)


def test_rest_on_target_commands_gravity_support():
    q = np.array([1.2, -0.9])
    x_here = tb.hip_position(q, P)
    *tau, damped = _law(tb.TaskGains(), P, *q, 0.0, 0.0, *x_here,
                        0.0, 0.0, 0.0, 0.0)
    want = _terms(q, (0.0, 0.0), P)[2]
    np.testing.assert_allclose(tau, want, atol=1e-9)
    assert not damped


def test_osc_torque_is_the_computed_torque_law():
    # away from the singular band the kernel is M J^-1 (a - Jdot qdot) + b + g
    # with a = xdd_des + kp (x_des - x) + kd (xd_des - J qdot)
    rng = np.random.default_rng(17)
    gains = tb.TaskGains(kp=(625.0, 400.0), kd=(40.0, 30.0))
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
        *tau, damped = _law(gains, P, *q, *qdot, *x_des, *xd_des, *xdd_des)
        assert not damped
        np.testing.assert_allclose(tau, want, rtol=1e-9, atol=1e-9)


def test_crouch_torques_stay_inside_the_joint_rating():
    p23 = tb.TwoDofParams(payload_mass=23.0)
    q = tb.inverse_kinematics((0.15, 0.45), p23)
    *tau, _ = _law(tb.TaskGains(), p23, *q, 0.0, 0.0,
                   *tb.hip_position(q, p23), 0.0, 0.0, 0.0, 0.0)
    assert np.max(np.abs(tau)) < 270.0
    assert tau[1] == pytest.approx(89.60, abs=0.5)


def test_task_stiffness_acts_linearly_on_error():
    q = np.array([1.2, -0.9])
    x_des = tb.hip_position(q, P) + np.array([0.03, -0.02])

    def tau(kp):
        return np.array(_law(tb.TaskGains(kp=(kp, kp)), P, *q, 0.0, 0.0,
                             *x_des, 0.0, 0.0, 0.0, 0.0)[:2])

    base, one, two = tau(0.0), tau(400.0), tau(800.0)
    np.testing.assert_allclose(two - base, 2.0 * (one - base),
                               rtol=1e-12, atol=1e-12)


def _regular(case):
    """Whether the leg's mass matrix is regular at a straight and a folded
    knee, where its determinant is smallest: every leg run refuses a leg
    for which it is not (leg_substeps names it singular), and a period's
    joint solve would divide by zero."""
    return min(a11 * a22 - a12 * a12 for a11, a12, a22 in (
        _dyn_scalars(0.0, q1, 0.0, 0.0, case[0])[:3]
        for q1 in (0.0, math.pi))) > 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(legs_and_states().filter(_regular), st.sampled_from([True, False]),
       st.tuples(*[st.floats(-1.0, 1.0)] * 6),
       st.tuples(*[st.floats(0.0, 1e3)] * 4))
def test_osc_law_equals_the_reference_bit_for_bit(case, damped, targets,
                                                  gains):
    # near a straight knee (|sin q1| <= 1e-3) the law takes its damped
    # branch, since l1 l2 1e-3 < 1e-3 (l1 + l2)^2; from |q1| = 0.1 on its
    # undamped one
    params, (q0, q1, w0, w1) = case
    q1 = math.copysign(1e-3 * math.sin(q1) if damped
                       else 0.1 + abs(q1) % 2.3, q1)
    gains = tb.TaskGains(kp=gains[:2], kd=gains[2:])
    got = _law(gains, params, q0, q1, w0, w1, *targets)
    want = osc_tau(q0, q1, w0, w1, *targets, gains, params)
    assert got[2] is want[2] is damped
    assert list(map(float.hex, got[:2])) == list(map(float.hex, want[:2]))


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


@pytest.mark.parametrize("mode", ["ideal_torque", "cascaded_vlca"])
@pytest.mark.parametrize("name", ["m1", "i1"])
def test_a_stage_state_past_the_floats_is_a_divergence(mode, name):
    # the run kernel takes cos of a stage angle that has left the floats;
    # the run reports that as the divergence it is, with the cause chained
    traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.05),
                             freq_hz=1.0)
    params = replace(tb.TwoDofParams(), **{name: 1e308})
    diverged = r"^leg simulation diverged at t=0\.000 s$"
    with pytest.raises(simkit.NonFiniteState, match=diverged) as err:
        tb.simulate_osc(traj, 10.0, mode, 0.05, params=params)
    assert isinstance(err.value.__cause__, ValueError)


def test_simulate_osc_argument_guards():
    traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.05),
                             freq_hz=1.0)
    with pytest.raises(ValueError):
        tb.simulate_osc(traj, 10.0, "open_loop", 1.0)
    with pytest.raises(ValueError):
        tb.simulate_osc(traj, 10.0, "ideal_torque", 0.0)


@pytest.mark.parametrize("run", ["force_tracking", "ideal_torque",
                                 "cascaded_vlca", "force_tracking-pd_f",
                                 "force_tracking-pd_m", "force_tracking-pid_m"])
def test_loop_state_is_plain_floats(monkeypatch, run):
    # every number the run kernels take, the leg's state and run constants
    # and the force loop's, is a Python float, not a numpy scalar (a count
    # or the loop delay is an int)
    seen = []
    linear, leg = simkit._run_factory, tb._leg_kernel

    def numbers(args):
        return {type(v) for k, v in args if not (callable(v) or v is None)
                and not (k.endswith("_steps") or k in ("n", "delay"))}

    def spy_linear(*key):
        run = linear(*key)

        def spied(**args):
            seen.append(numbers(args.items()))
            return run(**args)
        return spied

    def spy_leg(m, pushed, constants):
        factory = leg(m, pushed, constants)

        def spied(*args):
            seen.append(numbers(zip(("n", "external_force", *constants),
                                    args)))
            leg_run = factory(*args)

            def spied_run(des, *arrays_and_state):
                seen.append(numbers((f"x{i}", v) for i, v in
                                    enumerate(arrays_and_state[4:])))
                seen.append({type(v) for row in des for v in row})
                return leg_run(des, *arrays_and_state)
            return spied_run
        return spied

    monkeypatch.setattr(simkit, "_run_factory", spy_linear)
    monkeypatch.setattr(tb, "_leg_kernel", spy_leg)
    if run.startswith("force_tracking"):
        # a bare "force_tracking" runs the observer
        kind = ControllerKind(run.partition("-")[2] or "pd_m_dob")
        simkit.run_force_tracking(kind, ControllerGains(),
                                  simkit.SineRef(20.0, 5.0), 0.05)
    else:
        traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.05, 0.05),
                                 freq_hz=2.0)
        tb.simulate_osc(traj, 10.0, run, 0.05)
    assert len(seen) == (1 if run.startswith("force_tracking") else 3)
    assert seen == [{float}] * len(seen)


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


# ---------------------------------------------------------- run kernel

@st.composite
def leg_runs(draw):
    """A few control periods in either mode from a drawn state, in some
    draws on the damped branch (|sin q1| <= 1e-3): the desired rows, the
    payload, task gains, force-loop delay and hip force."""
    cascaded = draw(st.booleans())
    angle, rate = st.floats(-2.4, 2.4), st.floats(-6.0, 6.0)
    q0, q1 = draw(angle), draw(angle)
    if draw(st.booleans()):
        q1 = 1e-3 * math.sin(q1)
    state = (q0, q1, draw(rate), draw(rate))
    if cascaded:
        defl, vel = st.floats(-4e-4, 4e-4), st.floats(-0.05, 0.05)
        for _ in range(2):
            state += (draw(defl), draw(vel))
    else:
        state += (0.0,) * 4
    force = None
    if draw(st.booleans()):
        fx, fy = draw(st.floats(-200.0, 200.0)), draw(st.floats(-200.0, 200.0))

        def force(t):
            return fx * math.cos(3.0 * t), fy
    gain = st.floats(0.0, 1e3)
    return dict(
        rows=draw(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 6),
                           min_size=1, max_size=3)),
        state=state, params=replace(P, payload_mass=draw(st.floats(0.0, 30.0))),
        cascaded=cascaded,
        gains=tb.TaskGains(kp=(draw(gain), draw(gain)),
                           kd=(draw(gain), draw(gain))),
        force_gains=replace(EXPERIMENT_GAINS,
                            delay_t=draw(st.sampled_from([0.0, 1e-3]))),
        external_force=force)


def _hexes(rows):
    return [list(map(float.hex, row)) for row in rows]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(leg_runs())
def test_the_run_kernel_equals_the_leg_oracle_from_drawn_states(case):
    # the law, both joints' force loops (a delay of 0 ms acts on the first
    # period's command), the substeps and the recording, against osc_tau,
    # the four-class force controllers and dp5_step; the state after the
    # last period is one more oracle period from the last start
    error, states, taus, held, saturated, damped = _kernel_run(**case)
    want = leg_run(case["params"], case["cascaded"], VLCA_ACTUATOR,
                   case["gains"], case["force_gains"], case["rows"],
                   case["state"], case["external_force"])
    last = leg_period(case["params"], case["cascaded"], VLCA_ACTUATOR,
                      case["external_force"], want[0][-1], *want[2][-1],
                      (len(case["rows"]) - 1) * simkit.CONTROL_DT)
    assert error is None
    assert _hexes(states) == _hexes([*want[0], last])
    assert _hexes(taus) == _hexes(want[1])
    assert _hexes(held) == _hexes(want[2])
    assert (saturated, damped) == want[3:]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(leg_runs().filter(lambda case: not case["cascaded"]),
       st.tuples(*[st.floats()] * 4))
@example(dict(rows=[(0.2, 0.5, 0.0, 0.0, 0.0, 0.0)] * 3,
              state=(0.6, -1.2, 0.3, -0.4) + (0.0,) * 4, params=P,
              cascaded=False, gains=tb.TaskGains(),
              force_gains=EXPERIMENT_GAINS, external_force=None),
         (-0.0, 5e-324, math.inf, math.nan))
def test_ideal_period_returns_the_actuator_entries_as_given(case, entries):
    # ideal mode integrates the joints only: any actuator entries, -0.0 and
    # non-finite ones included, are recorded bit for bit in every row (a
    # zero-rate stage sum would turn -0.0 into 0.0) and leave the joints as
    # from rest
    joints = case["state"][:4]
    got = _kernel_run(**{**case, "state": joints + entries})[1]
    at_rest = _kernel_run(**{**case, "state": joints + (0.0,) * 4})[1]
    assert _hexes(row[4:] for row in got) == _hexes([entries] * len(got))
    assert _hexes(row[:4] for row in got) == _hexes(row[:4] for row in at_rest)
    assert [row[4:] for row in at_rest] == [(0.0,) * 4] * len(at_rest)


@pytest.mark.parametrize("pushed", [False, True], ids=["free", "pushed"])
@pytest.mark.parametrize("cascaded", [False, True], ids=["ideal", "cascaded"])
def test_a_period_is_one_python_call(cascaded, pushed):
    # a second run, at another payload, compiles no kernel: each kernel's
    # constants arrive as arguments (that a run makes no Python call but
    # the hip force is test_a_leg_run_is_one_kernel_call)
    def push(t):
        return 10.0 * math.cos(t), -5.0

    force = push if pushed else None
    mode = "cascaded_vlca" if cascaded else "ideal_torque"
    traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.05, 0.05),
                             freq_hz=2.0)
    kernels = (tb._leg_kernel, tb._dyn_factory, simkit._run_factory)
    tb.simulate_osc(traj, 10.0, mode, 0.01, external_force=force)
    misses = [kernel.cache_info().misses for kernel in kernels]
    tb.simulate_osc(traj, 23.0, mode, 0.01, external_force=force)
    assert [kernel.cache_info().misses for kernel in kernels] == misses


def _leg_run_case(mode, payload_kg=10.0, duration=0.2, force=None):
    """A short sine run and the oracle's loop over the same inputs."""
    traj = tb.SineTrajectory(center=(0.18, 0.45), amplitude=(0.03, 0.12),
                             freq_hz=2.0, phase_rad=1.2)
    got = tb.simulate_osc(traj, payload_kg, mode, duration,
                          external_force=force)
    params = replace(P, payload_mass=payload_kg)
    pos, vel, acc = traj.sample(got.t)
    state = (*got.q[0].tolist(), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    cascaded = mode == "cascaded_vlca"
    if cascaded:
        g1, g2 = _dyn_scalars(*state[:2], 0.0, 0.0, params)[5:]
        r, k_r = DEFAULT_MOMENT_ARM, VLCA_ACTUATOR.k_r
        state = (*state[:4], (g1 / r) / k_r, 0.0, (g2 / r) / k_r, 0.0)
    want = leg_run(params, cascaded, VLCA_ACTUATOR, tb.TaskGains(),
                   EXPERIMENT_GAINS, np.hstack((pos, vel, acc)).tolist(),
                   state, force)
    return got, want


@pytest.mark.parametrize("pushed", [False, True], ids=["free", "pushed"])
@pytest.mark.parametrize("mode", ["ideal_torque", "cascaded_vlca"])
def test_a_leg_run_equals_the_oracle_loop_bit_for_bit(mode, pushed):
    # the law, both joints' force loops with their delay and clip, the
    # substeps and the recording, against osc_tau, the four-class force
    # controllers and dp5_step, period by period; the heavy payload
    # saturates the cascaded run
    def push(t):
        return 15.0 * math.cos(7.0 * t), -20.0

    got, (states, taus, held, saturated, damped) = _leg_run_case(
        mode, payload_kg=30.0, force=push if pushed else None)
    hexes = np.vectorize(float.hex)
    assert (hexes(np.hstack((got.q, got.qdot))).tolist()
            == hexes(np.array(states)[:, :4]).tolist())
    assert hexes(got.tau_cmd).tolist() == hexes(np.array(taus)).tolist()
    applied = got.i_m if mode == "cascaded_vlca" else got.tau_applied
    assert hexes(applied).tolist() == hexes(np.array(held)).tolist()
    if mode == "cascaded_vlca":
        f_k = VLCA_ACTUATOR.k_r * np.array(states)[:, 4::2]
        assert hexes(got.f_k).tolist() == hexes(f_k).tolist()
        assert saturated > 0
    assert (got.saturation_count, got.singular_count) == (saturated, damped)


@pytest.mark.parametrize("mode", ["ideal_torque", "cascaded_vlca"])
def test_a_hip_force_error_is_not_a_divergence(mode):
    # only the kernel's own arithmetic maps to NonFiniteState: the hip
    # force's exceptions reach the caller as they are
    class TableEnd(ValueError):
        pass

    def table(t):
        if t > 0.0105:
            raise TableEnd(f"no force past t={t:.3f} s")
        return 5.0, -3.0

    traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.05),
                             freq_hz=1.0)
    with pytest.raises(TableEnd, match=r"^no force past t=0\.011 s$"):
        tb.simulate_osc(traj, 10.0, mode, 0.05, external_force=table)


@pytest.mark.parametrize("pushed", [False, True], ids=["free", "pushed"])
@pytest.mark.parametrize("cascaded", [False, True], ids=["ideal", "cascaded"])
def test_a_leg_run_is_one_kernel_call(cascaded, pushed):
    # the whole run is its kernel: one call, which calls no Python function
    # but the hip force, once a period
    def push(t):
        return 10.0 * math.cos(t), -5.0

    traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.05, 0.05),
                             freq_hz=2.0)
    mode = "cascaded_vlca" if cascaded else "ideal_torque"
    kernel = f"<testbed._leg_kernel m={8 if cascaded else 4} pushed={pushed} run>"
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            calls.append((frame.f_back.f_code.co_filename,
                          frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        tb.simulate_osc(traj, 10.0, mode, 0.01,
                        external_force=push if pushed else None)
    finally:
        sys.setprofile(None)
    assert [name for _, file, name in calls if file == kernel] == ["factory",
                                                                   "run"]
    assert [name for file, _, name in calls if file == kernel] == (
        ["push"] * 10 * pushed)


def test_a_leg_run_kernel_traceback_shows_its_generated_line():
    # a hip force that is no number fails on the kernel's line that reads it
    traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.05),
                             freq_hz=1.0)
    with pytest.raises(TypeError) as info:
        tb.simulate_osc(traj, 10.0, "ideal_torque", 0.01,
                        external_force=lambda t: (None, 0.0))
    last = traceback.extract_tb(info.value.__traceback__)[-1]
    assert last.filename == "<testbed._leg_kernel m=4 pushed=True run>"
    assert last.name == "run"
    assert last.line == ("te0 = (-l1 * sin(x0) - l2 * s01) * fx"
                         " + (l1 * c0 + l2 * c01) * fy")


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


@pytest.mark.parametrize("change", [
    {"i2": 0.0, "c2": 0.0}, {"i1": 0.0, "c1": 0.0, "i2": 0.0}],
    ids=["no-knee-inertia", "massless-shank"])
@pytest.mark.parametrize("mode", ["ideal_torque", "cascaded_vlca"])
def test_a_singular_mass_matrix_is_refused_by_name(change, mode):
    # without a payload, neither leg resists turning about a straight or a
    # folded knee: the first at every knee angle, the second there only
    params = replace(P, payload_mass=0.0, **change)
    with pytest.raises(ValueError, match="^i2 = 0 makes the leg's mass "
                                         "matrix singular"):
        tb.leg_substeps(params, True, VLCA_ACTUATOR)
    traj = tb.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.05),
                             freq_hz=1.0)
    with pytest.raises(ValueError, match="^i2 = 0"):
        tb.simulate_osc(traj, 0.0, mode, 0.1, params=params)


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
