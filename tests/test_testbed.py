"""Two-link leg dynamics, linkage kinematics, and task-space control."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import hip_jacobian, total_energy
from vlcasim import powertherm, simkit
from vlcasim import testbed as tb
from vlcasim.vlca import DEFAULT_MOMENT_ARM, VLCA_ACTUATOR

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
    """(mass matrix, velocity product, gravity) from tb._dyn_scalars."""
    a11, a12, a22, b1, b2, g1, g2 = tb._dyn_scalars(q[0], q[1], qdot[0],
                                                    qdot[1], params)
    return (np.array([[a11, a12], [a12, a22]]), np.array([b1, b2]),
            np.array([g1, g2]))


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
    # the leg's own period map, unactuated in zero gravity, for 1 s
    zero_g = replace(P, gravity=0.0)
    advance = tb.leg_period_map(zero_g, False, VLCA_ACTUATOR,
                                tb.LinkageProfile.constant(DEFAULT_MOMENT_ARM))
    state = (0.4, -0.8, 1.0, -0.5)
    e0 = total_energy(state[:2], state[2:], zero_g)
    drift = 0.0
    for k in range(1000):
        state = advance(state, 0.0, 0.0, k * simkit.CONTROL_DT)
        drift = max(drift, abs(total_energy(state[:2], state[2:], zero_g) - e0))
    assert drift <= 1e-6 * abs(e0)


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


# ------------------------------------------------------------------ linkage

# a nonconstant profile: the linkage gains leverage as the joint flexes
CROUCH_BIASED = tb.LinkageProfile(
    angles_rad=(-2.6, -1.3, 0.0, 1.3, 2.6),
    arms_m=(0.0540, 0.0500, 0.0458, 0.0500, 0.0540))


def test_linkage_rated_point():
    arm = tb.LinkageProfile.constant(DEFAULT_MOMENT_ARM).arm(0.0)
    assert arm * 5900.0 == 270.0
    assert 91.0 / arm == pytest.approx(1988.5, abs=1.0)


def test_linkage_profile_validation():
    with pytest.raises(ValueError):
        tb.LinkageProfile((0.0, 0.0, 1.0), (0.04, 0.04, 0.04))
    with pytest.raises(ValueError):
        tb.LinkageProfile((0.0, 1.0), (0.04, 0.06))  # 50 percent jump
    with pytest.raises(ValueError):
        tb.LinkageProfile((0.0,), (0.04,))
    prof = CROUCH_BIASED
    with pytest.raises(tb.OutOfRange):
        prof.arm(prof.angles_rad[-1] + 0.5)


# -------------------------------------------------------------- osc control

def test_rest_on_target_commands_gravity_support():
    q = np.array([1.2, -0.9])
    x_here = tb.hip_position(q, P)
    *tau, damped = tb._osc_tau(*q, 0.0, 0.0, *x_here, 0.0, 0.0, 0.0, 0.0,
                               tb.TaskGains(), P)
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
        *tau, damped = tb._osc_tau(*q, *qdot, *x_des, *xd_des, *xdd_des,
                                   gains, P)
        assert not damped
        np.testing.assert_allclose(tau, want, rtol=1e-9, atol=1e-9)


def test_crouch_torques_stay_inside_the_joint_rating():
    p23 = tb.TwoDofParams(payload_mass=23.0)
    q = tb.inverse_kinematics((0.15, 0.45), p23)
    *tau, _ = tb._osc_tau(*q, 0.0, 0.0, *tb.hip_position(q, p23),
                          0.0, 0.0, 0.0, 0.0, tb.TaskGains(), p23)
    assert np.max(np.abs(tau)) < 270.0
    assert tau[1] == pytest.approx(89.60, abs=0.5)


def test_task_stiffness_acts_linearly_on_error():
    q = np.array([1.2, -0.9])
    x_des = tb.hip_position(q, P) + np.array([0.03, -0.02])

    def tau(kp):
        return np.array(tb._osc_tau(*q, 0.0, 0.0, *x_des, 0.0, 0.0, 0.0, 0.0,
                                    tb.TaskGains(kp=(kp, kp)), P)[:2])

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

def _rk4_period(params, cascaded, actuator, profile, external_force,
                state, u0, u1, t):
    """One control period as LEG_SUBSTEPS[mode] simkit.rk4_step calls on
    leg rates written from _dyn_scalars and LinkageProfile.arm, with the
    torques or currents and the hip force held at t."""
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
            x0, v0, ll0, x1, v1, ll1 = y[4:]
            r0, r1 = profile.arm(a), profile.arm(b)
            ld0, ld1 = r0 * wa, r1 * wb
            f0 = k_r * (x0 - ll0) + b_r * (v0 - ld0)
            f1 = k_r * (x1 - ll1) + b_r * (v1 - ld1)
            t0, t1 = r0 * f0, r1 * f1
        else:
            t0, t1 = u0, u1
        a11, a12, a22, b1, b2, g1, g2 = tb._dyn_scalars(a, b, wa, wb, params)
        det = a11 * a22 - a12 * a12
        r_0 = t0 - b1 - g1 + te0
        r_1 = t1 - b2 - g2 + te1
        wd0 = (a22 * r_0 - a12 * r_1) / det
        wd1 = (a11 * r_1 - a12 * r_0) / det
        if not cascaded:
            return wa, wb, wd0, wd1
        vd0 = (n_drive * u0 - b_dt * v0 - f0) / m_m
        vd1 = (n_drive * u1 - b_dt * v1 - f1) / m_m
        return wa, wb, wd0, wd1, v0, vd0, ld0, v1, vd1, ld1

    n = tb.LEG_SUBSTEPS["cascaded_vlca" if cascaded else "ideal_torque"]
    h = simkit.CONTROL_DT / n
    for _ in range(n):
        state = simkit.rk4_step(rates, t, state, h)
    return state


PROFILES = {"crouch_biased": CROUCH_BIASED,
            "constant": tb.LinkageProfile.constant(0.05)}


@st.composite
def leg_periods(draw):
    """A leg state, held inputs, payload, profile and hip force for one
    control period in either mode."""
    cascaded = draw(st.booleans())
    angle, rate = st.floats(-2.4, 2.4), st.floats(-6.0, 6.0)
    state = (draw(angle), draw(angle), draw(rate), draw(rate))
    if cascaded:
        pos, vel = st.floats(-2e-4, 2e-4), st.floats(-0.05, 0.05)
        for _ in range(2):
            state += (draw(pos), draw(vel), draw(pos))
        u = (draw(st.floats(-31.0, 31.0)), draw(st.floats(-31.0, 31.0)))
    else:
        u = (draw(st.floats(-300.0, 300.0)), draw(st.floats(-300.0, 300.0)))
    force = None
    if draw(st.booleans()):
        fx, fy = draw(st.floats(-200.0, 200.0)), draw(st.floats(-200.0, 200.0))

        def force(t):
            return fx * math.cos(3.0 * t), fy
    return dict(params=replace(P, payload_mass=draw(st.floats(0.0, 30.0))),
                cascaded=cascaded,
                profile=PROFILES[draw(st.sampled_from(sorted(PROFILES)))],
                external_force=force, state=state, u=u,
                t=draw(st.floats(0.0, 5.0)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(leg_periods())
def test_period_map_equals_rk4_step_bit_for_bit(case):
    args = (case["params"], case["cascaded"], VLCA_ACTUATOR, case["profile"],
            case["external_force"])
    got = tb.leg_period_map(*args)(case["state"], *case["u"], case["t"])
    want = _rk4_period(*args, case["state"], *case["u"], case["t"])
    assert list(map(float.hex, got)) == list(map(float.hex, want))


def test_period_map_checks_the_range_of_a_constant_profile():
    # the first stage leaves [-1, 1]: the joint starts 1e-6 rad inside it
    # and turns outwards at 1 rad/s
    profile = tb.LinkageProfile.constant(0.05, -1.0, 1.0)
    advance = tb.leg_period_map(P, True, VLCA_ACTUATOR, profile)
    state = (1.0 - 1e-6, -0.5, 1.0, 0.0) + (0.0,) * 6
    with pytest.raises(tb.OutOfRange):
        advance(state, 0.0, 0.0, 0.0)
    with pytest.raises(tb.OutOfRange):
        _rk4_period(P, True, VLCA_ACTUATOR, profile, None, state, 0.0, 0.0,
                    0.0)


# --------------------------------------------------------- step budget

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
