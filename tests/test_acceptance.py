"""Acceptance gate: every release criterion, one verdict line each.

Each test exercises a full pipeline through the public API, prints a
single "criterion N: PASS/FAIL" line with the measured numbers, and
asserts the stated tolerance and runtime budget.  A criterion that the
model genuinely cannot meet stays red here rather than being loosened.
"""
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import (_dyn_scalars, dp5_step, locked_plant_rates,
                     plant_energy, total_energy)
from vlcasim import elastomat, lintf, powertherm, simkit, testbed, vlca
from vlcasim.vlca import (ControllerGains, ControllerKind, VLCA_ACTUATOR,
                          DEFAULT_MOMENT_ARM, force_plant, open_loop_tf)

CRITERION_LINES = []


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_1_margin_calibration_grid():
    t0 = time.perf_counter()
    cal = vlca.calibrate_margins(VLCA_ACTUATOR, ControllerGains())
    elapsed = time.perf_counter() - t0
    hit_targets = cal.objective_deg <= 3.0
    dob_beats_pidm = cal.pm_pdm_dob_deg > cal.pm_pidm_deg
    ok = hit_targets and dob_beats_pidm and elapsed < 60.0
    _verdict(1, ok,
             f"best grid point delay={cal.delay_t * 1e3:.3g} ms, "
             f"fd={cal.q_d_cutoff / (2 * math.pi):.3g} Hz gives "
             f"PM(pd_f)={cal.pm_pdf_deg:.2f} deg vs 17.1+-3, "
             f"PM(pd_m)={cal.pm_pdm_deg:.2f} deg vs 47.6+-3, "
             f"PM(pd_m_dob)={cal.pm_pdm_dob_deg:.2f} > "
             f"PM(pid_m)={cal.pm_pidm_deg:.2f}: {dob_beats_pidm}, "
             f"{elapsed:.1f} s")


def test_criterion_2_plant_identity_analytic_and_empirical():
    t0 = time.perf_counter()
    params = VLCA_ACTUATOR
    fp = force_plant(params)
    c = fp.den.coefficients
    wn = math.sqrt(c[0] / c[2])
    dc = fp.dc_gain()
    res_ok = abs(wn - 114.6) / 114.6 <= 0.005
    dc_ok = abs(dc - 1.0) <= 1e-9

    chirp = simkit.ChirpRef(amplitude=2.0, f0_hz=0.5, f1_hz=150.0,
                            duration_s=120.0)
    pts = simkit.empirical_frequency_response(
        simkit.run_plant_chirp(simkit.chirp_drive(chirp)))
    worst_mag, worst_ph, n_band = 0.0, 0.0, 0
    for p in pts:
        f_hz = p.omega / (2.0 * math.pi)
        if not 1.0 <= f_hz <= 100.0:
            continue
        n_band += 1
        h = fp.eval(p.omega)
        worst_mag = max(worst_mag, abs(p.magnitude - abs(h)) / abs(h))
        worst_ph = max(worst_ph, abs(p.phase_deg - math.degrees(np.angle(h))))
    emp_ok = n_band >= 30 and worst_mag <= 0.10 and worst_ph <= 5.0
    elapsed = time.perf_counter() - t0
    ok = res_ok and dc_ok and emp_ok and elapsed < 120.0
    _verdict(2, ok,
             f"resonance {wn:.4f} rad/s vs 114.6 +- 0.5%, |dc-1|={abs(dc - 1.0):.1e}, "
             f"chirp worst mag err {worst_mag * 100:.2f}% / phase "
             f"{worst_ph:.2f} deg over {n_band} points in [1,100] Hz, "
             f"{elapsed:.1f} s")


def test_criterion_3_full_scale_ramp_tracking():
    t0 = time.perf_counter()
    gains = vlca.EXPERIMENT_GAINS
    f_lo = 1.0 / DEFAULT_MOMENT_ARM
    f_hi = 25.0 / DEFAULT_MOMENT_ARM
    ramp = simkit.RampRef(start_level=f_lo, end_level=f_hi, start_time=0.2,
                          ramp_time=0.1)
    tr = simkit.run_force_tracking(ControllerKind.PDM_DOB, gains, ramp, 1.5)
    peak_err = float(np.max(np.abs(tr.f_cmd - tr.f_meas))) / f_hi
    overshoot = (float(np.max(tr.f_meas)) - f_hi) / f_hi
    elapsed = time.perf_counter() - t0
    ok = peak_err < 0.05 and overshoot < 0.10 and elapsed < 10.0
    _verdict(3, ok,
             f"0.1 s ramp to full scale: max error {peak_err * 100:.2f}% "
             f"(< 5%), overshoot {overshoot * 100:.2f}% (< 10%), "
             f"{elapsed:.1f} s")


def test_criterion_4_elastomer_beats_steel_spring():
    t0 = time.perf_counter()
    metrics = {}
    for element in ("elastomer", "steel_spring"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", simkit.SaturationWarning)
            tr = simkit.run_joint_position_control(element)
        metrics[element] = (tr.meta["settling_time_s"],
                            tr.meta["overshoot_frac"])
    settle_e, over_e = metrics["elastomer"]
    settle_s, over_s = metrics["steel_spring"]
    elapsed = time.perf_counter() - t0
    ok = settle_e < settle_s and over_e < over_s and elapsed < 10.0
    _verdict(4, ok,
             f"identical position gains: settling {settle_e:.3f} s vs "
             f"{settle_s:.3f} s, overshoot {over_e * 100:.2f}% vs "
             f"{over_s * 100:.2f}%, {elapsed:.1f} s")


def test_criterion_5_impact_peaks_and_deflection():
    t0 = time.perf_counter()
    tv = simkit.run_impact(simkit.ImpactConfig(grounding="viscoelastic"))
    tr = simkit.run_impact(simkit.ImpactConfig(grounding="rigid"))
    peak_v = float(np.max(tv.f_loadcell))
    peak_r = float(np.max(tr.f_loadcell))
    peak_gap = abs(peak_v - peak_r) / peak_r
    defl_v = float(np.max(np.abs(tv.x_r)))
    defl_r = float(np.max(np.abs(tr.x_r)))
    elapsed = time.perf_counter() - t0
    ok = peak_gap < 0.15 and defl_v > 10.0 * defl_r and elapsed < 5.0
    _verdict(5, ok,
             f"identical impulse: peak gap {peak_gap * 100:.3f}% (< 15%), "
             f"deflection {defl_v:.2e} m vs rigid {defl_r:.2e} m, "
             f"{elapsed:.1f} s")


def test_criterion_6_operational_space_tracking():
    t0 = time.perf_counter()
    traj = testbed.SineTrajectory(center=(0.2, 0.5), amplitude=(0.0, 0.15),
                                  freq_hz=1.7, ramp_s=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", simkit.SaturationWarning)
        err_ideal = testbed.simulate_osc(traj, 10.0, "ideal_torque",
                                         5.0).max_tracking_error()
        err_casc = testbed.simulate_osc(traj, 10.0, "cascaded_vlca",
                                        5.0).max_tracking_error()
    elapsed = time.perf_counter() - t0
    ok = err_ideal < 0.025 and err_casc < 2.0 * err_ideal and elapsed < 60.0
    _verdict(6, ok,
             f"1.7 Hz, 0.3 m vertical sine, 10 kg payload: ideal "
             f"{err_ideal:.4f} m (< 0.025), cascaded {err_casc:.4f} m "
             f"({err_casc / err_ideal:.2f}x < 2x), {elapsed:.1f} s")


def test_criterion_7_thermal_calibration_targets():
    t0 = time.perf_counter()
    act = VLCA_ACTUATOR
    report = powertherm.calibrate_thermal(act)
    params = report.params
    lim_on = powertherm.continuous_force_limit(params, act,
                                               cooling_on=True).current_a
    lim_off = powertherm.continuous_force_limit(params, act,
                                                cooling_on=False).current_a
    ratio = lim_on / lim_off
    i_hold = 860.0 / act.drive_constant
    hold = powertherm.simulate_constant_current(i_hold, 2500.0, params,
                                                dt=0.01)
    settle = float(hold.t_winding[-1])
    burst = powertherm.simulate_constant_current(31.0, 0.5, params)
    peak = float(np.max(burst.t_winding))
    elapsed = time.perf_counter() - t0
    ok = (abs(ratio - 3.59) / 3.59 < 0.01 and abs(settle - 115.0) <= 3.0
          and abs(peak - 107.0) <= 5.0 and elapsed < 60.0)
    _verdict(7, ok,
             f"continuous-current ratio {ratio:.4f} vs 3.59 +- 1%, hold "
             f"settles at {settle:.2f} C vs 115 +- 3, burst peak "
             f"{peak:.2f} C vs 107 +- 5, {elapsed:.1f} s")


def test_criterion_8_lift_efficiency_pipeline():
    t0 = time.perf_counter()
    act = VLCA_ACTUATOR
    traj = testbed.BSplineTrajectory.vertical_lift((0.2, 0.45), 0.2, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", simkit.SaturationWarning)
        trace = testbed.simulate_osc(traj, 23.0, "cascaded_vlca", 2.5,
                                     actuator=act)
    summary = powertherm.power_flow(trace, act)
    eff = summary.drivetrain_efficiency_avg
    elapsed = time.perf_counter() - t0
    ok = 0.85 <= eff <= 0.93 and elapsed < 60.0
    _verdict(8, ok,
             f"23 kg lift, cascaded mode: positive-power drivetrain "
             f"efficiency {eff:.4f} in [0.85, 0.93] over "
             f"{summary.n_averaged} samples, {elapsed:.1f} s")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    P = VLCA_ACTUATOR
    G = ControllerGains()
    checks = []

    # passive plant energy never increases under the exact plant update:
    # one period's push from rest, then 1500 unforced periods
    states = simkit._run_linear(simkit._locked_plant(P), 1502,
                                lambda k, y: 1e3 if k == 0 else 0.0)
    e = [plant_energy(P, y) for y in states[1:].tolist()]
    mono = e[0] > 0.0 and all(cur - prev <= 1e-9 * e[0]
                              for prev, cur in zip(e, e[1:]))
    checks.append(("plant energy non-increasing", mono))

    # the leg's period map, unactuated in zero gravity, conserves energy
    zero_g = replace(testbed.TwoDofParams(), gravity=0.0)
    advance = testbed.leg_period_map(zero_g, False, P)
    state = (0.4, -0.8, 1.0, -0.5) + (0.0,) * 4
    e = [total_energy(state[:2], state[2:], zero_g)]
    for k in range(1000):
        state = advance(state, 0.0, 0.0, k * simkit.CONTROL_DT)
        e.append(total_energy(state[:2], state[2:], zero_g))
    checks.append(("passive swing energy drift",
                   max(abs(ei - e[0]) for ei in e) < 1e-6 * abs(e[0])))

    # mass matrix stays symmetric positive definite
    rng = np.random.default_rng(1)
    spd = True
    for _ in range(1000):
        params = testbed.TwoDofParams(
            payload_mass=float(rng.uniform(0.0, 30.0)))
        qk = rng.uniform(-2.6, 2.6, 2)
        a11, a12, a22 = _dyn_scalars(qk[0], qk[1], 0.0, 0.0, params)[:3]
        spd = spd and np.linalg.eigvalsh([[a11, a12], [a12, a22]])[0] > 0.0
    checks.append(("mass matrix SPD at 1000 configurations", spd))

    # the leg's integrator converges at fifth order, checked on the DP5
    # step its period map equals bit for bit
    rates = locked_plant_rates(P)

    def terminal(dt):
        s = (1e-4, 0.0)
        for _ in range(int(round(0.05 / dt))):
            s = dp5_step(rates, 0.0, s, dt)
        return s

    ref_x, ref_v = terminal(1e-6)
    x1, v1 = terminal(1e-3)
    x2, v2 = terminal(5e-4)
    e1 = math.hypot(x1 - ref_x, (v1 - ref_v) / 1e3)
    e2 = math.hypot(x2 - ref_x, (v2 - ref_v) / 1e3)
    checks.append(("DP5 order (halving dt shrinks error >= 16x)",
                   e1 / e2 >= 16.0))

    # observer with a vanishing cutoff reduces to the inner loop
    ref = simkit.SineRef(amplitude=300.0, freq_hz=3.0)
    tr_pdm = simkit.run_force_tracking(ControllerKind.PDM, G, ref, 2.0)
    tr_dob = simkit.run_force_tracking(ControllerKind.PDM_DOB,
                                       replace(G, q_taud_cutoff=1e-7),
                                       ref, 2.0)
    gap = float(np.max(np.abs(tr_pdm.f_meas - tr_dob.f_meas)))
    checks.append(("observer reduces to inner loop within 1e-9 N",
                   gap < 1e-9))

    # margin identities: PM = 180 + phase at crossover; pure gain leaves
    # the phase-crossover frequency alone
    inv = True
    for k in (2.0, 4.0, 10.0):
        tf = lintf.DelayedTransferFunction(
            lintf.Polynomial((k,)), lintf.Polynomial((1.0, 3.0, 3.0, 1.0)))
        m = lintf.stability_margins(tf)
        ph = math.degrees(np.angle(tf.eval(m.gain_crossover_rad_s)))
        wrap = (m.phase_margin_deg - (180.0 + ph) + 180.0) % 360.0 - 180.0
        inv = inv and abs(wrap) < 1e-6
        inv = inv and abs(m.phase_crossover_rad_s - math.sqrt(3.0)) < 1e-6
    checks.append(("margin gain/phase invariances", inv))

    # frequency-domain and time-domain fits invert their generators
    w = np.geomspace(1.0, 1000.0, 40)
    pts = [lintf.FrequencyResponsePoint(
               wi, abs(h), math.degrees(np.angle(h)))
           for wi in w
           for h in [1.0 / complex(1.0 - (wi / 10.0) ** 2,
                                   2.0 * 0.5 * wi / 10.0)]]
    fit = lintf.fit_second_order(pts)
    round_trip = (abs(fit.gain - 1.0) < 1e-6
                  and abs(fit.omega_n - 10.0) / 10.0 < 1e-6
                  and abs(fit.zeta - 0.5) / 0.5 < 1e-6)
    ts = np.linspace(0.0, 300.0, 601)
    truth = elastomat.RelaxationFit(f0=1000.0, creep_fraction=0.153,
                                    tau_s=30.0)
    rfit = elastomat.fit_stress_relaxation(ts, truth.eval(ts))
    round_trip = round_trip and (abs(rfit.creep_fraction - 0.153) < 1e-9
                                 and abs(rfit.tau_s - 30.0) / 30.0 < 1e-9)
    checks.append(("fitting round-trips", round_trip))

    elapsed = time.perf_counter() - t0
    failed = [name for name, good in checks if not good]
    ok = not failed and elapsed < 300.0
    _verdict(9, ok,
             f"{len(checks) - len(failed)}/{len(checks)} property groups "
             f"pass{': ' + ', '.join(failed) if failed else ''}, "
             f"{elapsed:.1f} s")
