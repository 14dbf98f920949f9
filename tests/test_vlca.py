"""Actuator model, force-control loop shapes, and the margin table."""
import cmath
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import calibrate_margins_grid
from vlcasim import lintf, vlca
from vlcasim.lintf import stability_margins
from vlcasim.vlca import (ActuatorParams, ControllerGains, ControllerKind,
                          DEFAULT_MOMENT_ARM, MARGIN_CSV_HEADER,
                          MARGIN_DELAY_GRID, MarginCalibration,
                          MissingFilterCutoff, VLCA_ACTUATOR,
                          VLCA_SPEED_REDUCTION, calibrate_margins,
                          closed_loop_tf, force_plant, margin_table,
                          margin_table_to_csv, open_loop_tf, plant_px,
                          q_taud_tf)

P = VLCA_ACTUATOR
G = ControllerGains()


# ------------------------------------------------------------------- params

def test_speed_reduction_from_belt_and_screw_lead():
    assert VLCA_SPEED_REDUCTION == pytest.approx(3315.951045864027, rel=1e-12)
    assert P.n_m == VLCA_SPEED_REDUCTION


def test_drive_constant():
    assert P.drive_constant == pytest.approx(133.69914616923757, rel=1e-12)
    assert P.drive_constant == pytest.approx(P.eta * P.k_tau * P.n_m, rel=1e-15)


def test_reflected_mass_and_damping():
    assert P.effective_mass == pytest.approx(419.13019086553595, rel=1e-12)
    assert P.effective_damping == pytest.approx(22199.10626771335, rel=1e-12)
    assert P.drivetrain_damping == pytest.approx(2199.10626771335, rel=1e-12)
    # the reflected rotor inertia dominates the translating hardware
    assert P.effective_mass - P.m_r > 100.0 * P.m_r


def test_resonance_and_damping_ratio():
    assert P.resonance_rad_s == pytest.approx(114.55310679209889, rel=1e-12)
    assert P.resonance_rad_s == pytest.approx(114.6, rel=0.005)
    zeta = P.effective_damping / (2.0 * math.sqrt(P.k_r * P.effective_mass))
    assert P.damping_ratio == pytest.approx(zeta, rel=1e-15)
    assert P.damping_ratio == pytest.approx(0.23117969008859263, rel=1e-12)


def test_param_validation():
    with pytest.raises(ValueError):
        replace(P, k_r=0.0)
    with pytest.raises(ValueError):
        replace(P, eta=1.2)
    with pytest.raises(ValueError):
        replace(P, b_r=-1.0)
    replace(P, b_m=0.0)  # drag may vanish


def test_default_moment_arm_maps_rated_force_to_rated_torque():
    assert DEFAULT_MOMENT_ARM * 5900.0 == pytest.approx(270.0, rel=1e-12)


def test_gain_validation():
    with pytest.raises(ValueError):
        ControllerGains(k_p=-1.0)
    with pytest.raises(ValueError):
        ControllerGains(q_d_cutoff=0.0)
    with pytest.raises(ValueError):
        ControllerGains(delay_t=-1e-3)
    with pytest.raises(ValueError):
        ControllerGains(q_taud_zeta=0.0)


def test_force_derivative_gain_defaults_to_matched_damping():
    assert G.k_df is None
    assert G.resolved_k_df(P) == pytest.approx(G.k_dm * P.n_m / P.k_r,
                                               rel=1e-15)
    g2 = replace(G, k_df=0.012)
    assert g2.resolved_k_df(P) == 0.012


# -------------------------------------------------------------------- plant

def test_position_plant_coefficients():
    px = plant_px(P)
    # den normalized to a monic leading coefficient; compare ratios
    den = px.den.coefficients
    assert den[2] == 1.0
    assert den[1] == pytest.approx(P.effective_damping / P.effective_mass,
                                   rel=1e-12)
    assert den[0] == pytest.approx(P.k_r / P.effective_mass, rel=1e-12)
    assert px.dc_gain() == pytest.approx(2.4308935667134106e-05, rel=1e-12)
    assert px.dc_gain() == pytest.approx(2.431e-5, rel=1e-3)


def test_position_plant_dc_tracks_spring_stiffness():
    soft = replace(P, k_r=P.k_r / 10.0)
    assert plant_px(soft).dc_gain() == pytest.approx(10.0 * plant_px(P).dc_gain(),
                                                     rel=1e-12)


def test_force_plant_unity_dc():
    fp = force_plant(P)
    assert fp.dc_gain() == pytest.approx(1.0, abs=1e-12)
    # resonant peak of an underdamped pair sits just below resonance
    w = np.geomspace(10.0, 1e3, 4000)
    mags = np.abs([fp.eval(float(wi)) for wi in w])
    z = P.damping_ratio
    assert np.max(mags) == pytest.approx(1.0 / (2.0 * z * math.sqrt(1 - z * z)),
                                         rel=1e-4)


def test_observer_filter_is_peak_free_unity_lowpass():
    q = q_taud_tf(G)
    assert q.dc_gain() == pytest.approx(1.0, abs=1e-12)
    w = np.geomspace(1e-2, 1e6, 2000)
    mags = np.abs([q.eval(float(wi)) for wi in w])
    assert np.max(mags) <= 1.0 + 1e-9
    wc = G.q_taud_cutoff
    for frac in (0.1, 1.0, 10.0):
        assert abs(q.eval(frac * wc)) < 1.0


# ----------------------------------------------------------- open-loop shapes

def test_missing_filter_cutoffs_are_rejected():
    g_no_qd = replace(G, q_d_cutoff=None)
    with pytest.raises(MissingFilterCutoff):
        open_loop_tf(ControllerKind.PDF, P, g_no_qd)
    with pytest.raises(MissingFilterCutoff):
        closed_loop_tf(ControllerKind.PDF, P, g_no_qd)
    g_no_qt = replace(G, q_taud_cutoff=None)
    with pytest.raises(MissingFilterCutoff):
        open_loop_tf(ControllerKind.PDM_DOB, P, g_no_qt)
    with pytest.raises(MissingFilterCutoff):
        closed_loop_tf(ControllerKind.PDM_DOB, P, g_no_qt)
    # the other structures do not need those filters
    open_loop_tf(ControllerKind.PDM, P, g_no_qd)
    open_loop_tf(ControllerKind.PIDM, P, g_no_qt)


def test_open_loop_carries_the_transport_delay():
    for kind in ControllerKind:
        assert open_loop_tf(kind, P, G).delay_s == G.delay_t
    g0 = replace(G, delay_t=0.0)
    assert open_loop_tf(ControllerKind.PDM, P, g0).delay_s == 0.0


def test_integral_action_gives_infinite_dc_loop_gain():
    lo = open_loop_tf(ControllerKind.PIDM, P, G)
    assert abs(lo.eval(1e-6)) > 1e5
    # integrator slope: two decades down in frequency, two decades up in gain
    assert abs(lo.eval(1e-6)) / abs(lo.eval(1e-4)) == pytest.approx(100.0,
                                                                    rel=0.01)


def test_observer_loop_dc_gain_is_huge():
    lo = open_loop_tf(ControllerKind.PDM_DOB, P, G)
    assert abs(lo.eval(1e-6)) > abs(lo.eval(1e-5)) > abs(lo.eval(1e-4)) > 1e3


def test_dropping_integral_gain_recovers_the_simpler_loop():
    # the PI structure carries a 1/s factor; with the integral gain at zero
    # that factor is shared top and bottom, leaving the simpler loop
    g0 = replace(G, k_i=0.0)
    a = open_loop_tf(ControllerKind.PIDM, P, g0)
    b = open_loop_tf(ControllerKind.PDM, P, g0)
    assert a.delay_s == b.delay_s
    for w in np.geomspace(1e-3, 1e5, 41):
        assert cmath.isclose(a.eval(float(w)), b.eval(float(w)), rel_tol=1e-12)


# ------------------------------------------------------------------- margins

def test_margin_table_rows_and_values():
    entries = margin_table(P, G)
    assert [e.label for e in entries] == ["pd_f", "pd_m", "pid_m", "pd_m_dob",
                                          "plant"]
    rep = {e.label: e.report for e in entries}
    assert all(r is not None for r in rep.values())

    assert rep["pd_f"].phase_margin_deg == pytest.approx(10.663557138611225,
                                                         rel=1e-9)
    assert rep["pd_f"].gain_crossover_rad_s == pytest.approx(288.9452529916208,
                                                             rel=1e-9)
    assert rep["pd_f"].gain_margin_db == pytest.approx(5.077526974218976,
                                                       rel=1e-9)

    assert rep["pd_m"].phase_margin_deg == pytest.approx(29.383283201882307,
                                                         rel=1e-9)
    assert rep["pd_m"].gain_crossover_rad_s == pytest.approx(270.06778155620424,
                                                             rel=1e-9)
    assert rep["pd_m"].gain_margin_db == pytest.approx(20.102885210196302,
                                                       rel=1e-9)

    assert rep["pid_m"].phase_margin_deg == pytest.approx(15.828022225264306,
                                                          rel=1e-9)
    assert rep["pid_m"].gain_crossover_rad_s == pytest.approx(256.98244372031263,
                                                              rel=1e-9)

    assert rep["pd_m_dob"].phase_margin_deg == pytest.approx(24.63662018305621,
                                                             rel=1e-9)
    assert rep["pd_m_dob"].gain_crossover_rad_s == pytest.approx(
        271.32889020471833, rel=1e-9)
    assert rep["pd_m_dob"].gain_margin_db == pytest.approx(19.421275559766894,
                                                           rel=1e-9)

    assert rep["plant"].phase_margin_deg == pytest.approx(29.394016637661593,
                                                          rel=1e-9)
    assert rep["plant"].gain_crossover_rad_s == pytest.approx(
        153.09986528080336, rel=1e-9)


def test_motor_side_damping_beats_force_derivative_margin():
    entries = {e.label: e.report for e in margin_table(P, G)}
    assert entries["pd_m"].phase_margin_deg > entries["pd_f"].phase_margin_deg
    # the observer recovers most of the margin the integral action costs
    assert entries["pd_m_dob"].phase_margin_deg > entries["pid_m"].phase_margin_deg


def test_margins_shrink_with_transport_delay():
    # the PDM loop's margins from its unity crossing solved to 40 digits
    # (mpmath), rounded
    want = {0.0: 44.857027269075274, 0.25e-3: 40.98859125178382,
            0.5e-3: 37.12015523449236, 1.0e-3: 29.38328319990945,
            2.5e-3: 6.172667096160709}
    last = math.inf
    for t, pm in want.items():
        rep = stability_margins(open_loop_tf(ControllerKind.PDM, P,
                                             replace(G, delay_t=t)))
        assert rep.phase_margin_deg == pytest.approx(pm, rel=1e-9)
        assert rep.phase_margin_deg < last
        last = rep.phase_margin_deg


def test_observer_crossover_is_delay_independent():
    for t in (0.0, 0.25e-3, 1.0e-3):
        rep = stability_margins(open_loop_tf(ControllerKind.PDM_DOB, P,
                                             replace(G, delay_t=t)))
        assert rep.gain_crossover_rad_s == pytest.approx(271.32889020471833,
                                                         rel=1e-9)
    rep0 = stability_margins(open_loop_tf(ControllerKind.PDM_DOB, P,
                                          replace(G, delay_t=0.0)))
    assert rep0.phase_margin_deg == pytest.approx(40.18262045175507, rel=1e-9)
    assert math.isinf(rep0.gain_margin_db)


def test_margin_table_reports_errors_without_aborting():
    feeble = ControllerGains(k_p=1e-12, k_dm=1e-12, k_i=0.0)
    entries = margin_table(P, feeble)
    assert len(entries) == 5
    by_label = {e.label: e for e in entries}
    for label in ("pd_f", "pd_m", "pid_m"):
        assert by_label[label].report is None
    # the observer path keeps infinite DC gain regardless of the feedback
    # gains, so its loop still crosses unity; so does the bare plant through
    # its resonant peak
    assert by_label["pd_m_dob"].report is not None
    assert by_label["plant"].report is not None


def test_margin_csv_layout():
    text = margin_table_to_csv(margin_table(P, G))
    lines = text.strip().splitlines()
    assert lines[0] == MARGIN_CSV_HEADER
    assert len(lines) == 6
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert row["controller"] == "pd_m"
    assert float(row["gain_crossover_hz"]) == pytest.approx(
        270.06778155620424 / (2.0 * math.pi), rel=1e-9)
    # error rows keep the label and leave the numbers empty
    feeble = margin_table(P, ControllerGains(k_p=1e-12, k_dm=1e-12, k_i=0.0))
    bad_line = margin_table_to_csv(feeble).strip().splitlines()[1]
    assert bad_line == "pd_f,,,"


def test_infinite_gain_margin_serializes_empty():
    g0 = replace(G, delay_t=0.0)
    entries = margin_table(P, g0)
    text = margin_table_to_csv(entries)
    dob_line = [ln for ln in text.splitlines() if ln.startswith("pd_m_dob")][0]
    assert dob_line.endswith(",")  # empty gain-margin cell


def test_single_point_calibration_is_exact():
    cal = calibrate_margins(P, G, delay_grid=[0.25e-3],
                            q_d_grid=[2.0 * math.pi * 20.0])
    assert cal.delay_t == pytest.approx(0.25e-3)
    assert cal.q_d_cutoff == pytest.approx(2.0 * math.pi * 20.0)
    assert cal.pm_pdf_deg == pytest.approx(13.99503895, abs=1e-6)
    assert cal.pm_pdm_deg == pytest.approx(40.98859125, abs=1e-6)
    assert cal.pm_pidm_deg == pytest.approx(26.8710293, abs=1e-6)
    assert cal.pm_pdm_dob_deg == pytest.approx(36.29612038, abs=1e-6)
    assert cal.objective_deg == pytest.approx(
        max(abs(cal.pm_pdf_deg - 17.1), abs(cal.pm_pdm_deg - 47.6)), rel=1e-12)


def _assert_same_calibration(cal, ref):
    for f in fields(MarginCalibration):
        a, b = getattr(cal, f.name), getattr(ref, f.name)
        assert type(a) is float and type(b) is float, f.name
        assert a == b or (math.isnan(a) and math.isnan(b)), f.name


@pytest.mark.parametrize("b_r", [0.0, 2.0e4, 2.8e4, 3.2e4])
def test_calibration_equals_the_per_point_grid_search(b_r):
    # one crossing search per loop shape gives every grid point's margins
    # bit for bit, so the search lands where the per-point scans land
    p = replace(P, b_r=b_r)
    _assert_same_calibration(calibrate_margins(p, G),
                             calibrate_margins_grid(p, G))


def test_calibration_makes_no_full_margin_scan(monkeypatch):
    # every margin of a calibration, the best point's PIDM and PDM_DOB
    # margins included, comes from one crossing search per loop shape
    calls = []

    def counted(loop):
        calls.append(loop)
        return stability_margins(loop)
    for module in (lintf, vlca):
        monkeypatch.setattr(module, "stability_margins", counted)
    cal = calibrate_margins(P, G)
    assert not calls
    assert not math.isnan(cal.pm_pidm_deg + cal.pm_pdm_dob_deg)


def test_margin_refinement_takes_few_evaluations(monkeypatch):
    # each crossing search evaluates the loop once on its grid, then once
    # per refinement step and once to read the refined points; with 24
    # bisection steps a calibration took 494 evaluations and a table 255
    calls = []
    rational = lintf._rational_array
    monkeypatch.setattr(lintf, "_rational_array",
                        lambda *a: calls.append(a) or rational(*a))
    calibrate_margins(P, G)
    assert len(calls) <= 95
    calls.clear()
    margin_table(P, G)
    assert len(calls) <= 51


# k_p = 0.41 puts the PDF loop's resonant peak near unity: the weakly
# filtered derivative of the low cutoffs leaves it above, the higher
# cutoffs damp it below, where the loop has no unity crossing
SPARSE_PDF = replace(G, k_p=0.41, k_df=1e-3)
PDF_CUTOFFS = 2.0 * math.pi * np.geomspace(20.0, 200.0, 16)


def test_calibration_skips_cutoffs_without_a_pdf_crossing():
    pdf = [calibrate_margins_grid(P, SPARSE_PDF, delay_grid=[1e-3],
                                  q_d_grid=[wd]).pm_pdf_deg
           for wd in PDF_CUTOFFS]
    assert 0 < sum(map(math.isnan, pdf)) < len(pdf)
    # crossing-free cutoffs first: a NaN objective kept as the first best
    # would never be beaten
    kw = dict(delay_grid=MARGIN_DELAY_GRID[:3], q_d_grid=PDF_CUTOFFS[::-1])
    cal = calibrate_margins(P, SPARSE_PDF, **kw)
    _assert_same_calibration(cal, calibrate_margins_grid(P, SPARSE_PDF, **kw))
    assert not math.isnan(cal.pm_pdf_deg)


def test_calibration_without_any_crossing_is_all_nan():
    flat = replace(G, k_p=0.0, k_dm=0.0)
    cal = calibrate_margins(P, flat)
    _assert_same_calibration(cal, calibrate_margins_grid(P, flat))
    assert all(math.isnan(getattr(cal, f.name)) for f in fields(cal))


def test_calibration_keeps_the_first_of_tied_points():
    # a PDM target no loop comes near makes the PDM miss the objective at
    # every cutoff: each delay's row ties, and the first cutoff must win
    kw = dict(pm_pdm_target=1e3, delay_grid=MARGIN_DELAY_GRID[:4],
              q_d_grid=PDF_CUTOFFS[:5])
    cal = calibrate_margins(P, G, **kw)
    _assert_same_calibration(cal, calibrate_margins_grid(P, G, **kw))
    assert cal.q_d_cutoff == float(PDF_CUTOFFS[0])
    assert cal.delay_t == float(MARGIN_DELAY_GRID[0])


# -------------------------------------------------------------- closed loops

def _block_diagram_response(kind, p, g, omega):
    """Closed force loop read off each structure's block diagram: plant
    P_x = N/den_p, command feedforward, force and motor-velocity feedback
    through the delay e, and the observer's filter Q around the PDM loop."""
    s = 1j * omega
    kr, nm, n = p.k_r, p.n_m, p.drive_constant
    px = n / (p.k_r + p.effective_damping * s + p.effective_mass * s * s)
    e = cmath.exp(-s * g.delay_t)
    if kind is ControllerKind.PDF:
        wd = g.q_d_cutoff
        qd = wd * s / (s + wd)
        ff = kr * px * (g.k_p + 1.0) / n
        loop = kr * px * (g.k_p + g.resolved_k_df(p) * qd) / n
        return ff / (1.0 + e * loop)
    if kind is ControllerKind.PIDM:
        pi = g.k_p + g.k_i / s
        ff = kr * px * (pi + 1.0) / n
        loop = px * (kr * pi + g.k_dm * s * nm) / n
        return ff / (1.0 + e * loop)
    ff = kr * px * (g.k_p + 1.0) / n
    x = px * (kr * g.k_p + g.k_dm * s * nm) / n
    if kind is ControllerKind.PDM:
        return ff / (1.0 + e * x)
    w, z = g.q_taud_cutoff, g.q_taud_zeta
    q = w * w / (s * s + 2.0 * z * w * s + w * w)
    return ff / ((1.0 - q) + e * (q + x))


def test_closed_loop_matches_loop_quotient():
    # feedforward/(1 + open_loop_tf) equals the block-diagram algebra of
    # every structure across the analysed band, at the default gains and
    # at a second set that moves every gain, filter and the delay
    varied = replace(G, k_p=9.0, k_dm=4.0, k_i=50.0,
                     q_d_cutoff=2.0 * math.pi * 20.0, q_taud_zeta=0.3,
                     delay_t=2.5e-3)
    for gains in (G, varied):
        for kind in ControllerKind:
            cl = closed_loop_tf(kind, P, gains)
            grid = np.geomspace(1e-3, 1e5, 161)
            each = np.array([cl.eval(float(w)) for w in grid])
            for w, h in zip(grid, each):
                want = _block_diagram_response(kind, P, gains, float(w))
                assert cmath.isclose(h, want, rel_tol=1e-9)
            # the whole grid in one call gives the point-by-point values
            assert np.all(np.abs(cl.eval(grid) - each) <= 1e-14 * np.abs(each))


def test_closed_loop_dc_is_unity_for_every_structure():
    # the command feedforward cancels the proportional droop, so even the
    # integral-free loops track DC exactly
    for kind in ControllerKind:
        cl = closed_loop_tf(kind, P, G)
        assert abs(cl.eval(1e-5)) == pytest.approx(1.0, abs=1e-6)


def test_closed_loop_sweep_runs():
    cl = closed_loop_tf(ControllerKind.PDM_DOB, P, G)
    pts = cl.sweep(1.0, 500.0, 24)
    mags = [p.magnitude for p in pts]
    assert len(pts) > 50
    assert mags[-1] < 0.5  # rolled off past crossover


def test_closed_loop_rejects_nonpositive_frequency():
    cl = closed_loop_tf(ControllerKind.PDM, P, G)
    with pytest.raises(ValueError):
        cl.eval(0.0)
