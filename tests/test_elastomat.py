"""Material database, bench-data fitting, and candidate ranking."""
import csv
import io
import math

import numpy as np
import pytest

from vlcasim import elastomat as em
from vlcasim.lintf import (FitDiverged, FrequencyResponsePoint,
                           fit_second_order)


# ------------------------------------------------------------------ records

def test_builtin_database_shape():
    mats = em.builtin_materials()
    assert len(mats) == 8
    names = [m.name for m in mats]
    assert names[0] == "Spring steel"
    assert "Polyurethane 90A" in names
    pu90 = next(m for m in mats if m.name == "Polyurethane 90A")
    assert pu90.stiffness_n_per_mm == 8109.0
    assert pu90.damping_ns_per_m == 16000.0
    assert pu90.creep_pct == 15.3
    # two candidates have gaps in their bench data
    assert next(m for m in mats if m.name == "Reinforced silicone 70A"
                ).creep_pct is None
    assert next(m for m in mats if m.name == "Silicone 90A"
                ).compression_set_pct is None


def test_record_validation():
    with pytest.raises(ValueError):
        em.MaterialRecord("", 2.0, 0.99, 8000.0, None, None, None, None)
    with pytest.raises(ValueError):
        em.MaterialRecord("x", 2.0, 1.0001, 8000.0, None, None, None, None)
    with pytest.raises(ValueError):
        em.MaterialRecord("x", 2.0, 0.99, 0.0, None, None, None, None)
    with pytest.raises(ValueError):
        em.MaterialRecord("x", 120.0, 0.99, 8000.0, None, None, None, None)
    with pytest.raises(ValueError):
        em.MaterialRecord("x", 2.0, 0.99, 8000.0, None, -1.0, None, None)


# ------------------------------------------------------------------ fitting

def test_relaxation_round_trip():
    t = np.linspace(0.0, 300.0, 601)
    truth = em.RelaxationFit(f0=1000.0, creep_fraction=0.153, tau_s=30.0)
    fit = em.fit_stress_relaxation(t, truth.eval(t))
    assert fit.f0 == pytest.approx(1000.0, rel=1e-9)
    assert fit.creep_fraction == pytest.approx(0.153, rel=1e-9)
    assert fit.tau_s == pytest.approx(30.0, rel=1e-9)
    assert fit.creep_pct == pytest.approx(15.3, rel=1e-9)


def test_relaxation_constant_record_has_no_creep():
    t = np.linspace(0.0, 300.0, 601)
    fit = em.fit_stress_relaxation(t, np.full_like(t, 500.0))
    assert fit.creep_pct == 0.0
    assert fit.f0 == pytest.approx(500.0)


def test_relaxation_fit_under_noise():
    t = np.linspace(0.0, 300.0, 601)
    truth = em.RelaxationFit(f0=800.0, creep_fraction=0.30, tau_s=60.0)
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        noisy = truth.eval(t) * (1.0 + 0.02 * rng.standard_normal(len(t)))
        fit = em.fit_stress_relaxation(t, noisy)
        worst = max(worst, abs(fit.creep_pct - 30.0))
    assert worst < 3.0
    assert worst == pytest.approx(0.439, abs=0.05)


def test_relaxation_record_requirements():
    t = np.linspace(0.0, 300.0, 601)
    f = em.RelaxationFit(1000.0, 0.2, 30.0).eval(t)
    with pytest.raises(ValueError):
        em.fit_stress_relaxation(t[:6], f[:6])
    with pytest.raises(ValueError):
        em.fit_stress_relaxation(t + 5.0, f)       # misses the initial hold
    with pytest.raises(ValueError):
        em.fit_stress_relaxation(t / 10.0, f)      # too short a dwell
    bad_t = t.copy()
    bad_t[10] = bad_t[9]
    with pytest.raises(ValueError):
        em.fit_stress_relaxation(bad_t, f)


def _bench_response(b_total, m=10.0, k=1e6):
    wn = math.sqrt(k / m)
    z = b_total / (2.0 * math.sqrt(k * m))
    w = np.geomspace(wn / 30.0, wn * 30.0, 120)
    h = wn ** 2 / ((1j * w) ** 2 + 2.0 * z * wn * (1j * w) + wn ** 2)
    ph = np.degrees(np.unwrap(np.angle(h)))
    return [FrequencyResponsePoint(float(wi), float(abs(hi)), float(pi))
            for wi, hi, pi in zip(w, h, ph)]


def test_damping_estimate_subtracts_the_rig():
    for b_total, want in ((24000.0, 16000.0), (250000.0, 242000.0)):
        got = em.estimate_damping_from_chirp(_bench_response(b_total), 10.0,
                                             stiffness_n_per_m=1e6)
        assert got == pytest.approx(want, rel=1e-4)
    # a bench with only the rig's own damping reports essentially none
    assert em.estimate_damping_from_chirp(_bench_response(8000.0), 10.0,
                                          stiffness_n_per_m=1e6) < 1e-3
    # and below the rig share the estimate floors at zero, never negative
    assert em.estimate_damping_from_chirp(_bench_response(4000.0), 10.0,
                                          stiffness_n_per_m=1e6) == 0.0


def test_damping_estimate_is_linear_in_total_damping():
    d1 = em.estimate_damping_from_chirp(_bench_response(30000.0), 10.0,
                                        stiffness_n_per_m=1e6)
    d2 = em.estimate_damping_from_chirp(_bench_response(21000.0), 10.0,
                                        stiffness_n_per_m=1e6)
    assert d1 - d2 == pytest.approx(9000.0, rel=1e-4)


def test_damping_estimate_guards():
    pts = _bench_response(24000.0)
    with pytest.raises(ValueError):
        em.estimate_damping_from_chirp(pts, 0.0)
    with pytest.raises(ValueError):
        em.estimate_damping_from_chirp(pts, 10.0, stiffness_n_per_m=0.0)
    with pytest.raises(ValueError):
        em.estimate_damping_from_chirp(pts, 10.0, testbed_damping=-1.0)
    junk = [FrequencyResponsePoint(float(w), 1e-280 if w < 10 else 1e280, 0.0)
            for w in np.geomspace(1.0, 100.0, 30)]
    with pytest.raises(FitDiverged):
        em.estimate_damping_from_chirp(junk, 10.0)


def test_relaxation_fit_names_its_divergence():
    with pytest.raises(FitDiverged, match="^relaxation fit did not converge$"):
        em.fit_stress_relaxation(np.linspace(0.0, 200.0, 20),
                                 np.linspace(1.0, 0.0, 20) * 1e308)


def _second_order_from_columns(omega, magnitude, phase_deg):
    return fit_second_order([FrequencyResponsePoint(*p)
                             for p in zip(omega, magnitude, phase_deg)])


def _fit_cases():
    """Each fit with clean inputs it accepts, by input name."""
    t = np.linspace(0.0, 300.0, 601)
    pts = _bench_response(24000.0)
    return {
        "relaxation": (em.fit_stress_relaxation,
                       {"t_s": t, "force_n": em.RelaxationFit(
                           1000.0, 0.2, 30.0).eval(t)}),
        "second_order": (_second_order_from_columns,
                         {f: np.array([getattr(p, f) for p in pts])
                          for f in ("omega", "magnitude", "phase_deg")}),
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("fit,name", [
    ("relaxation", "t_s"), ("relaxation", "force_n"),
    ("second_order", "omega"), ("second_order", "magnitude"),
    ("second_order", "phase_deg")])
def test_fits_reject_a_non_finite_sample(fit, name, bad):
    fn, inputs = _fit_cases()[fit]
    fn(**inputs)  # the clean inputs fit
    spoiled = {**inputs, name: inputs[name].copy()}
    spoiled[name][len(spoiled[name]) // 2] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        fn(**spoiled)


# ------------------------------------------------------------------ ranking

def test_equal_weight_ranking():
    elastomers = [m for m in em.builtin_materials() if m.name != "Spring steel"]
    res = em.rank_materials(elastomers, {c: 1.0 for c in em.RANK_CRITERIA})
    assert res.ranked[0][0] == "Polyurethane 90A"
    assert res.ranked[0][1] == pytest.approx(0.8922962963, rel=1e-8)
    excluded = dict(res.excluded)
    assert "creep" in excluded["Reinforced silicone 70A"]
    assert "compression_set" in excluded["Silicone 90A"]
    assert len(res.ranked) == len(elastomers) - 2


def test_cost_only_ranking_ties_break_by_name():
    elastomers = [m for m in em.builtin_materials() if m.name != "Spring steel"]
    res = em.rank_materials(elastomers, {"cost": 1.0})
    assert [r[0] for r in res.ranked[:2]] == ["Polyurethane 80A",
                                              "Polyurethane 90A"]
    assert res.ranked[0][1] == res.ranked[1][1] == 1.0


def test_single_record_scores_one():
    pu90 = em.builtin_materials()[1]
    res = em.rank_materials([pu90], {c: 1.0 for c in em.RANK_CRITERIA})
    assert res.ranked == ((pu90.name, 1.0),)


def test_weight_rescaling_changes_nothing():
    elastomers = [m for m in em.builtin_materials() if m.name != "Spring steel"]
    a = em.rank_materials(elastomers, {c: 1.0 for c in em.RANK_CRITERIA})
    b = em.rank_materials(elastomers, {c: 17.3 for c in em.RANK_CRITERIA})
    assert [r[0] for r in a.ranked] == [r[0] for r in b.ranked]
    assert np.allclose([r[1] for r in a.ranked], [r[1] for r in b.ranked])


def test_damping_floor_excludes_the_undamped_baseline():
    # weight only quantities the steel baseline actually has, so the
    # exclusion comes from the floor rather than from a missing entry
    res = em.rank_materials(em.builtin_materials(),
                            {"damping": 1.0, "linearity": 1.0},
                            min_damping=1.0)
    excluded = dict(res.excluded)
    assert "Spring steel" in excluded
    assert "damping below" in excluded["Spring steel"]
    # with cost weighted too, the missing price excludes it first
    res_all = em.rank_materials(em.builtin_materials(),
                                {c: 1.0 for c in em.RANK_CRITERIA},
                                min_damping=1.0)
    assert "missing cost" in dict(res_all.excluded)["Spring steel"]


def test_ranking_input_validation():
    mats = em.builtin_materials()
    with pytest.raises(ValueError):
        em.rank_materials(mats, {"sparkle": 1.0})
    with pytest.raises(ValueError):
        em.rank_materials(mats, {"cost": -1.0})
    with pytest.raises(ValueError):
        em.rank_materials(mats, {"cost": 0.0})
    with pytest.raises(em.AllExcluded):
        em.rank_materials(mats, {c: 1.0 for c in em.RANK_CRITERIA},
                          min_damping=1e12)


# ---------------------------------------------------------------------- csv

def test_materials_csv_round_trip():
    mats = em.builtin_materials()
    text = em.materials_to_csv(mats)
    rows = list(csv.reader(io.StringIO(text)))
    assert ",".join(rows[0]) == em.MATERIALS_CSV_HEADER
    back = [em.MaterialRecord(row[0], *(None if tok == "" else float(tok)
                                        for tok in row[1:]))
            for row in rows[1:]]
    assert back == mats
    # gaps survive the trip as empty cells
    steel_line = text.splitlines()[1]
    assert steel_line.split(",")[4] == ""
