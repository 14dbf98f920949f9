"""Scenario runner: config validation, manifests, reruns, sweeps."""
import csv
import inspect
import io
import json
import math
import os
import warnings
from dataclasses import fields, replace

import pytest

from oracles import csv_per_cell, phase_margin
from vlcasim import cli, elastomat, powertherm, simkit, testbed
from vlcasim.cli import main
from vlcasim.vlca import (MARGIN_DELAY_GRID, MARGIN_TABLE_ORDER,
                          EXPERIMENT_GAINS, VLCA_ACTUATOR, ControllerGains,
                          MissingFilterCutoff)


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("VLCA_OUT", raising=False)
    yield


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


# --------------------------------------------------------------- validation

def test_validate_accepts_a_minimal_config(tmp_path, capsys):
    cfg = _write(tmp_path, "ok.cfg", "scenario = margins\n")
    assert main(["validate", cfg]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_reports_missing_scenario(tmp_path, capsys):
    cfg = _write(tmp_path, "empty.cfg", "\n")
    assert main(["validate", cfg]) == 2
    assert "missing required key" in capsys.readouterr().out


def test_validate_reports_unknown_scenario(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "scenario = teleport\n")
    assert main(["validate", cfg]) == 2
    out = capsys.readouterr().out
    assert "unknown scenario" in out and "teleport" in out


def test_validate_range_checks_parameters(tmp_path, capsys):
    cfg = _write(tmp_path, "neg.cfg",
                 "scenario = margins\nactuator.k_r = -1\n")
    assert main(["validate", cfg]) == 2
    out = capsys.readouterr().out
    assert "actuator.k_r" in out
    assert "must be positive" in out


def test_validate_flags_typos_and_bad_types(tmp_path, capsys):
    cfg = _write(tmp_path, "typo.cfg",
                 "scenario = margins\ngains.kp_typo = 4\nseed = soon\n")
    assert main(["validate", cfg]) == 2
    out = capsys.readouterr().out
    assert "gains.kp_typo" in out and "unknown key" in out
    assert "seed" in out and "integer" in out


def test_a_key_matches_its_field_name_exactly(tmp_path, capsys):
    cfg = _write(tmp_path, "case.cfg", "scenario = margins\ngains.K_P = 4\n")
    assert main(["validate", cfg]) == 2
    assert capsys.readouterr().out == "gains.K_P: unknown key\n"


# a value is a number or a knob's text, so no spelling unsets an optional
# gain, whether or not the scenario's loop reads it
@pytest.mark.parametrize("spelling", ["none", "null"])
@pytest.mark.parametrize("name", ["k_df", "q_d_cutoff", "q_taud_cutoff"])
@pytest.mark.parametrize("scenario", [name for name, sc in cli._SCENARIOS.items()
                                      if "gains" in sc.reads])
def test_an_optional_gain_spelled_none_is_not_a_number(tmp_path, capsys,
                                                       scenario, name,
                                                       spelling):
    cfg = _write(tmp_path, "none.cfg", f"scenario = {scenario}\n"
                 f"gains.{name} = {spelling}\nout = none_out\n")
    assert main(["validate", cfg]) == 2
    assert capsys.readouterr().out == f"gains.{name}: expected a number\n"
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == \
        f"config error at gains.{name}: expected a number\n"
    assert not (tmp_path / "none_out").exists()


# margins builds its four loops before it scans them: a loop whose
# coefficients leave the floats is a config error, not a failed run
@pytest.mark.parametrize("key", ["actuator.k_r", "gains.k_p",
                                 "gains.q_taud_zeta"])
def test_a_margins_loop_past_the_floats_is_a_config_error(tmp_path, capsys,
                                                          key):
    cfg = _write(tmp_path, "huge.cfg",
                 f"scenario = margins\n{key} = 1e308\nout = huge_out\n")
    assert main(["validate", cfg]) == 2
    assert capsys.readouterr().out.startswith("margins: ")
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "huge_out").exists()


# the reflected inertia and drag scale with n_m ** 2, and the drive constant
# with k_tau * n_m: an n_m or a k_tau that takes one past the floats is a
# range error at its key in every scenario
@pytest.mark.parametrize("key, value, message", [
    ("actuator.n_m", "1e200", "n_m must have a finite square"),
    ("actuator.n_m", "1e308", "n_m must have a finite square"),
    ("actuator.k_tau", "1e308",
     "k_tau must give a finite drive constant eta * k_tau * n_m"),
], ids=["1e200", "1e308", "k_tau-1e308"])
@pytest.mark.parametrize("scenario", [s for s in cli.SCENARIOS
                                      if "actuator" in cli._SCENARIOS[s].reads])
def test_an_n_m_past_the_floats_is_a_config_error(tmp_path, capsys, scenario,
                                                  key, value, message):
    assert cli.validate({"scenario": scenario, key: value}) == [(key, message)]
    cfg = _write(tmp_path, "actuator.cfg", f"scenario = {scenario}\n"
                 f"{key} = {value}\nout = actuator_out\n")
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == f"config error at {key}: {message}\n"
    assert not (tmp_path / "actuator_out").exists()


# every error a prepare step raises for bad input is one type to catch
@pytest.mark.parametrize("exc", [
    testbed.WorkspaceViolation, elastomat.AllExcluded,
    powertherm.CalibrationInfeasible, simkit.InsufficientExcitation,
    MissingFilterCutoff], ids=lambda exc: exc.__name__)
def test_a_bad_input_error_is_a_value_error(exc):
    assert issubclass(exc, ValueError)


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_no_knob_shares_its_key_with_a_field_the_scenario_reads(scenario):
    # knobs and fields are one table of keys: a shared key would route
    # every value to one of the two
    sc = cli._SCENARIOS[scenario]
    fields_read = {f"{ns}.{f.name}" for ns, base in sc.reads.items()
                   for f in fields(base)}
    assert not fields_read & {f"{scenario}.{name}" for name in sc.extras}


# one value of each wrong kind per scenario: a text that is no choice, a
# fraction for an integer, and infinity for a knob and for a field
@pytest.mark.parametrize("scenario, key, value, message", [
    ("force_tracking", "force_tracking.kind", "pd",
     "expected one of pd_f, pd_m, pid_m, pd_m_dob"),
    ("force_tracking", "force_tracking.reference", "square",
     "expected one of step, ramp, sine, chirp"),
    ("osc", "osc.trajectory", "circle", "expected one of sine, bspline"),
    ("margins", "margins.calibrate", "1.5", "expected an integer"),
    ("margins", "gains.k_dm", "inf", "expected a finite number"),
    *((sc, key, "inf", "expected a finite number")
      for sc, keys in (("bode", ("bode.f1_hz", "actuator.k_r")),
                       ("position_step", ("position_step.step_rad",
                                          "actuator.b_m")),
                       ("impact", ("impact.pulse_width_s", "actuator.m_r")),
                       ("osc", ("osc.freq_hz", "testbed.l1")),
                       ("thermal", ("thermal.hold_force_n",
                                    "thermal.c_winding")),
                       ("efficiency", ("efficiency.lift_m", "testbed.m1")),
                       ("materials", ("materials.w_cost",)))
      for key in keys),
])
def test_a_value_of_the_wrong_kind_is_reported_at_its_key(scenario, key,
                                                          value, message):
    assert cli.validate({"scenario": scenario, key: value}) == [(key, message)]


# a chirp's range error names its field, which routes it to that field's
# key; force_tracking derives its chirp's band, so the error stays on the
# scenario
@pytest.mark.parametrize("config, key, message", [
    ({"scenario": "bode", "bode.f0_hz": "0"}, "bode.f0_hz", "f0_hz must be > 0"),
    ({"scenario": "bode", "bode.f0_hz": "200"}, "bode.f1_hz",
     "f1_hz must be above f0_hz"),
    ({"scenario": "force_tracking", "force_tracking.reference": "chirp",
      "force_tracking.freq_hz": "0.01"}, "force_tracking",
     "f1_hz must be above f0_hz"),
], ids=["bode_f0_zero", "bode_f0_above_f1", "force_tracking_chirp"])
def test_a_chirp_band_error_is_reported_at_its_key(config, key, message):
    assert cli.validate(config) == [(key, message)]


def test_validate_applies_set_overrides(tmp_path, capsys):
    cfg = _write(tmp_path, "ok.cfg", "scenario = margins\n")
    assert main(["validate", cfg, "--set", "gains.delay_t=-1"]) == 2
    assert "delay_t" in capsys.readouterr().out


@pytest.mark.parametrize("line", [
    "actuator.eta = nan",
    "gains.k_p = nan",
    "gains.delay_t = inf",
    "force_tracking.duration_s = inf",
])
def test_validate_rejects_non_finite_numbers(tmp_path, capsys, line):
    cfg = _write(tmp_path, "nonfinite.cfg",
                 f"scenario = force_tracking\n{line}\n")
    assert main(["validate", cfg]) == 2
    out = capsys.readouterr().out
    assert line.split(" ")[0] in out and "finite" in out


def test_validate_caps_the_loop_delay(tmp_path, capsys):
    cfg = _write(tmp_path, "slow.cfg",
                 "scenario = margins\ngains.delay_t = 1e6\n")
    assert main(["validate", cfg]) == 2
    assert "gains.delay_t" in capsys.readouterr().out


def test_margins_run_at_the_longest_delay_completes(tmp_path):
    cfg = _write(tmp_path, "long.cfg",
                 "scenario = margins\nout = long_out\ngains.delay_t = 1\n")
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg]) == 0
    assert _read_manifest(tmp_path / "long_out")["status"] == "ok"


# each run-length key and the longest value it accepts [s]: the ceiling of
# the run clock, less the quiet tail of a chirp or the hold after a lift
_RUN_LENGTHS = {"bode.chirp_s": 299.5, "force_tracking.duration_s": 300.0,
                "position_step.duration_s": 300.0, "osc.duration_s": 300.0,
                "efficiency.duration_s": 299.5,
                "thermal.burst_duration_s": 300.0,
                "thermal.hold_duration_s": 3000.0}


@pytest.mark.parametrize("key", _RUN_LENGTHS)
def test_run_lengths_stop_at_the_ceiling(key):
    scenario = key.split(".")[0]
    longest = _RUN_LENGTHS[key]
    assert cli.validate({"scenario": scenario, key: str(longest)}) == []
    diags = cli.validate({"scenario": scenario, key: str(longest * 1.001)})
    assert [k for k, _ in diags] == [key]
    assert "300,000 steps" in diags[0][1]


@pytest.mark.parametrize("lines", [
    "scenario = impact\nimpact.pulse_width_s = 0.01",
    "scenario = force_tracking\nforce_tracking.duration_s = -1",
    "scenario = position_step\nposition_step.duration_s = -1",
    "scenario = osc\nosc.trajectory = bspline\nosc.knots = 0.18,0.45; 0.2",
    # a NaN knot puts NaN radii on the path, which no limit may let pass
    "scenario = osc\nosc.trajectory = bspline\n"
    "osc.knots = nan,0.45; 0.18,0.45; 0.18,0.5",
    "scenario = osc\nosc.trajectory = bspline\n"
    "osc.knots = 0.18,0.45; 0.18,nan; 0.18,0.5",
    "scenario = thermal\nthermal.burst_duration_s = -1",
    "scenario = thermal\nthermal.hold_duration_s = 0",
    "scenario = efficiency\nefficiency.duration_s = -1",
    "scenario = efficiency\nefficiency.payload_kg = -5",
    "scenario = efficiency\nefficiency.lift_m = 0.9",
    "scenario = osc\nosc.payload_kg = -3",
    "scenario = osc\nosc.amplitude_m = 0.5",
    "scenario = osc\nosc.center_y = 0.9\nosc.duration_s = 1",
    "scenario = bode\nbode.chirp_s = -1",
    "scenario = bode\nbode.f0_hz = -1",
    "scenario = materials\n" + "\n".join(
        f"materials.w_{c} = 0"
        for c in ("linearity", "compression_set", "creep", "damping", "cost")),
    "scenario = materials\nmaterials.min_damping = 1e9",
    # shorter than one control step, or a record the estimator refuses
    "scenario = bode\nbode.chirp_s = 1e-9",
    "scenario = bode\nbode.chirp_s = 1e-3",
    "scenario = bode\nbode.chirp_s = 0.3",
    "scenario = bode\nbode.chirp_amp_a = 0",
    "scenario = force_tracking\nforce_tracking.duration_s = 1e-9",
    "scenario = position_step\nposition_step.duration_s = 1e-9",
    "scenario = position_step\nposition_step.step_rad = 0",
    # at or above the Nyquist frequency of the 1 kHz record
    "scenario = bode\nbode.f1_hz = 500",
    "scenario = bode\nbode.f1_hz = 1000",
    # a chirp whose excited band spans under two decades
    "scenario = bode\nbode.chirp_s = 0.6\nbode.f1_hz = 2",
    "scenario = bode\nbode.f0_hz = 100\nbode.f1_hz = 150",
    # a loop delay the 1 kHz controller cannot realise
    *(f"scenario = {sc}\ngains.delay_t = {d}"
      for sc in ("force_tracking", "osc", "efficiency")
      for d in ("0.00025", "0.0015")),
    # a filter cutoff the simulated loop needs, spelled `none`, which is
    # not a number
    "scenario = osc\ngains.q_taud_cutoff = none",
    "scenario = force_tracking\ngains.q_d_cutoff = none\n"
    "force_tracking.kind = pd_f",
    "scenario = margins\ngains.q_d_cutoff = none",
    "scenario = margins\ngains.q_taud_cutoff = none",
    # a run longer than the run clock's ceiling
    "scenario = bode\nbode.chirp_s = 1e9",
    *(f"scenario = {key.split('.')[0]}\n{key} = 1e9" for key in _RUN_LENGTHS
      if key.endswith("duration_s")),
    "scenario = materials\nmaterials.w_cost = -1",
    # the thermal network has no optional field
    "scenario = thermal\nthermal.c_winding = none",
    # actuators that need more leg substeps per period than the ceiling
    "scenario = osc\nactuator.b_m = 1e3",
    "scenario = efficiency\nactuator.b_r = 1e9",
    # a hammer peak, or a weight total, past the floats
    "scenario = impact\nimpact.impulse_ns = 1e308",
    "scenario = materials\nmaterials.w_cost = 1e308\n"
    "materials.w_creep = 1e308",
], ids=["impact", "force_tracking", "position_step", "osc",
        "osc_first_knot_nan", "osc_middle_knot_nan", "thermal_burst",
        "thermal_hold", "efficiency_duration", "efficiency_payload",
        "efficiency_lift", "osc_payload", "osc_amplitude", "osc_center",
        "bode_chirp", "bode_f0", "materials_weights",
        "materials_min_damping", "bode_chirp_sub_step", "bode_chirp_1ms",
        "bode_chirp_short_record", "bode_chirp_silent",
        "force_tracking_sub_step", "position_step_sub_step",
        "position_step_zero_step", "bode_f1_nyquist", "bode_f1_above_nyquist",
        "bode_short_narrow_chirp", "bode_high_narrow_chirp",
        *(f"{sc}_delay_{d}" for sc in ("force_tracking", "osc", "efficiency")
          for d in ("quarter_ms", "1.5ms")),
        "osc_observer_cutoff_unset", "force_tracking_derivative_cutoff_unset",
        "margins_derivative_cutoff_unset", "margins_observer_cutoff_unset",
        "bode_chirp_1e9", *(f"{key}_1e9" for key in _RUN_LENGTHS
                            if key.endswith("duration_s")),
        "materials_negative_weight", "thermal_capacity_unset",
        "osc_drag_past_substep_ceiling",
        "efficiency_damping_past_substep_ceiling",
        "impact_peak_past_the_floats",
        "materials_weight_total_past_the_floats"])
def test_validate_range_checks_scenario_extras(tmp_path, capsys, lines):
    cfg = _write(tmp_path, "extras.cfg", f"{lines}\nout = extras_out\n")
    assert main(["validate", cfg]) == 2
    assert lines.splitlines()[1].split(".")[0] in capsys.readouterr().out
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "extras_out").exists()


@pytest.mark.parametrize("lines, name, charted", [
    ("gains.k_p = 1e9", "margin_table.csv", False),
    ("margins.calibrate = 1\ngains.k_p = 0\ngains.k_dm = 0",
     "margin_calibration.csv", True),
], ids=["stiff", "calibrate_without_feedback"])
def test_loops_without_a_crossing_leave_empty_cells(tmp_path, lines, name,
                                                    charted):
    cfg = _write(tmp_path, "flat.cfg",
                 f"scenario = margins\nout = flat_out\n{lines}\n")
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg]) == 0
    first_row = (tmp_path / "flat_out" / name).read_text().splitlines()[1]
    assert set(first_row.split(",")[1:]) == {""}
    # no loop crosses at any delay when k_p is huge, so there is no chart
    files = _read_manifest(tmp_path / "flat_out")["files"]
    assert ("margins_vs_delay.svg" in files) == charted


# k_p = 0.41 with a weak derivative behind a 200 Hz filter leaves the PDF
# loop's resonant peak below unity at every delay; the other loops cross
@pytest.mark.parametrize("overrides", [
    {}, {"gains.k_p": "0.41", "gains.k_df": "0.001",
         "gains.q_d_cutoff": "1256.6"}], ids=["default", "pd_f_flat"])
def test_margins_vs_delay_matches_a_phase_margin_per_delay(tmp_path,
                                                           overrides):
    cli.run({"scenario": "margins", "out": "mvd_out", **overrides})
    gains = replace(ControllerGains(),
                    **{k.split(".")[1]: float(v) for k, v in overrides.items()})
    pms = [[phase_margin(kind, VLCA_ACTUATOR, replace(gains, delay_t=float(t)))
            for t in MARGIN_DELAY_GRID] for kind in MARGIN_TABLE_ORDER]
    assert (tmp_path / "mvd_out" / "margins_vs_delay.csv").read_text() == \
        csv_per_cell("delay_ms," + ",".join(k.value for k in MARGIN_TABLE_ORDER),
                     [MARGIN_DELAY_GRID * 1e3, *pms])
    svg = (tmp_path / "mvd_out" / "margins_vs_delay.svg").read_text()
    crossing = [k.value for k, col in zip(MARGIN_TABLE_ORDER, pms)
                if not all(map(math.isnan, col))]
    assert len(crossing) == (3 if overrides else 4)
    assert svg.count("<polyline") == len(crossing)
    assert ("pd_f" in svg) == ("pd_f" in crossing)


@pytest.mark.parametrize("delay_t", ["0.00025", "0.0015"])
def test_margins_accept_a_fractional_delay(tmp_path, delay_t):
    # the margin scans analyse the continuous loop, not the 1 kHz controller
    cfg = _write(tmp_path, "frac.cfg", "scenario = margins\nout = frac_out\n"
                                       f"gains.delay_t = {delay_t}\n")
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg]) == 0


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_validate_accepts_each_default_scenario(scenario):
    assert cli.validate({"scenario": scenario}) == []


def test_position_step_defaults_are_the_library_defaults():
    params = inspect.signature(simkit.run_joint_position_control).parameters
    extras = cli._SCENARIOS["position_step"].extras
    assert extras["step_rad"][0] == params["step_rad"].default
    assert extras["duration_s"][0] == params["duration"].default


def _fails_with(exc, why):
    return pytest.mark.xfail(raises=exc, strict=True, reason=why)


# Edge values from a boundary scan of the numeric keys. A config that still
# fails its run is marked with the exception it raises, so mending it turns
# the mark into a failure that asks for the mark to go.
@pytest.mark.parametrize("scenario, key, value", [
    ("impact", "actuator.b_m", "10"),
    ("impact", "actuator.b_m", "1e3"),
    # completes with the knee swung far past a turn, nearly every step
    # saturated
    ("osc", "testbed.gravity", "1e3"),
    # too few samples of positive joint and shaft power leave the
    # efficiency averages empty: none at this torque constant, 9 on a
    # downward lift
    ("efficiency", "actuator.k_tau", "1e-9"),
    ("efficiency", "efficiency.lift_m", "-0.1"),
    pytest.param("bode", "actuator.j_m", "1e3", marks=_fails_with(
        cli.simkit.InsufficientExcitation,
        "the estimate fails its local-consistency test")),
    # the leg's substep floor keeps each of these heavily damped actuators
    # stable; a fixed 2 substeps per period diverges on every one
    ("osc", "actuator.b_m", "0.3"),
    ("osc", "actuator.b_m", "0.5"),
    ("osc", "actuator.b_m", "0.7"),
    ("osc", "actuator.b_m", "1"),
    ("osc", "actuator.b_r", "1.2e6"),
    # the hold settles, at 224.6 C: above limit_c, which the run reports
    ("thermal", "thermal.alpha", "0.01"),
])
def test_a_validated_boundary_config_runs(scenario, key, value):
    raw = {"scenario": scenario, "out": "edge_out", key: value}
    assert cli.validate(raw) == []
    try:
        assert cli.run(raw).status == "ok"
    except cli.ScenarioFailed as exc:
        raise exc.__cause__


def test_a_plant_past_the_floats_is_reported_as_diverged():
    # the struck plant's 1-norm overflows: its exponential is all NaN, and
    # the run reports the diverged response rather than failing inside it
    raw = {"scenario": "impact", "out": "edge_out", "actuator.b_m": "1e308"}
    assert cli.validate(raw) == []
    with pytest.raises(cli.ScenarioFailed) as failed:
        cli.run(raw)
    assert isinstance(failed.value.__cause__, simkit.NonFiniteState)


@pytest.mark.parametrize("scenario, key", [
    ("osc", "testbed.m1"), ("osc", "testbed.i1"),
    ("efficiency", "testbed.m1")])
def test_a_leg_past_the_floats_is_reported_as_diverged(scenario, key):
    # the leg's run kernel takes cos of a stage angle past the floats
    raw = {"scenario": scenario, "out": "edge_out", key: "1e308"}
    assert cli.validate(raw) == []
    with pytest.raises(cli.ScenarioFailed) as failed:
        cli.run(raw)
    assert isinstance(failed.value.__cause__, simkit.NonFiniteState)
    assert _read_manifest("edge_out")["error"] == \
        "NonFiniteState: leg simulation diverged at t=0.000 s"


@pytest.mark.parametrize("scenario", ["osc", "efficiency"])
def test_a_leg_with_a_singular_mass_matrix_is_a_config_error(tmp_path, capsys,
                                                             scenario):
    # no inertia about the knee: the thigh's mass sits on the knee and the
    # hip carries nothing
    cfg = _write(tmp_path, "knee.cfg", f"scenario = {scenario}\n"
                 f"out = knee_out\ntestbed.i2 = 0\ntestbed.c2 = 0\n"
                 f"{scenario}.payload_kg = 0\n")
    assert main(["validate", cfg]) == 2
    assert capsys.readouterr().out.startswith(
        "testbed.i2: i2 = 0 makes the leg's mass matrix singular")
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "knee_out").exists()


# one field of each namespace, set to a value inside its range
_NAMESPACE_KEYS = {"actuator": ("actuator.k_r", "5.5e6"),
                   "gains": ("gains.k_p", "4"),
                   "testbed": ("testbed.l1", "0.4"),
                   "thermal": ("thermal.c_winding", "0.2")}


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_a_namespace_the_scenario_does_not_read_is_unknown(tmp_path, capsys,
                                                          scenario):
    reads = cli._SCENARIOS[scenario].reads
    read_keys = dict(v for ns, v in _NAMESPACE_KEYS.items() if ns in reads)
    assert cli.validate({"scenario": scenario, **read_keys}) == []
    for ns, (key, value) in _NAMESPACE_KEYS.items():
        if ns in reads:
            continue
        cfg = _write(tmp_path, "unread.cfg",
                     f"scenario = {scenario}\nout = unread_out\n"
                     f"{key} = {value}\n")
        assert main(["validate", cfg]) == 2
        assert capsys.readouterr().out == f"{key}: unknown key\n"
        assert main(["run", cfg]) == 2
        assert not (tmp_path / "unread_out").exists()


@pytest.mark.parametrize("scenario", ["osc", "efficiency"])
def test_the_leg_payload_is_a_scenario_knob(tmp_path, capsys, scenario):
    cfg = _write(tmp_path, "payload.cfg", f"scenario = {scenario}\n"
                                          "out = payload_out\n"
                                          "testbed.payload_mass = 30\n")
    assert main(["validate", cfg]) == 2
    assert f"{scenario}.payload_kg" in capsys.readouterr().out
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "payload_out").exists()


def test_a_prepare_step_that_raises_is_a_config_error(tmp_path, capsys,
                                                      monkeypatch):
    def reject(spec):
        raise ValueError("impulse_ns out of range")

    monkeypatch.setitem(cli._SCENARIOS, "impact",
                        replace(cli._SCENARIOS["impact"], prepare=reject))
    cfg = _write(tmp_path, "imp.cfg", "scenario = impact\nout = imp_out\n")
    assert main(["validate", cfg]) == 2
    assert "impact.impulse_ns" in capsys.readouterr().out
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "imp_out").exists()


def test_thermal_overrides_are_checked_against_the_calibration(tmp_path,
                                                               capsys):
    # the calibrated r_ha_off is 45.65 K/W: the override is checked against
    # the calibrated network, not against a nominal one
    cfg = _write(tmp_path, "th.cfg", "scenario = thermal\nout = th_out\n"
                                     "thermal.r_ha_on = 45.8\n")
    assert main(["validate", cfg]) == 2
    assert "r_ha_on <= r_ha_off" in capsys.readouterr().out
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "th_out").exists()


@pytest.mark.parametrize("key, value", [
    ("thermal.alpha", "0.05"), ("thermal.alpha", "1"),
    ("thermal.r_elec_25", "1e300")])
def test_a_hold_past_thermal_runaway_is_a_config_error(tmp_path, capsys,
                                                       key, value):
    # the held current's heating outruns the cooling at every winding
    # temperature, so the hold has no settled temperature to reach
    [(where, why)] = cli.validate({"scenario": "thermal", key: value})
    assert where == "thermal"
    assert why.startswith("the 860 N hold draws 6.432 A, past thermal runaway")
    cfg = _write(tmp_path, "runaway.cfg", "scenario = thermal\n"
                 f"out = runaway_out\n{key} = {value}\n")
    assert main(["validate", cfg]) == 2
    assert "past thermal runaway" in capsys.readouterr().out
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "runaway_out").exists()


@pytest.mark.parametrize("scenario, key, value, error", [
    # the square of the hold current, which the calibration divides by,
    # underflows to zero or overflows
    ("thermal", "actuator.k_tau", "1e200", "ZeroDivisionError"),
    ("thermal", "actuator.eta", "1e-300", "OverflowError"),
    # the prepare step runs the thermal traces: the burst current's square
    # overflows, or a trace leaves the floats
    ("thermal", "thermal.burst_current_a", "1e308", "OverflowError"),
    ("thermal", "thermal.burst_current_a", "-1e308", "OverflowError"),
    ("thermal", "thermal.burst_current_a", "1e10", "NonFiniteState"),
    ("thermal", "thermal.ambient_c", "-1e308", "NonFiniteState"),
    ("thermal", "thermal.c_winding", "1e-308", "NonFiniteState"),
    ("thermal", "thermal.c_housing", "1e-308", "NonFiniteState"),
    ("thermal", "thermal.r_wh", "1e-308", "NonFiniteState"),
])
def test_a_config_whose_arithmetic_leaves_the_floats_is_a_config_error(
        tmp_path, capsys, scenario, key, value, error):
    [(where, why)] = cli.validate({"scenario": scenario, key: value})
    assert where == scenario
    assert why.startswith("the config's values leave the float range")
    assert error in why
    cfg = _write(tmp_path, "floats.cfg", f"scenario = {scenario}\n"
                 f"out = floats_out\n{key} = {value}\n")
    assert main(["validate", cfg]) == 2
    assert "leave the float range" in capsys.readouterr().out
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "floats_out").exists()


# a thermal map whose coefficients leave the floats is reported once, by
# the stepper, with no numpy warning printed ahead of the diagnostic
@pytest.mark.parametrize("key", ["thermal.c_winding", "thermal.c_housing",
                                 "thermal.r_wh"])
def test_a_thermal_map_past_the_floats_warns_nothing(key):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        [(where, why)] = cli.validate({"scenario": "thermal", key: "1e-308"})
    assert where == "thermal"
    assert "NonFiniteState" in why


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_line_is_diagnosed(tmp_path, capsys):
    cfg = _write(tmp_path, "warp.cfg", "scenario margins\n")
    assert main(["validate", cfg]) == 2
    assert "expected key = value" in capsys.readouterr().err


# --------------------------------------------------------------------- runs

def test_materials_run_emits_ranked_table(tmp_path, capsys):
    cfg = _write(tmp_path, "mat.cfg",
                 "scenario = materials\nout = mat_out\nseed = 7\n")
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "mat_out" in out
    man = _read_manifest(tmp_path / "mat_out")
    assert man["status"] == "ok"
    assert man["scenario"] == "materials"
    listed = set(man["files"])
    assert "manifest.json" not in listed
    for name in listed:
        assert (tmp_path / "mat_out" / name).exists()
    rank_csv = next(n for n in listed if "rank" in n and n.endswith(".csv"))
    lines = (tmp_path / "mat_out" / rank_csv).read_text().strip().splitlines()
    assert lines[0].startswith("rank,")
    assert lines[1].split(",")[1] == "Polyurethane 90A"
    assert any(n.endswith(".svg") for n in listed)


def test_materials_run_ranks_once(tmp_path, monkeypatch):
    calls = []
    rank = cli.elastomat.rank_materials

    def counted(*args, **kwargs):
        calls.append(args)
        return rank(*args, **kwargs)

    monkeypatch.setattr(cli.elastomat, "rank_materials", counted)
    cli.run({"scenario": "materials", "out": "mat_out"})
    assert len(calls) == 1


def test_margin_run_matches_the_analytic_table(tmp_path):
    cfg = _write(tmp_path, "marg.cfg",
                 "scenario = margins\nout = marg_out\nseed = 7\n")
    assert main(["run", cfg]) == 0
    text = (tmp_path / "marg_out" / "margin_table.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "controller,phase_margin_deg,gain_crossover_hz,gain_margin_db"
    labels = [ln.split(",")[0] for ln in lines[1:]]
    assert labels == ["pd_f", "pd_m", "pid_m", "pd_m_dob", "plant"]
    pdm = lines[2].split(",")
    assert float(pdm[1]) == pytest.approx(29.383283201882307, rel=1e-8)
    assert float(pdm[2]) == pytest.approx(
        270.06778155620424 / (2.0 * math.pi), rel=1e-8)


# short runs of every scenario; the position step ends before it settles,
# so its settling time is a missing value
_SHORT_RUNS = {
    "bode": {"bode.chirp_s": "2"},
    "margins": {},
    "force_tracking": {"force_tracking.duration_s": "0.2"},
    "position_step": {"position_step.duration_s": "0.2"},
    "impact": {},
    "osc": {"osc.duration_s": "0.2"},
    "thermal": {"thermal.burst_duration_s": "0.05",
                "thermal.hold_duration_s": "1"},
    "efficiency": {"efficiency.duration_s": "0.2"},
    "materials": {},
}


@pytest.mark.parametrize("scenario", _SHORT_RUNS)
def test_reruns_are_byte_identical(tmp_path, scenario):
    for out in ("first", "second"):
        lines = {"scenario": scenario, "out": out, "seed": "3",
                 **_SHORT_RUNS[scenario]}
        cfg = _write(tmp_path, f"{out}.cfg",
                     "".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert main(["run", cfg]) == 0
    names = _read_manifest(tmp_path / "first")["files"]
    assert names == _read_manifest(tmp_path / "second")["files"]
    for name in names:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, name


def _non_finite_number(cell: str) -> bool:
    try:
        return not math.isfinite(float(cell))
    except ValueError:
        return False


def test_every_csv_is_a_rectangular_table(tmp_path):
    assert set(_SHORT_RUNS) == set(cli.SCENARIOS)
    for scenario, extras in _SHORT_RUNS.items():
        man = cli.run({"scenario": scenario, "out": scenario, **extras})
        names = [n for n in man.files if n.endswith(".csv")]
        assert names, scenario
        for name in names:
            text = (tmp_path / scenario / name).read_text()
            assert text.endswith("\n"), name
            rows = list(csv.reader(io.StringIO(text)))
            header = rows[0]
            assert len(rows) > 1 and header not in rows[1:], name
            assert {len(r) for r in rows} == {len(header)}, name
            assert not any(_non_finite_number(c) for r in rows for c in r), name


@pytest.mark.parametrize("scenario, cascaded, ideal", [
    ("osc", "osc_cascaded_vlca.csv", "osc_ideal_torque.csv"),
    ("efficiency", "efficiency_lift.csv", None),
])
def test_gains_overrides_reach_the_leg_force_loops(tmp_path, scenario,
                                                   cascaded, ideal):
    base = {"scenario": scenario, **_SHORT_RUNS[scenario]}
    cli.run(dict(base, out="nominal"))
    cli.run(dict(base, out="stiff", **{"gains.k_p": "8"}))

    def same(name):
        return ((tmp_path / "nominal" / name).read_bytes()
                == (tmp_path / "stiff" / name).read_bytes())
    assert not same(cascaded)
    if ideal:
        assert same(ideal)  # no force loop in the ideal-torque leg


@pytest.mark.parametrize("cutoff", [None, "150"], ids=["default", "explicit"])
@pytest.mark.parametrize("scenario", ["force_tracking", "osc", "efficiency"])
def test_manifest_records_the_simulated_gains(tmp_path, monkeypatch,
                                              scenario, cutoff):
    simulated = []
    constants = cli.simkit.force_law_constants

    def recording(kind, params, gains):
        simulated.append(gains)
        return constants(kind, params, gains)

    monkeypatch.setattr(cli.simkit, "force_law_constants", recording)
    raw = {"scenario": scenario, "out": "run", **_SHORT_RUNS[scenario]}
    if cutoff is not None:
        raw["gains.q_taud_cutoff"] = cutoff
    cli.run(raw)
    recorded = ControllerGains(**_read_manifest(tmp_path / "run")
                               ["parameters"]["gains"])
    assert simulated and set(simulated) == {recorded}
    assert recorded.q_taud_cutoff == (
        EXPERIMENT_GAINS.q_taud_cutoff if cutoff is None else float(cutoff))


def test_margins_manifest_keeps_the_nominal_gains(tmp_path):
    cli.run({"scenario": "margins", "out": "run"})
    recorded = _read_manifest(tmp_path / "run")["parameters"]["gains"]
    assert ControllerGains(**recorded) == ControllerGains()
    assert recorded["q_taud_cutoff"] == 2.0 * math.pi * 15.0


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_manifest_records_only_the_namespaces_the_scenario_reads(tmp_path,
                                                                scenario):
    man = cli.run({"scenario": scenario, "out": "run",
                   **_SHORT_RUNS[scenario]})
    declared = {"thermal_overrides" if ns == "thermal" else ns
                for ns in cli._SCENARIOS[scenario].reads}
    assert set(man.parameters) == declared | {"extras"}


@pytest.mark.parametrize("scenario, payload_kg", [
    ("efficiency", None), ("efficiency", "30"), ("osc", None), ("osc", "5")])
def test_manifest_records_the_simulated_payload(tmp_path, monkeypatch,
                                                scenario, payload_kg):
    simulated = []
    simulate = cli.testbed.simulate_osc

    def recording(trajectory, payload, *args, **kwargs):
        simulated.append(payload)
        return simulate(trajectory, payload, *args, **kwargs)

    monkeypatch.setattr(cli.testbed, "simulate_osc", recording)
    raw = {"scenario": scenario, "out": "run", **_SHORT_RUNS[scenario]}
    if payload_kg is not None:
        raw[f"{scenario}.payload_kg"] = payload_kg
    cli.run(raw)
    recorded = _read_manifest(tmp_path / "run")["parameters"]["testbed"]
    assert simulated and set(simulated) == {recorded["payload_mass"]}
    if scenario == "efficiency" and payload_kg is None:
        assert recorded["payload_mass"] == 23.0


def test_seed_is_digested_but_not_recorded(tmp_path, monkeypatch):
    # same `out` under two roots, so only the seed differs in the config
    for seed in ("7", "8"):
        monkeypatch.setenv("VLCA_OUT", str(tmp_path / seed))
        cli.run({"scenario": "materials", "out": "run", "seed": seed})
    first, second = (_read_manifest(tmp_path / s / "run") for s in ("7", "8"))
    assert "seed" not in first["parameters"]
    assert first["config_digest"] != second["config_digest"]
    for name in first["files"]:
        assert ((tmp_path / "7" / "run" / name).read_bytes()
                == (tmp_path / "8" / "run" / name).read_bytes()), name


def test_set_overrides_reach_the_manifest(tmp_path):
    cfg = _write(tmp_path, "imp.cfg",
                 "scenario = impact\nout = imp_out\nseed = 3\n")
    assert main(["run", cfg, "--set", "impact.impulse_ns=12.5"]) == 0
    man = _read_manifest(tmp_path / "imp_out")
    assert man["parameters"]["extras"]["impulse_ns"] == 12.5


def test_failed_scenario_leaves_a_flagged_manifest(tmp_path, capsys,
                                                   monkeypatch):
    # validate() rejects every path the leg cannot reach, so the failure is
    # raised from inside the run
    def unreachable(*args, **kwargs):
        raise cli.testbed.WorkspaceViolation("path reaches radius 1.065 m")

    monkeypatch.setattr(cli.testbed, "simulate_osc", unreachable)
    cfg = _write(tmp_path, "fail.cfg",
                 "scenario = osc\nout = fail_out\nseed = 7\n"
                 "osc.duration_s = 1\n")
    assert main(["run", cfg]) == 3
    assert "scenario failed" in capsys.readouterr().err
    man = _read_manifest(tmp_path / "fail_out")
    assert man["status"] == "failed"
    assert "WorkspaceViolation" in man["error"]


def test_osc_manifest_counts_each_simulation(tmp_path):
    cfg = _write(tmp_path, "osc.cfg",
                 "scenario = osc\nout = osc_out\nosc.duration_s = 0.2\n")
    assert main(["run", cfg]) == 0
    counters = _read_manifest(tmp_path / "osc_out")["counters"]
    assert sorted(counters) == ["osc_cascaded_vlca", "osc_ideal_torque"]
    metrics = (tmp_path / "osc_out" / "osc_metrics.csv").read_text()
    for mode, row in zip(("ideal_torque", "cascaded_vlca"),
                         metrics.splitlines()[1:]):
        c = counters[f"osc_{mode}"]
        assert c["control_steps"] == 200
        assert c["leg_substeps"] == 200 * cli.testbed.LEG_SUBSTEPS[mode]
        assert c["rate_evaluations"] == 6 * c["leg_substeps"]
        assert c["saturated_steps"] == int(row.split(",")[2])
        assert c["singularity_damped_steps"] == 0


@pytest.mark.parametrize("calibrate,shapes", [
    ("0", {"margin_table": 5}),
    ("1", {"margin_table": 5, "calibrate_margins": 19})])
def test_margins_manifest_counts_each_loop_shape_once(tmp_path, calibrate,
                                                      shapes):
    # the table's five scans also serve the delay sweep; a calibration
    # scans PDM, 16 PDF cutoffs, PIDM and PDM_DOB
    raw = {"scenario": "margins", "out": "m_out",
           "margins.calibrate": calibrate}
    cli.run(raw)
    first = (tmp_path / "m_out" / "manifest.json").read_bytes()
    counters = json.loads(first)["counters"]
    assert {k: c["loop_shapes"] for k, c in counters.items()} == shapes
    for c in counters.values():
        assert c["grid_points"] == c["loop_shapes"] * 2601
        assert c["refinement_evaluations"] > 0
    cli.run(raw)
    assert (tmp_path / "m_out" / "manifest.json").read_bytes() == first


def test_output_root_env_var(tmp_path, monkeypatch):
    root = tmp_path / "elsewhere"
    monkeypatch.setenv("VLCA_OUT", str(root))
    cfg = _write(tmp_path, "mat.cfg",
                 "scenario = materials\nout = mat_out\nseed = 7\n")
    assert main(["run", cfg]) == 0
    assert (root / "mat_out" / "manifest.json").exists()


# -------------------------------------------------------------------- sweep

def test_sweep_fans_out_a_range(tmp_path, capsys):
    cfg = _write(tmp_path, "sw.cfg",
                 "scenario = impact\nout = sw_out\nseed = 3\n")
    assert main(["sweep", cfg, "--set", "impact.impulse_ns=10:30:10"]) == 0
    assert "3/3 sweep runs succeeded" in capsys.readouterr().out
    with open(tmp_path / "sw_out" / "sweep_manifest.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "ok"
    assert len(summary["runs"]) == 3
    for rec in summary["runs"]:
        assert rec["status"] == "ok"
        man = _read_manifest(rec["output_dir"])
        assert man["status"] == "ok"
    dirs = sorted(os.listdir(tmp_path / "sw_out"))
    assert dirs[0].startswith("000_impulse_ns=10")


def test_a_thermal_sweep_calibrates_each_actuator_once(tmp_path):
    # a sweep checks every combination before it runs the first, so each
    # actuator is asked for twice, in the same order; 34 of them are more
    # than a 32-entry LRU memo would keep
    cfg = _write(tmp_path, "th.cfg", "scenario = thermal\nout = th_out\n"
                                     "thermal.hold_duration_s = 1\n")
    powertherm._fit_network.cache_clear()
    assert main(["sweep", cfg, "--set", "actuator.m_r=1.0:4.3:0.1"]) == 0
    info = powertherm._fit_network.cache_info()
    assert (info.misses, info.hits) == (34, 34)


def test_a_sweep_under_vlca_out_writes_where_its_manifest_says(
        tmp_path, monkeypatch):
    root = tmp_path / "root"
    monkeypatch.setenv("VLCA_OUT", str(root))
    cfg = _write(tmp_path, "sw.cfg",
                 "scenario = materials\nout = sw_out\nseed = 3\n")
    assert main(["sweep", cfg, "--set", "materials.w_cost=1:2:1"]) == 0
    with open(root / "sw_out" / "sweep_manifest.json") as fh:
        runs = json.load(fh)["runs"]
    assert len(runs) == 2
    for rec in runs:
        assert os.path.dirname(rec["output_dir"]) == str(root / "sw_out")
        assert _read_manifest(rec["output_dir"])["status"] == "ok"
    # nothing lands beside the sweep root
    assert os.listdir(root) == ["sw_out"]


def test_sweep_jobs_are_clamped_to_the_core_count(tmp_path, monkeypatch):
    started = []

    class _InlinePool:
        """Records the requested pool size and runs the work in-process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cfg = _write(tmp_path, "sw.cfg",
                 "scenario = materials\nout = sw_out\nseed = 3\n")
    assert main(["sweep", cfg, "--set", "materials.w_cost=1:2:1",
                 "--jobs", "10000"]) == 0
    assert started == [2]


def test_sweep_requires_a_set_expression(tmp_path):
    cfg = _write(tmp_path, "sw.cfg", "scenario = impact\nout = x\nseed = 3\n")
    with pytest.raises(SystemExit):
        main(["sweep", cfg])


def test_sweep_rejects_a_backwards_range(tmp_path, capsys):
    cfg = _write(tmp_path, "sw.cfg", "scenario = impact\nout = x\nseed = 3\n")
    assert main(["sweep", cfg, "--set", "impact.impulse_ns=30:10:10"]) == 2
    assert "step > 0" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["gains.delay_t=0:1:1e-5",
                                  "gains.delay_t=0:1:1e-12",
                                  "gains.delay_t=0:1e300:1e-300"])
def test_sweep_ranges_stop_at_the_run_ceiling(expr):
    # checked from (b - a)/step before any value is made
    with pytest.raises(cli.ConfigInvalid, match="more than 1,000 runs"):
        cli._parse_set(expr)


def test_sweep_ranges_reach_the_run_ceiling():
    n = simkit.MAX_SWEEP_RUNS
    assert cli._parse_set(f"k=1:{n}:1")[1] == [str(i) for i in range(1, n + 1)]
    with pytest.raises(cli.ConfigInvalid):
        cli._parse_set(f"k=1:{n + 1}:1")


@pytest.mark.parametrize("expr", ["k=0:1:nan", "k=nan:1:0.1", "k=0:inf:1"])
def test_sweep_rejects_a_non_finite_range(expr):
    with pytest.raises(cli.ConfigInvalid):
        cli._parse_set(expr)


def test_sweep_product_of_axes_is_checked_before_any_run(tmp_path, capsys):
    # two 100-value axes: 10,000 combinations
    cfg = _write(tmp_path, "sw.cfg", "scenario = impact\nout = sw_out\n")
    assert main(["sweep", cfg, "--set", "impact.impulse_ns=1:100:1",
                 "--set", "impact.pulse_width_s=0.001:0.1:0.001"]) == 2
    assert "more than 1,000 runs" in capsys.readouterr().err
    assert not (tmp_path / "sw_out").exists()


def test_sweep_with_a_bad_combination_writes_nothing(tmp_path, capsys):
    # 1.5 s is past the longest accepted loop delay
    cfg = _write(tmp_path, "sw.cfg", "scenario = margins\nout = sw_out\n")
    assert main(["sweep", cfg, "--set", "gains.delay_t=0.5:1.5:0.5"]) == 2
    err = capsys.readouterr().err
    assert "002_delay_t=1.5: gains.delay_t" in err
    assert "000_" not in err and "001_" not in err
    assert not (tmp_path / "sw_out").exists()
