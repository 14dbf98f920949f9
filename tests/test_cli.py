"""Scenario runner: config validation, manifests, reruns, sweeps."""
import json
import math
import os

import pytest

from vlcasim import cli
from vlcasim.cli import main


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


@pytest.mark.parametrize("lines", [
    "scenario = impact\nimpact.pulse_width_s = 0.01",
    "scenario = force_tracking\nforce_tracking.duration_s = -1",
    "scenario = position_step\nposition_step.duration_s = -1",
    "scenario = osc\nosc.trajectory = bspline\nosc.knots = 0.18,0.45; 0.2",
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
], ids=["impact", "force_tracking", "position_step", "osc", "thermal_burst",
        "thermal_hold", "efficiency_duration", "efficiency_payload",
        "efficiency_lift", "osc_payload", "osc_amplitude", "osc_center",
        "bode_chirp", "bode_f0", "materials_weights",
        "materials_min_damping"])
def test_validate_range_checks_scenario_extras(tmp_path, capsys, lines):
    cfg = _write(tmp_path, "extras.cfg", f"{lines}\nout = extras_out\n")
    assert main(["validate", cfg]) == 2
    assert lines.splitlines()[1].split(".")[0] in capsys.readouterr().out
    assert main(["run", cfg]) == 2
    assert not (tmp_path / "extras_out").exists()


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


def test_reruns_are_byte_identical(tmp_path):
    for out in ("first", "second"):
        cfg = _write(tmp_path, f"imp_{out}.cfg",
                     f"scenario = impact\nout = {out}\nseed = 3\n")
        assert main(["run", cfg]) == 0
    names = _read_manifest(tmp_path / "first")["files"]
    assert names == _read_manifest(tmp_path / "second")["files"]
    for name in names:
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        assert a == b, name


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
        assert c["rk4_substeps"] == 200 * cli.testbed.LEG_SUBSTEPS[mode]
        assert c["saturated_steps"] == int(row.split(",")[2])
        assert c["singularity_damped_steps"] == 0


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
