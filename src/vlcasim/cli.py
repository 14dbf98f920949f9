"""Scenario runner: declarative configs in, CSV tables + SVG charts out.

Config files are flat `key = value` lines ('#' comments allowed). The
`scenario` key picks the experiment; dotted keys set one of its own knobs
or override a field of a namespace it reads (actuator, controller gains,
leg, thermal model). A key outside those is unknown.

Each scenario is one `_SCENARIOS` record: its knobs, the namespaces it
reads, and a (prepare, execute) pair. One walk over the config
(`_resolve`) type- and range-checks every key, then runs the scenario's
prepare step, which builds and checks its inputs before its simulations
start and leaves them on the RunSpec. `validate` reports what that walk
rejects; `run` hands the prepared spec to execute, which simulates and
writes. Every run finishes by writing manifest.json listing the emitted
files, the parameters it read, and the config digest; a failed run
still writes the manifest, flagged failed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from . import __version__, elastomat, lintf, powertherm, simkit, svgplot, testbed
from .vlca import (ActuatorParams, ControllerGains, ControllerKind,
                   DEFAULT_MOMENT_ARM, EXPERIMENT_GAINS, MARGIN_DELAY_GRID,
                   MARGIN_TABLE_ORDER, MissingFilterCutoff, VLCA_ACTUATOR,
                   calibrate_margins, force_plant, margin_table,
                   margin_table_to_csv, open_loop_tf)


class ConfigInvalid(Exception):
    """Config rejected; carries (key, message) diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"{k}: {m}" for k, m in self.diagnostics))


class ScenarioFailed(Exception):
    """A scenario raised while running; the manifest records the error."""


_KIND_BY_NAME = {k.value: k for k in ControllerKind}

_GLOBAL_KEYS = ("scenario", "out", "seed")


def parse_config_text(text: str) -> dict:
    """Flat key/value lines to an ordered raw-string mapping."""
    raw = {}
    diags = []
    for ln_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            diags.append((f"line {ln_no}", f"expected key = value, got {stripped!r}"))
            continue
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    if diags:
        raise ConfigInvalid(diags)
    return raw


def _coerce(raw: str):
    low = raw.lower()
    if low in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


@dataclass
class RunSpec:
    """A checked config. Only the namespaces its scenario reads are set, so
    a scenario cannot read one it did not declare."""
    scenario: str
    out: str
    extras: dict
    digest: str
    actuator: Optional[ActuatorParams] = None
    gains: Optional[ControllerGains] = None
    testbed: Optional[testbed.TwoDofParams] = None
    # the thermal.* overrides: the network they apply to is calibrated in
    # the thermal prepare step, which also range-checks them
    thermal: Optional[dict] = None
    inputs: object = None  # what the scenario's prepare step built


def _resolve(raw_config: dict):
    """The one walk from a raw config to a runnable spec: (diagnostics,
    RunSpec or None). Keys are type-checked, the namespaces the scenario
    reads range-checked through their dataclasses, and then the scenario's
    prepare step runs once; its result is the spec's `inputs`. A key that
    is neither a knob of the scenario nor a field of a namespace it reads
    is unknown."""
    if "scenario" not in raw_config:
        return [("scenario", "missing required key `scenario`")], None
    scenario = str(raw_config["scenario"])
    if scenario not in _SCENARIOS:
        return [("scenario", f"unknown scenario {scenario!r}; expected one "
                             f"of {', '.join(SCENARIOS)}")], None
    sc = _SCENARIOS[scenario]

    diags = []
    overrides = {ns: {} for ns in sc.reads}
    extras = {name: default for name, (default, _) in sc.extras.items()}
    for key, raw_val in raw_config.items():
        if key in _GLOBAL_KEYS:
            if key == "seed" and not isinstance(_coerce(str(raw_val)), int):
                diags.append((key, "expected an integer"))
            continue
        prefix, _, leaf = key.partition(".")
        value = _coerce(str(raw_val))
        if prefix == scenario and leaf in sc.extras:
            kind = sc.extras[leaf][1]
            if kind == "float" and not isinstance(value, (int, float)):
                diags.append((key, "expected a number"))
            elif kind == "float" and not math.isfinite(value):
                diags.append((key, "expected a finite number"))
            elif kind == "int" and not isinstance(value, int):
                diags.append((key, "expected an integer"))
            elif kind == "str":
                pass  # free-form text, parsed by the scenario
            elif isinstance(kind, tuple) and value not in kind:
                diags.append((key, f"expected one of {', '.join(kind)}"))
            extras[leaf] = value
            continue
        fld = None
        if prefix in sc.reads:
            fld = {f.name: f for f in fields(sc.reads[prefix])}.get(leaf)
        if fld is None:
            diags.append((key, "unknown key"))
        elif (prefix, fld.name) == ("testbed", "payload_mass"):
            # both leg scenarios carry their payload as a knob of their own
            diags.append((key, f"the payload is {scenario}.payload_kg"))
        elif value is None and "Optional" in str(fld.type):
            overrides[prefix][fld.name] = None  # an unset filter cutoff
        elif not isinstance(value, (int, float)):
            diags.append((key, "expected a number"))
        elif not math.isfinite(value):
            diags.append((key, "expected a finite number"))
        else:
            overrides[prefix][fld.name] = value

    # a range error goes to the declared key that its message starts with,
    # else to the namespace or scenario whose check raised
    keys = [(scenario, n) for n in sc.extras]
    keys += [(ns, f.name) for ns in sc.reads for f in fields(sc.reads[ns])]

    def error_key(exc, fallback):
        word = str(exc).split(" ", 1)[0]
        return next((f"{ns}.{n}" for ns, n in keys if n == word), fallback)

    # range checks through the dataclass invariants; a namespace declared
    # by its class is built, and checked, by the prepare step
    resolved = {}
    for ns, base in sc.reads.items():
        if isinstance(base, type):
            resolved[ns] = overrides[ns]
            continue
        try:
            resolved[ns] = replace(base, **overrides[ns])
        except ValueError as exc:
            diags.append((error_key(exc, ns), str(exc)))
    if diags:
        return diags, None

    spec = RunSpec(
        scenario=scenario,
        out=str(raw_config.get("out", f"out_{scenario}")),
        extras=extras,
        digest=hashlib.sha256(
            "\n".join(f"{k}={raw_config[k]}" for k in sorted(raw_config))
            .encode()).hexdigest(),
        **resolved,
    )
    # range checks through the scenario's own input builders
    try:
        spec.inputs = sc.prepare(spec)
    except (ValueError, testbed.WorkspaceViolation, elastomat.AllExcluded,
            powertherm.CalibrationInfeasible, simkit.InsufficientExcitation,
            MissingFilterCutoff) as exc:
        return [(error_key(exc, scenario), str(exc))], None
    except ArithmeticError as exc:
        return [(scenario, f"the config's values leave the float range "
                           f"({type(exc).__name__}: {exc})")], None
    return [], spec


def validate(raw_config: dict) -> list:
    """Diagnostics (key path, message) that run() would reject; empty
    means the config is runnable."""
    return _resolve(raw_config)[0]


def build_run_spec(raw_config: dict) -> RunSpec:
    """The checked spec with its scenario inputs prepared; raises
    ConfigInvalid carrying validate()'s diagnostics."""
    diags, spec = _resolve(raw_config)
    if diags:
        raise ConfigInvalid(diags)
    return spec


def _resolve_outdir(spec_out: str) -> str:
    root = os.environ.get("VLCA_OUT")
    if root:
        return os.path.join(root, os.path.basename(spec_out.rstrip("/")) or "run")
    return spec_out


# --------------------------------------------------------------- output

class _Emitter:
    def __init__(self, outdir: str):
        self.outdir = outdir
        self.files = []
        self.counters = {}  # simulation name -> deterministic work counts

    def write(self, name: str, content: str):
        path = os.path.join(self.outdir, name)
        with open(path, "w", newline="") as fh:
            fh.write(content)
        self.files.append(name)


# Each scenario is a (prepare, execute) pair. prepare(spec) builds and
# checks the scenario's inputs before its simulations start; it raises
# ValueError, ArithmeticError, WorkspaceViolation, AllExcluded,
# CalibrationInfeasible, InsufficientExcitation or MissingFilterCutoff for
# a config it cannot run, which validate() reports. The two leg scenarios'
# prepare steps also set spec.testbed to the leg they simulate, payload
# included. execute(spec, em) runs the scenario on spec.inputs and writes
# its files.

def _bode_chirp(spec: RunSpec):
    x = spec.extras
    if x["chirp_amp_a"] == 0.0:
        raise ValueError("chirp_amp_a must be nonzero")
    nyquist = 0.5 / simkit.CONTROL_DT
    if x["f1_hz"] >= nyquist:
        # a sweep past Nyquist aliases into the band it is meant to measure
        raise ValueError(f"f1_hz must be below the {nyquist:g} Hz Nyquist "
                         "frequency of the control-rate record")
    n = simkit.chirp_record_samples(x["chirp_s"])
    if n < simkit.FRF_MIN_SAMPLES:
        raise ValueError(f"chirp_s gives a {n}-sample record; the response "
                         f"estimate needs {simkit.FRF_MIN_SAMPLES}")
    chirp = simkit.ChirpRef(amplitude=x["chirp_amp_a"], f0_hz=x["f0_hz"],
                            f1_hz=x["f1_hz"], duration_s=x["chirp_s"])
    # the run steps this drive; the band check sees the commanded-force
    # column the estimator will find
    drive = simkit.chirp_drive(chirp)
    simkit.excited_band(spec.actuator.drive_constant * drive,
                        simkit.CONTROL_DT, held=True)
    return drive


def _scenario_bode(spec: RunSpec, em: _Emitter):
    plant = force_plant(spec.actuator)
    model = lintf.bode_sweep(plant, 2.0 * math.pi * 0.05,
                             2.0 * math.pi * 200.0, 48)
    em.write("plant_model_frf.csv", lintf.frf_to_csv(model))
    trace = simkit.run_plant_chirp(spec.inputs, spec.actuator)
    emp = simkit.empirical_frequency_response(trace)
    em.write("plant_chirp_frf.csv", lintf.frf_to_csv(emp))

    def curves(attr):
        return [(label, [p.omega / (2 * math.pi) for p in pts],
                 [getattr(p, attr) for p in pts])
                for label, pts in (("model", model), ("chirp estimate", emp))]
    em.write("bode_magnitude.svg", svgplot.line_chart(
        curves("magnitude"), title="Force plant magnitude",
        xlabel="frequency [Hz]", ylabel="|F/Fcmd|", logx=True, logy=True))
    em.write("bode_phase.svg", svgplot.line_chart(
        curves("phase_deg"), title="Force plant phase",
        xlabel="frequency [Hz]", ylabel="phase [deg]", logx=True))


def _margin_loops(spec: RunSpec):
    # a filter cutoff that one of the four loops needs, left unset, is a
    # config error
    for kind in MARGIN_TABLE_ORDER:
        open_loop_tf(kind, spec.actuator, spec.gains)


def _scenario_margins(spec: RunSpec, em: _Emitter):
    entries = margin_table(spec.actuator, spec.gains)
    em.write("margin_table.csv", margin_table_to_csv(entries))

    pms = {k: lintf.phase_margins(open_loop_tf(k, spec.actuator, spec.gains),
                                  MARGIN_DELAY_GRID)
           for k in MARGIN_TABLE_ORDER}
    delay_ms = MARGIN_DELAY_GRID * 1e3
    em.write("margins_vs_delay.csv", lintf.csv_table(
        "delay_ms," + ",".join(k.value for k in MARGIN_TABLE_ORDER),
        [delay_ms, *pms.values()]))
    curves = [(k.value, delay_ms, ys) for k, ys in pms.items()
              if np.isfinite(ys).any()]
    if curves:
        em.write("margins_vs_delay.svg", svgplot.line_chart(
            curves, title="Phase margin vs loop delay", xlabel="delay [ms]",
            ylabel="phase margin [deg]"))

    if spec.extras["calibrate"]:
        cal = calibrate_margins(spec.actuator, spec.gains)
        em.write("margin_calibration.csv", lintf.csv_table(
            "delay_ms,q_d_cutoff_hz,pm_pd_f,pm_pd_m,pm_pid_m,pm_pd_m_dob,"
            "objective_deg",
            [[v] for v in (cal.delay_t * 1e3, cal.q_d_cutoff / (2 * math.pi),
                           cal.pm_pdf_deg, cal.pm_pdm_deg, cal.pm_pidm_deg,
                           cal.pm_pdm_dob_deg, cal.objective_deg)]))


def _force_inputs(spec: RunSpec):
    x = spec.extras
    simkit.control_steps(x["duration_s"], "duration_s")
    kind = _KIND_BY_NAME[x["kind"]]
    # a fractional-sample delay or an unset cutoff is a config error
    simkit.DiscreteForceController(kind, spec.actuator, spec.gains)
    full_scale = x["amplitude_nm"] / DEFAULT_MOMENT_ARM
    ref_name = x["reference"]
    if ref_name == "ramp":
        ref = simkit.RampRef(start_level=1.0 / DEFAULT_MOMENT_ARM,
                             end_level=full_scale, start_time=0.05,
                             ramp_time=0.1)
    elif ref_name == "step":
        ref = simkit.StepRef(level=full_scale, start_time=0.05)
    elif ref_name == "sine":
        ref = simkit.SineRef(amplitude=full_scale, freq_hz=x["freq_hz"])
    else:
        ref = simkit.ChirpRef(amplitude=full_scale, f0_hz=0.5,
                              f1_hz=min(x["freq_hz"] * 40.0, 200.0),
                              duration_s=max(x["duration_s"] - 0.5, 0.5))
    return kind, ref


def _scenario_force_tracking(spec: RunSpec, em: _Emitter):
    x = spec.extras
    kind, ref = spec.inputs
    trace = simkit.run_force_tracking(kind, spec.gains, ref, x["duration_s"],
                                      params=spec.actuator)
    em.write("force_tracking.csv", trace.to_csv())
    em.write("force_tracking.svg", svgplot.line_chart(
        [("commanded", trace.t, trace.f_cmd),
         ("measured", trace.t, trace.f_meas)],
        title=f"Force tracking ({x['kind']}, {x['reference']})",
        xlabel="time [s]", ylabel="force [N]"))


def _position_step_check(spec: RunSpec):
    x = spec.extras
    simkit.control_steps(x["duration_s"], "duration_s")
    if x["step_rad"] == 0.0:
        # the step is the scale of the overshoot and settling metrics
        raise ValueError("step_rad must be nonzero")


def _scenario_position_step(spec: RunSpec, em: _Emitter):
    x = spec.extras
    metrics, curves = [], []
    for element in ("elastomer", "steel_spring"):
        trace = simkit.run_joint_position_control(
            element, step_rad=x["step_rad"], duration=x["duration_s"],
            params=spec.actuator)
        em.write(f"position_step_{element}.csv", trace.to_csv())
        # settling_time_s is inf, an empty cell, if the run never settles
        metrics.append((element, trace.meta["overshoot_frac"],
                        trace.meta["settling_time_s"]))
        curves.append((element, trace.t, trace.q_out))
    em.write("position_step_metrics.csv", lintf.csv_table(
        "element,overshoot_frac,settling_s", zip(*metrics)))
    em.write("position_step.svg", svgplot.line_chart(
        curves, title="Joint step response by series element",
        xlabel="time [s]", ylabel="joint angle [rad]"))


def _impact_configs(spec: RunSpec) -> list:
    x = spec.extras
    return [simkit.ImpactConfig(grounding=grounding, impulse_ns=x["impulse_ns"],
                                pulse_width_s=x["pulse_width_s"])
            for grounding in ("rigid", "viscoelastic")]


def _scenario_impact(spec: RunSpec, em: _Emitter):
    peaks, curves = [], []
    for cfg in spec.inputs:
        trace = simkit.run_impact(cfg, spec.actuator)
        em.write(f"impact_{cfg.grounding}.csv", trace.to_csv())
        peaks.append((cfg.grounding, np.max(np.abs(trace.f_loadcell)),
                      np.max(np.abs(trace.x_r))))
        keep = trace.t <= 0.05
        curves.append((cfg.grounding, trace.t[keep], trace.f_loadcell[keep]))
    em.write("impact_peaks.csv", lintf.csv_table(
        "grounding,peak_loadcell_n,peak_deflection_m", zip(*peaks)))
    em.write("impact.svg", svgplot.line_chart(
        curves, title="Hammer strike load-cell force",
        xlabel="time [s]", ylabel="force [N]"))


def _parse_knots(text: str):
    pts = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        toks = chunk.split(",")
        if len(toks) != 2:
            raise ValueError(f"knot {chunk!r} is not an x,y pair")
        pts.append((float(toks[0]), float(toks[1])))
    return pts


def _osc_trajectory(spec: RunSpec):
    x = spec.extras
    if x["trajectory"] == "bspline":
        # default: rest-to-rest hop of amplitude_m above the center point
        c = (x["center_x"], x["center_y"])
        top = (x["center_x"], x["center_y"] + x["amplitude_m"])
        pts = _parse_knots(x["knots"]) or [c, c, top, c, c]
        traj = testbed.BSplineTrajectory(pts, x["duration_s"])
    else:
        traj = testbed.SineTrajectory(center=(x["center_x"], x["center_y"]),
                                      amplitude=(0.0, x["amplitude_m"]),
                                      freq_hz=x["freq_hz"],
                                      phase_rad=x["phase_rad"])
    spec.testbed = testbed.osc_run_inputs(
        traj, x["payload_kg"], x["duration_s"], spec.testbed, spec.actuator,
        spec.gains)[0]
    return traj


def _scenario_osc(spec: RunSpec, em: _Emitter):
    x = spec.extras
    metrics, err_curves, y_curves = [], [], []
    for mode in ("ideal_torque", "cascaded_vlca"):
        trace = testbed.simulate_osc(spec.inputs, x["payload_kg"], mode,
                                     x["duration_s"], params=spec.testbed,
                                     actuator=spec.actuator,
                                     force_gains=spec.gains)
        em.counters[f"osc_{mode}"] = trace.counters()
        em.write(f"osc_{mode}.csv", trace.to_csv())
        err = np.linalg.norm(trace.x - trace.x_des, axis=1)
        metrics.append((mode, trace.max_tracking_error(),
                        trace.saturation_count))
        err_curves.append((mode, trace.t, err))
        y_curves.append((mode, trace.t, trace.x[:, 1]))
    y_curves.append(("command", trace.t, trace.x_des[:, 1]))
    em.write("osc_metrics.csv", lintf.csv_table(
        "mode,max_error_m,saturated_steps", zip(*metrics)))
    em.write("osc_error.svg", svgplot.line_chart(
        err_curves, title="Hip tracking error", xlabel="time [s]",
        ylabel="error [m]"))
    em.write("osc_height.svg", svgplot.line_chart(
        y_curves, title="Hip height", xlabel="time [s]", ylabel="y [m]"))


_HOLD_DT = 0.01  # step of the long thermal hold [s]


def _thermal_params(spec: RunSpec):
    simkit.control_steps(spec.extras["burst_duration_s"], "burst_duration_s")
    simkit.control_steps(spec.extras["hold_duration_s"], "hold_duration_s",
                         _HOLD_DT)
    # the overrides are checked against the calibrated network itself
    report = powertherm.calibrate_thermal(spec.actuator)
    params = replace(report.params, **spec.thermal)
    # a short burst may pass thermal runaway, the held current may not
    hold_n = spec.extras["hold_force_n"]
    i_hold = hold_n / spec.actuator.drive_constant
    if not math.isfinite(powertherm.steady_state_winding(i_hold, params)):
        raise ValueError(f"the {hold_n:g} N hold draws {i_hold:.4g} A, past "
                         "thermal runaway: the winding heats faster than the "
                         "coolant removes heat at any temperature")
    return report, params, i_hold


def _scenario_thermal(spec: RunSpec, em: _Emitter):
    x = spec.extras
    report, params, i_hold = spec.inputs
    rows = [(f.name, getattr(params, f.name))
            for f in fields(powertherm.ThermalParams)]
    rows += [(f"residual_{name}", val)
             for name, val in sorted(report.residuals.items())]
    em.write("thermal_params.csv", lintf.csv_table("name,value", zip(*rows)))

    burst = powertherm.simulate_constant_current(
        x["burst_current_a"], x["burst_duration_s"], params)
    tail = powertherm.simulate_constant_current(
        0.0, 10.0, params,
        initial=powertherm.ThermalState(burst.t_winding[-1],
                                        burst.t_housing[-1]))
    burst_trace = powertherm.ThermalTrace(
        t=np.concatenate([burst.t, burst.t[-1] + tail.t[1:]]),
        current_a=np.concatenate([burst.current_a, tail.current_a[1:]]),
        t_winding=np.concatenate([burst.t_winding, tail.t_winding[1:]]),
        t_housing=np.concatenate([burst.t_housing, tail.t_housing[1:]]),
        cooling_on=True)
    em.write("thermal_burst.csv", powertherm.thermal_trace_to_csv(burst_trace))

    hold = powertherm.simulate_constant_current(i_hold, x["hold_duration_s"],
                                                params, dt=_HOLD_DT)
    em.write("thermal_hold.csv", powertherm.thermal_trace_to_csv(hold))

    lim = []
    for label, on in (("on", True), ("off", False)):
        r = powertherm.continuous_force_limit(params, spec.actuator,
                                              cooling_on=on)
        lim.append((label, r.current_a, r.screw_force_n, r.joint_torque_nm))
    em.write("thermal_limits.csv", lintf.csv_table(
        "cooling,current_a,screw_force_n,joint_torque_nm", zip(*lim)))
    em.write("thermal.svg", svgplot.line_chart(
        [("burst winding", burst_trace.t, burst_trace.t_winding),
         ("hold winding", hold.t, hold.t_winding),
         ("hold housing", hold.t, hold.t_housing)],
        title="Winding and housing temperatures", xlabel="time [s]",
        ylabel="temperature [C]"))


_LIFT_START = (0.18, 0.30)  # hip position the lift starts from [m]
_LIFT_HOLD_S = 0.5  # simulated hold at the top of the lift [s]


def _lift_trajectory(spec: RunSpec):
    x = spec.extras
    traj = testbed.BSplineTrajectory.vertical_lift(_LIFT_START, x["lift_m"],
                                                   x["duration_s"])
    spec.testbed = testbed.osc_run_inputs(
        traj, x["payload_kg"], x["duration_s"] + _LIFT_HOLD_S, spec.testbed,
        spec.actuator, spec.gains)[0]
    return traj


def _scenario_efficiency(spec: RunSpec, em: _Emitter):
    x = spec.extras
    trace = testbed.simulate_osc(spec.inputs, x["payload_kg"],
                                 "cascaded_vlca", x["duration_s"] + _LIFT_HOLD_S,
                                 params=spec.testbed, actuator=spec.actuator,
                                 force_gains=spec.gains)
    em.counters["efficiency_lift"] = trace.counters()
    em.write("efficiency_lift.csv", trace.to_csv())
    s = powertherm.power_flow(trace, spec.actuator)
    em.write("efficiency_power.csv", powertherm.power_samples_to_csv(s))
    names = ("drivetrain_efficiency_avg", "electrical_efficiency_avg", "n_averaged")
    em.write("efficiency_summary.csv", lintf.csv_table(
        "name,value", [names, [getattr(s, n) for n in names]]))
    em.write("efficiency.svg", svgplot.line_chart(
        [("joint", s.t, s.p_joint), ("motor shaft", s.t, s.p_motor),
         ("electrical", s.t, s.p_in)],
        title="Lift power flow", xlabel="time [s]", ylabel="power [W]"))


def _material_ranking(spec: RunSpec):
    x = spec.extras
    weights = {c: x[f"w_{c}"] for c in elastomat.RANK_CRITERIA}
    min_damping = x["min_damping"] if x["min_damping"] >= 0.0 else None
    records = elastomat.builtin_materials()
    return records, elastomat.rank_materials(records, weights, min_damping)


def _scenario_materials(spec: RunSpec, em: _Emitter):
    records, result = spec.inputs
    em.write("materials.csv", elastomat.materials_to_csv(records))
    names, scores = zip(*result.ranked)
    ranks = list(range(1, len(names) + 1))
    em.write("materials_ranked.csv", lintf.csv_table(
        "rank,name,score", [ranks, names, scores]))
    if result.excluded:
        em.write("materials_excluded.csv", lintf.csv_table(
            "name,reason", zip(*result.excluded)))
    em.write("materials_scores.svg", svgplot.line_chart(
        [("score", ranks, scores)],
        title="Material ranking scores", xlabel="rank", ylabel="score"))


@dataclass(frozen=True)
class _Scenario:
    # knob name -> (default, kind); kind is "float", "int", "str" or a
    # tuple of allowed strings
    extras: dict
    # each namespace the scenario reads -> the instance its overrides
    # replace, or its class when the prepare step builds the instance
    reads: dict
    prepare: Callable[[RunSpec], object]
    execute: Callable[[RunSpec, _Emitter], None]


# a scenario that simulates a closed force loop starts from the experiment
# gains, `margins` from the nominal ones
_SCENARIOS = {
    "bode": _Scenario(
        {"f0_hz": (0.5, "float"), "f1_hz": (150.0, "float"),
         "chirp_s": (40.0, "float"), "chirp_amp_a": (2.0, "float")},
        {"actuator": VLCA_ACTUATOR}, _bode_chirp, _scenario_bode),
    "margins": _Scenario(
        {"calibrate": (0, "int")},
        {"actuator": VLCA_ACTUATOR, "gains": ControllerGains()},
        _margin_loops, _scenario_margins),
    "force_tracking": _Scenario(
        {"kind": ("pd_m_dob", tuple(_KIND_BY_NAME)),
         "reference": ("ramp", ("step", "ramp", "sine", "chirp")),
         "amplitude_nm": (25.0, "float"), "duration_s": (1.0, "float"),
         "freq_hz": (5.0, "float")},
        {"actuator": VLCA_ACTUATOR, "gains": EXPERIMENT_GAINS},
        _force_inputs, _scenario_force_tracking),
    "position_step": _Scenario(
        {"step_rad": (simkit.POSITION_STEP_RAD, "float"),
         "duration_s": (simkit.POSITION_STEP_DURATION_S, "float")},
        {"actuator": VLCA_ACTUATOR},
        _position_step_check, _scenario_position_step),
    "impact": _Scenario(
        {"impulse_ns": (simkit.ImpactConfig.impulse_ns, "float"),
         "pulse_width_s": (simkit.ImpactConfig.pulse_width_s, "float")},
        {"actuator": VLCA_ACTUATOR}, _impact_configs, _scenario_impact),
    "osc": _Scenario(
        {"trajectory": ("sine", ("sine", "bspline")),
         "freq_hz": (1.7, "float"), "amplitude_m": (0.15, "float"),
         "payload_kg": (testbed.TwoDofParams.payload_mass, "float"),
         "duration_s": (3.0, "float"),
         "phase_rad": (1.2, "float"), "center_x": (0.18, "float"),
         "center_y": (0.45, "float"),
         # bspline knot list as "x0,y0; x1,y1; ..." control points
         "knots": ("", "str")},
        {"actuator": VLCA_ACTUATOR, "gains": EXPERIMENT_GAINS,
         "testbed": testbed.TwoDofParams()},
        _osc_trajectory, _scenario_osc),
    "thermal": _Scenario(
        {**{k: (getattr(powertherm.ThermalTargets, k), "float")
            for k in ("burst_current_a", "burst_duration_s", "hold_force_n")},
         "hold_duration_s": (120.0, "float")},
        {"actuator": VLCA_ACTUATOR, "thermal": powertherm.ThermalParams},
        _thermal_params, _scenario_thermal),
    "efficiency": _Scenario(
        {"payload_kg": (23.0, "float"), "lift_m": (0.3, "float"),
         "duration_s": (1.5, "float")},
        {"actuator": VLCA_ACTUATOR, "gains": EXPERIMENT_GAINS,
         "testbed": testbed.TwoDofParams()},
        _lift_trajectory, _scenario_efficiency),
    "materials": _Scenario(
        {"min_damping": (-1.0, "float"),  # negative disables the floor
         **{f"w_{c}": (1.0, "float") for c in elastomat.RANK_CRITERIA}},
        {}, _material_ranking, _scenario_materials),
}
SCENARIOS = tuple(_SCENARIOS)


@dataclass
class RunManifest:
    version: str
    scenario: str
    config_digest: str
    parameters: dict
    files: list
    status: str
    error: Optional[str] = None
    output_dir: str = ""
    # per simulation: control steps, leg substeps, rate evaluations,
    # saturated and singularity-damped steps
    counters: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _resolved_parameters(spec: RunSpec) -> dict:
    """What the run read: each declared namespace, and the extras."""
    params = {"extras": dict(spec.extras)}
    for ns in _SCENARIOS[spec.scenario].reads:
        if ns == "thermal":
            params["thermal_overrides"] = dict(spec.thermal)
        else:
            params[ns] = asdict(getattr(spec, ns))
    return params


def run(raw_config: dict) -> RunManifest:
    """Execute the configured scenario; always leaves a manifest behind
    once the output directory exists."""
    spec = build_run_spec(raw_config)
    return _run_into(spec, _resolve_outdir(spec.out))


def _run_into(spec: RunSpec, outdir: str) -> RunManifest:
    """run() into outdir, already resolved: a sweep hands each of its runs
    the directory its sweep manifest lists."""
    os.makedirs(outdir, exist_ok=True)
    em = _Emitter(outdir)
    manifest = RunManifest(version=__version__, scenario=spec.scenario,
                           config_digest=spec.digest,
                           parameters=_resolved_parameters(spec),
                           files=[], status="failed", output_dir=outdir,
                           counters=em.counters)
    try:
        _SCENARIOS[spec.scenario].execute(spec, em)
        manifest.status = "ok"
    except Exception as exc:
        manifest.error = f"{type(exc).__name__}: {exc}"
        raise ScenarioFailed(manifest.error) from exc
    finally:
        manifest.files = sorted(em.files)
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            fh.write(manifest.to_json())
    return manifest


# ---------------------------------------------------------------- sweep

_MAX_RUNS = f"{simkit.MAX_SWEEP_RUNS:,} runs"


def _parse_set(expr: str):
    """--set KEY=VALUE or KEY=A:B:STEP; returns (key, [values])."""
    if "=" not in expr:
        raise ConfigInvalid([(expr, "expected key=value")])
    key, _, val = expr.partition("=")
    key = key.strip()
    parts = val.split(":")
    if len(parts) == 3:
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError:
            return key, [val]
        if not (step > 0.0 and b >= a):
            raise ConfigInvalid([(key, "range must be a:b:step with step > 0 "
                                       "and b >= a")])
        span = (b - a) / step + 1e-9
        if not span < simkit.MAX_SWEEP_RUNS:  # an infinite span included
            raise ConfigInvalid([(key, f"range gives more than {_MAX_RUNS}")])
        return key, [f"{a + i * step:.12g}" for i in range(int(span) + 1)]
    return key, [val.strip()]


def _sweep_worker(raw):
    try:
        status = _run_into(build_run_spec(raw), raw["out"]).status
        return raw["out"], status, None
    except (ConfigInvalid, ScenarioFailed) as exc:
        return raw["out"], "failed", str(exc)


def run_sweep(raw_config: dict, set_exprs, jobs: int = 1) -> dict:
    axes = [_parse_set(expr) for expr in set_exprs]
    if not axes:
        raise ConfigInvalid([("--set", "sweep needs at least one --set "
                                       "key=a:b:step")])
    if math.prod(len(v) for _, v in axes) > simkit.MAX_SWEEP_RUNS:
        raise ConfigInvalid([("--set", f"sweep gives more than {_MAX_RUNS}")])
    root = _resolve_outdir(raw_config.get("out", "sweep_out"))

    # every combination is checked before the sweep writes anything
    keys = [key for key, _ in axes]
    combos, diags = [], []
    for idx, values in enumerate(itertools.product(*(v for _, v in axes))):
        tag = f"{idx:03d}_" + "_".join(f"{k.rsplit('.', 1)[-1]}={v}"
                                       for k, v in zip(keys, values))
        raw = {**raw_config, **dict(zip(keys, values)),
               "out": os.path.join(root, tag)}
        diags += [(f"{tag}: {k}", m) for k, m in validate(raw)]
        combos.append(raw)
    if diags:
        raise ConfigInvalid(diags)
    os.makedirs(root, exist_ok=True)

    # the pool starts all its workers at once; more than one per core only
    # costs memory
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, combos))
    else:
        results = [_sweep_worker(c) for c in combos]

    summary = {
        "version": __version__,
        "runs": [{"output_dir": od, "status": st, "error": err}
                 for od, st, err in results],
        "status": "ok" if all(st == "ok" for _, st, _ in results) else "failed",
    }
    with open(os.path.join(root, "sweep_manifest.json"), "w") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


# ------------------------------------------------------------------ main

def _load_config(path: str, set_exprs) -> dict:
    try:
        with open(path) as fh:
            raw = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigInvalid([(path, f"cannot read config: {exc}")])
    for expr in set_exprs or []:
        if "=" not in expr:
            raise ConfigInvalid([(expr, "expected key=value")])
        key, _, val = expr.partition("=")
        raw[key.strip()] = val.strip()
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vlcasim",
        description="Actuator simulation scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--set", action="append", default=[], metavar="K=V")

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    p_val.add_argument("--set", action="append", default=[], metavar="K=V")

    p_sweep = sub.add_parser("sweep", help="fan a config over value ranges")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--set", action="append", default=[],
                         metavar="K=A:B:STEP", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            raw = _load_config(args.config, args.set)
            manifest = run(raw)
            print(f"wrote {len(manifest.files)} files to {manifest.output_dir}")
            return 0
        if args.command == "validate":
            raw = _load_config(args.config, args.set)
            diags = validate(raw)
            for key, msg in diags:
                print(f"{key}: {msg}")
            if diags:
                return 2
            print("config ok")
            return 0
        if args.command == "sweep":
            raw = _load_config(args.config, None)
            summary = run_sweep(raw, args.set, jobs=max(args.jobs, 1))
            n_ok = sum(1 for r in summary["runs"] if r["status"] == "ok")
            print(f"{n_ok}/{len(summary['runs'])} sweep runs succeeded")
            return 0 if summary["status"] == "ok" else 3
    except ConfigInvalid as exc:
        for key, msg in exc.diagnostics:
            print(f"config error at {key}: {msg}", file=sys.stderr)
        return 2
    except ScenarioFailed as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
