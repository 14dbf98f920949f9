"""Scenario runner: declarative configs in, CSV tables + SVG charts out.

Config files are flat `key = value` lines ('#' comments allowed). The
`scenario` key picks the experiment; dotted keys override any actuator,
controller-gain, leg, or thermal-model field plus a small set of
per-scenario knobs. Every run finishes by writing manifest.json listing
the emitted files, the resolved parameters, and the config digest; a
failed run still writes the manifest, flagged failed.
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
from typing import Optional

import numpy as np

from . import __version__, elastomat, lintf, powertherm, simkit, svgplot, testbed
from .vlca import (ActuatorParams, ControllerGains, ControllerKind,
                   DEFAULT_MOMENT_ARM, MARGIN_TABLE_ORDER, VLCA_ACTUATOR,
                   calibrate_margins, force_plant, margin_table,
                   margin_table_to_csv, open_loop_tf)


class ConfigInvalid(Exception):
    """Config rejected; carries (key, message) diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"{k}: {m}" for k, m in self.diagnostics))


class ScenarioFailed(Exception):
    """A scenario raised while running; the manifest records the error."""


SCENARIOS = ("bode", "margins", "force_tracking", "position_step", "impact",
             "osc", "thermal", "efficiency", "materials")

_KIND_BY_NAME = {k.value: k for k in ControllerKind}

# dotted-key namespaces backed by module dataclasses
_NAMESPACES = {
    "actuator": ActuatorParams,
    "gains": ControllerGains,
    "testbed": testbed.TwoDofParams,
    "thermal": powertherm.ThermalParams,
}

_NAMESPACE_DEFAULTS = {
    "actuator": VLCA_ACTUATOR,
    "gains": ControllerGains(),
    "testbed": testbed.TwoDofParams(),
    "thermal": None,  # base comes from calibration at run time
}

# per-scenario extra knobs: name -> (default, kind) where kind is
# "float", "int", or a tuple of allowed strings
_EXTRAS = {
    "bode": {
        "f0_hz": (0.5, "float"),
        "f1_hz": (150.0, "float"),
        "chirp_s": (40.0, "float"),
        "chirp_amp_a": (2.0, "float"),
    },
    "margins": {
        "calibrate": (0, "int"),
    },
    "force_tracking": {
        "kind": ("pd_m_dob", tuple(_KIND_BY_NAME)),
        "reference": ("ramp", ("step", "ramp", "sine", "chirp")),
        "amplitude_nm": (25.0, "float"),
        "duration_s": (1.0, "float"),
        "freq_hz": (5.0, "float"),
    },
    "position_step": {
        "step_rad": (0.05, "float"),
        "duration_s": (3.0, "float"),
    },
    "impact": {
        "impulse_ns": (20.0, "float"),
        "pulse_width_s": (2e-3, "float"),
    },
    "osc": {
        "trajectory": ("sine", ("sine", "bspline")),
        "freq_hz": (1.7, "float"),
        "amplitude_m": (0.15, "float"),
        "payload_kg": (10.0, "float"),
        "duration_s": (3.0, "float"),
        "phase_rad": (1.2, "float"),
        "center_x": (0.18, "float"),
        "center_y": (0.45, "float"),
        # bspline knot list as "x0,y0; x1,y1; ..." control points
        "knots": ("", "str"),
    },
    "thermal": {
        "burst_current_a": (31.0, "float"),
        "burst_duration_s": (0.5, "float"),
        "hold_force_n": (860.0, "float"),
        "hold_duration_s": (120.0, "float"),
    },
    "efficiency": {
        "payload_kg": (23.0, "float"),
        "lift_m": (0.3, "float"),
        "duration_s": (1.5, "float"),
    },
    "materials": {
        "min_damping": (-1.0, "float"),  # negative disables the floor
        "w_linearity": (1.0, "float"),
        "w_compression_set": (1.0, "float"),
        "w_creep": (1.0, "float"),
        "w_damping": (1.0, "float"),
        "w_cost": (1.0, "float"),
    },
}

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
    scenario: str
    out: str
    seed: int
    actuator: ActuatorParams
    gains: ControllerGains
    leg: testbed.TwoDofParams
    thermal_overrides: dict
    extras: dict
    explicit_keys: frozenset
    digest: str


def _field_map(cls):
    return {f.name.lower(): f.name for f in fields(cls)}


def validate(raw_config: dict) -> list:
    """Diagnostics (key path, message) that run() would reject; empty
    means the config is runnable."""
    diags = []
    if "scenario" not in raw_config:
        diags.append(("scenario", "missing required key `scenario`"))
        scenario = None
    else:
        scenario = str(raw_config["scenario"])
        if scenario not in SCENARIOS:
            diags.append(("scenario",
                          f"unknown scenario {scenario!r}; expected one of "
                          f"{', '.join(SCENARIOS)}"))
            scenario = None

    ns_overrides = {ns: {} for ns in _NAMESPACES}
    extras_spec = _EXTRAS.get(scenario, {})
    extras = {name: default for name, (default, _) in extras_spec.items()}
    for key, raw_val in raw_config.items():
        if key in _GLOBAL_KEYS:
            if key == "seed":
                if not isinstance(_coerce(str(raw_val)), int):
                    diags.append((key, "expected an integer"))
            continue
        if "." not in key:
            diags.append((key, "unknown key"))
            continue
        prefix, _, leaf = key.partition(".")
        value = _coerce(str(raw_val))
        if scenario is not None and prefix == scenario and leaf in extras_spec:
            default, kind = extras_spec[leaf]
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
        if prefix in _NAMESPACES:
            fmap = _field_map(_NAMESPACES[prefix])
            name = fmap.get(leaf.lower())
            if name is None:
                diags.append((key, "unknown key"))
                continue
            if value is not None and not isinstance(value, (int, float)):
                diags.append((key, "expected a number"))
                continue
            if value is not None and not math.isfinite(value):
                diags.append((key, "expected a finite number"))
                continue
            ns_overrides[prefix][name] = value
            continue
        diags.append((key, "unknown key"))

    # range checks through the dataclass invariants
    for ns, overrides in ns_overrides.items():
        if not overrides:
            continue
        base = _NAMESPACE_DEFAULTS[ns]
        try:
            if base is None:  # thermal: no default instance; probe a stand-in
                probe = {f.name: getattr(_NOMINAL_THERMAL, f.name)
                         for f in fields(powertherm.ThermalParams)}
                probe.update(overrides)
                powertherm.ThermalParams(**probe)
            else:
                replace(base, **overrides)
        except (ValueError, TypeError) as exc:
            msg = str(exc)
            bad = next((n for n in overrides if msg.startswith(n)), None)
            key = f"{ns}.{bad}" if bad else ns
            diags.append((key, msg))

    # range checks through the scenario's own input builders, once every
    # value has the right type
    if not diags and scenario in _EXTRAS_CHECKS:
        leg = replace(_NAMESPACE_DEFAULTS["testbed"], **ns_overrides["testbed"])
        try:
            _EXTRAS_CHECKS[scenario](extras, leg)
        except (ValueError, testbed.WorkspaceViolation,
                elastomat.AllExcluded) as exc:
            msg = str(exc)
            bad = next((n for n in extras_spec if msg.startswith(n)), None)
            diags.append((f"{scenario}.{bad}" if bad else scenario, msg))
    return diags


# stand-in used only to range-check thermal overrides before calibration
_NOMINAL_THERMAL = powertherm.ThermalParams(
    c_winding=0.2, c_housing=4.0, r_wh=0.036, r_ha_on=3.54, r_ha_off=46.0)


def build_run_spec(raw_config: dict) -> RunSpec:
    diags = validate(raw_config)
    if diags:
        raise ConfigInvalid(diags)
    scenario = str(raw_config["scenario"])
    extras = {name: default for name, (default, _) in _EXTRAS[scenario].items()}
    ns_values = {ns: {} for ns in _NAMESPACES}
    explicit = set()
    for key, raw_val in raw_config.items():
        if key in _GLOBAL_KEYS:
            continue
        prefix, _, leaf = key.partition(".")
        value = _coerce(str(raw_val))
        if prefix == scenario and leaf in _EXTRAS[scenario]:
            extras[leaf] = value
            explicit.add(key)
            continue
        fmap = _field_map(_NAMESPACES[prefix])
        ns_values[prefix][fmap[leaf.lower()]] = value
        explicit.add(f"{prefix}.{fmap[leaf.lower()]}")

    digest = hashlib.sha256(
        "\n".join(f"{k}={raw_config[k]}" for k in sorted(raw_config))
        .encode()).hexdigest()
    return RunSpec(
        scenario=scenario,
        out=str(raw_config.get("out", f"out_{scenario}")),
        seed=int(_coerce(str(raw_config.get("seed", 0)))),
        actuator=replace(VLCA_ACTUATOR, **ns_values["actuator"]),
        gains=replace(ControllerGains(), **ns_values["gains"]),
        leg=replace(testbed.TwoDofParams(), **ns_values["testbed"]),
        thermal_overrides=ns_values["thermal"],
        extras=extras,
        explicit_keys=frozenset(explicit),
        digest=digest,
    )


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


def _frf_of_tf(tf, omega_lo, omega_hi, per_decade=48):
    return lintf.bode_sweep(tf, omega_lo, omega_hi, per_decade)


def _bode_chirp(x: dict):
    simkit.check_duration(x["chirp_s"], "chirp_s")
    return simkit.ChirpRef(amplitude=x["chirp_amp_a"], f0_hz=x["f0_hz"],
                           f1_hz=x["f1_hz"], duration_s=x["chirp_s"])


def _scenario_bode(spec: RunSpec, em: _Emitter):
    plant = force_plant(spec.actuator)
    model = _frf_of_tf(plant, 2.0 * math.pi * 0.05, 2.0 * math.pi * 200.0)
    em.write("plant_model_frf.csv", lintf.frf_to_csv(model))
    trace = simkit.run_plant_chirp(_bode_chirp(spec.extras), spec.actuator)
    emp = simkit.empirical_frequency_response(trace)
    em.write("plant_chirp_frf.csv", lintf.frf_to_csv(emp))
    em.write("bode_magnitude.svg", svgplot.line_chart(
        [("model", [p.omega / (2 * math.pi) for p in model],
          [p.magnitude for p in model]),
         ("chirp estimate", [p.omega / (2 * math.pi) for p in emp],
          [p.magnitude for p in emp])],
        title="Force plant magnitude", xlabel="frequency [Hz]",
        ylabel="|F/Fcmd|", logx=True, logy=True))
    em.write("bode_phase.svg", svgplot.line_chart(
        [("model", [p.omega / (2 * math.pi) for p in model],
          [p.phase_deg for p in model]),
         ("chirp estimate", [p.omega / (2 * math.pi) for p in emp],
          [p.phase_deg for p in emp])],
        title="Force plant phase", xlabel="frequency [Hz]",
        ylabel="phase [deg]", logx=True))


def _scenario_margins(spec: RunSpec, em: _Emitter):
    entries = margin_table(spec.actuator, spec.gains)
    em.write("margin_table.csv", margin_table_to_csv(entries))

    delays = np.linspace(0.25e-3, 2.5e-3, 10)
    rows = []
    series = {k: ([], []) for k in MARGIN_TABLE_ORDER}
    for t in delays:
        g = replace(spec.gains, delay_t=float(t))
        row = [f"{t * 1e3:.10g}"]
        for kind in MARGIN_TABLE_ORDER:
            try:
                pm = lintf.stability_margins(
                    open_loop_tf(kind, spec.actuator, g)).phase_margin_deg
                row.append(f"{pm:.10g}")
                series[kind][0].append(t * 1e3)
                series[kind][1].append(pm)
            except lintf.NoCrossover:
                row.append("")
        rows.append(",".join(row))
    header = "delay_ms," + ",".join(k.value for k in MARGIN_TABLE_ORDER)
    em.write("margins_vs_delay.csv", "\n".join([header] + rows) + "\n")
    em.write("margins_vs_delay.svg", svgplot.line_chart(
        [(k.value, xs, ys) for k, (xs, ys) in series.items() if xs],
        title="Phase margin vs loop delay", xlabel="delay [ms]",
        ylabel="phase margin [deg]"))

    if spec.extras["calibrate"]:
        cal = calibrate_margins(spec.actuator, spec.gains)
        lines = ["delay_ms,q_d_cutoff_hz,pm_pd_f,pm_pd_m,pm_pid_m,pm_pd_m_dob,objective_deg",
                 f"{cal.delay_t * 1e3:.10g},{cal.q_d_cutoff / (2 * math.pi):.10g},"
                 f"{cal.pm_pdf_deg:.10g},{cal.pm_pdm_deg:.10g},"
                 f"{cal.pm_pidm_deg:.10g},{cal.pm_pdm_dob_deg:.10g},"
                 f"{cal.objective_deg:.10g}"]
        em.write("margin_calibration.csv", "\n".join(lines) + "\n")


def _force_reference(x: dict):
    simkit.check_duration(x["duration_s"])
    full_scale = x["amplitude_nm"] / DEFAULT_MOMENT_ARM
    ref_name = x["reference"]
    if ref_name == "ramp":
        return simkit.RampRef(start_level=1.0 / DEFAULT_MOMENT_ARM,
                              end_level=full_scale, start_time=0.05,
                              ramp_time=0.1)
    if ref_name == "step":
        return simkit.StepRef(level=full_scale, start_time=0.05)
    if ref_name == "sine":
        return simkit.SineRef(amplitude=full_scale, freq_hz=x["freq_hz"])
    return simkit.ChirpRef(amplitude=full_scale, f0_hz=0.5,
                           f1_hz=min(x["freq_hz"] * 40.0, 200.0),
                           duration_s=max(x["duration_s"] - 0.5, 0.5))


def _scenario_force_tracking(spec: RunSpec, em: _Emitter):
    x = spec.extras
    gains = spec.gains
    if "gains.q_taud_cutoff" not in spec.explicit_keys:
        # experiments run the observer filter at 60 Hz
        gains = replace(gains, q_taud_cutoff=2.0 * math.pi * 60.0)
    kind = _KIND_BY_NAME[x["kind"]]
    trace = simkit.run_force_tracking(kind, gains, _force_reference(x),
                                      x["duration_s"], params=spec.actuator)
    em.write("force_tracking.csv", trace.to_csv())
    em.write("force_tracking.svg", svgplot.line_chart(
        [("commanded", trace.t, trace.f_cmd),
         ("measured", trace.t, trace.f_meas)],
        title=f"Force tracking ({x['kind']}, {x['reference']})",
        xlabel="time [s]", ylabel="force [N]"))


def _scenario_position_step(spec: RunSpec, em: _Emitter):
    x = spec.extras
    metrics = ["element,overshoot_frac,settling_s"]
    curves = []
    for element in ("elastomer", "steel_spring"):
        trace = simkit.run_joint_position_control(
            element, step_rad=x["step_rad"], duration=x["duration_s"],
            params=spec.actuator)
        em.write(f"position_step_{element}.csv", trace.to_csv())
        ov = simkit.overshoot_fraction(trace.q_out, x["step_rad"])
        st = simkit.settling_time(trace.t, trace.q_out, x["step_rad"])
        st_txt = "" if math.isinf(st) else f"{st:.10g}"
        metrics.append(f"{element},{ov:.10g},{st_txt}")
        curves.append((element, trace.t, trace.q_out))
    em.write("position_step_metrics.csv", "\n".join(metrics) + "\n")
    em.write("position_step.svg", svgplot.line_chart(
        curves, title="Joint step response by series element",
        xlabel="time [s]", ylabel="joint angle [rad]"))


def _impact_configs(x: dict) -> list:
    return [simkit.ImpactConfig(grounding=grounding, impulse_ns=x["impulse_ns"],
                                pulse_width_s=x["pulse_width_s"])
            for grounding in ("rigid", "viscoelastic")]


def _scenario_impact(spec: RunSpec, em: _Emitter):
    peaks = ["grounding,peak_loadcell_n,peak_deflection_m"]
    curves = []
    for cfg in _impact_configs(spec.extras):
        trace = simkit.run_impact(cfg, spec.actuator)
        em.write(f"impact_{cfg.grounding}.csv", trace.to_csv())
        peaks.append(f"{cfg.grounding},{np.max(np.abs(trace.f_loadcell)):.10g},"
                     f"{np.max(np.abs(trace.x_r)):.10g}")
        keep = trace.t <= 0.05
        curves.append((cfg.grounding, trace.t[keep], trace.f_loadcell[keep]))
    em.write("impact_peaks.csv", "\n".join(peaks) + "\n")
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


def _osc_trajectory(x: dict):
    if x["trajectory"] == "bspline":
        pts = _parse_knots(x["knots"])
        if not pts:
            # rest-to-rest hop of amplitude_m above the center point
            pts = _parse_knots(f"{x['center_x']},{x['center_y']};"
                               f"{x['center_x']},{x['center_y']};"
                               f"{x['center_x']},{x['center_y'] + x['amplitude_m']};"
                               f"{x['center_x']},{x['center_y']};"
                               f"{x['center_x']},{x['center_y']}")
        return testbed.BSplineTrajectory(pts, x["duration_s"])
    return testbed.SineTrajectory(center=(x["center_x"], x["center_y"]),
                                  amplitude=(0.0, x["amplitude_m"]),
                                  freq_hz=x["freq_hz"],
                                  phase_rad=x["phase_rad"])


def _check_osc(x: dict, leg: testbed.TwoDofParams):
    testbed.osc_run_inputs(_osc_trajectory(x), x["payload_kg"],
                           x["duration_s"], leg)


def _scenario_osc(spec: RunSpec, em: _Emitter):
    x = spec.extras
    traj = _osc_trajectory(x)
    metrics = ["mode,max_error_m,saturated_steps"]
    err_curves = []
    y_curves = []
    for mode in ("ideal_torque", "cascaded_vlca"):
        trace = testbed.simulate_osc(traj, x["payload_kg"], mode,
                                     x["duration_s"], params=spec.leg,
                                     actuator=spec.actuator)
        em.counters[f"osc_{mode}"] = trace.counters()
        em.write(f"osc_{mode}.csv", trace.to_csv())
        err = np.linalg.norm(trace.x - trace.x_des, axis=1)
        metrics.append(f"{mode},{trace.max_tracking_error():.10g},"
                       f"{trace.saturation_count}")
        err_curves.append((mode, trace.t, err))
        y_curves.append((mode, trace.t, trace.x[:, 1]))
    y_curves.append(("command", trace.t, trace.x_des[:, 1]))
    em.write("osc_metrics.csv", "\n".join(metrics) + "\n")
    em.write("osc_error.svg", svgplot.line_chart(
        err_curves, title="Hip tracking error", xlabel="time [s]",
        ylabel="error [m]"))
    em.write("osc_height.svg", svgplot.line_chart(
        y_curves, title="Hip height", xlabel="time [s]", ylabel="y [m]"))


def _check_thermal(x: dict, leg: testbed.TwoDofParams):
    for name in ("burst_duration_s", "hold_duration_s"):
        simkit.check_duration(x[name], name)


def _scenario_thermal(spec: RunSpec, em: _Emitter):
    x = spec.extras
    report = powertherm.calibrate_thermal(spec.actuator)
    params = report.params
    if spec.thermal_overrides:
        params = replace(params, **spec.thermal_overrides)
    rows = ["name,value"]
    for f in fields(powertherm.ThermalParams):
        rows.append(f"{f.name},{getattr(params, f.name):.10g}")
    for name, val in sorted(report.residuals.items()):
        rows.append(f"residual_{name},{val:.10g}")
    em.write("thermal_params.csv", "\n".join(rows) + "\n")

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

    i_hold = x["hold_force_n"] / spec.actuator.drive_constant
    hold = powertherm.simulate_constant_current(i_hold, x["hold_duration_s"],
                                                params, dt=0.01)
    em.write("thermal_hold.csv", powertherm.thermal_trace_to_csv(hold))

    lim = ["cooling,current_a,screw_force_n,joint_torque_nm"]
    for label, on in (("on", True), ("off", False)):
        r = powertherm.continuous_force_limit(params, spec.actuator,
                                              cooling_on=on)
        lim.append(f"{label},{r.current_a:.10g},{r.screw_force_n:.10g},"
                   f"{r.joint_torque_nm:.10g}")
    em.write("thermal_limits.csv", "\n".join(lim) + "\n")
    em.write("thermal.svg", svgplot.line_chart(
        [("burst winding", burst_trace.t, burst_trace.t_winding),
         ("hold winding", hold.t, hold.t_winding),
         ("hold housing", hold.t, hold.t_housing)],
        title="Winding and housing temperatures", xlabel="time [s]",
        ylabel="temperature [C]"))


_LIFT_START = (0.18, 0.30)  # hip position the lift starts from [m]
_LIFT_HOLD_S = 0.5  # simulated hold at the top of the lift [s]


def _lift_trajectory(x: dict):
    return testbed.BSplineTrajectory.vertical_lift(_LIFT_START, x["lift_m"],
                                                   x["duration_s"])


def _check_efficiency(x: dict, leg: testbed.TwoDofParams):
    testbed.osc_run_inputs(_lift_trajectory(x), x["payload_kg"],
                           x["duration_s"] + _LIFT_HOLD_S, leg)


def _scenario_efficiency(spec: RunSpec, em: _Emitter):
    x = spec.extras
    trace = testbed.simulate_osc(_lift_trajectory(x), x["payload_kg"],
                                 "cascaded_vlca", x["duration_s"] + _LIFT_HOLD_S,
                                 params=spec.leg, actuator=spec.actuator)
    em.counters["efficiency_lift"] = trace.counters()
    em.write("efficiency_lift.csv", trace.to_csv())
    p_joint, p_motor, p_in = powertherm.power_series(trace, spec.actuator)
    summary = powertherm.power_flow(trace, spec.actuator)
    em.write("efficiency_power.csv",
             powertherm.power_samples_to_csv(summary.samples))
    rows = ["name,value",
            f"drivetrain_efficiency_avg,{summary.drivetrain_efficiency_avg:.10g}",
            f"electrical_efficiency_avg,{summary.electrical_efficiency_avg:.10g}",
            f"n_averaged,{summary.n_averaged}"]
    em.write("efficiency_summary.csv", "\n".join(rows) + "\n")
    em.write("efficiency.svg", svgplot.line_chart(
        [("joint", trace.t, p_joint), ("motor shaft", trace.t, p_motor),
         ("electrical", trace.t, p_in)],
        title="Lift power flow", xlabel="time [s]", ylabel="power [W]"))


def _material_ranking(x: dict, records):
    weights = {"linearity": x["w_linearity"],
               "compression_set": x["w_compression_set"],
               "creep": x["w_creep"],
               "damping": x["w_damping"],
               "cost": x["w_cost"]}
    weights = {k: w for k, w in weights.items() if w > 0.0}
    min_damping = x["min_damping"] if x["min_damping"] >= 0.0 else None
    return elastomat.rank_materials(records, weights, min_damping)


def _scenario_materials(spec: RunSpec, em: _Emitter):
    records = elastomat.builtin_materials()
    em.write("materials.csv", elastomat.materials_to_csv(records))
    result = _material_ranking(spec.extras, records)
    rows = ["rank,name,score"]
    for i, (name, score) in enumerate(result.ranked, start=1):
        rows.append(f"{i},{name},{score:.10g}")
    em.write("materials_ranked.csv", "\n".join(rows) + "\n")
    if result.excluded:
        rows = ["name,reason"]
        for name, reason in result.excluded:
            rows.append(f"{name},{reason}")
        em.write("materials_excluded.csv", "\n".join(rows) + "\n")
    em.write("materials_scores.svg", svgplot.line_chart(
        [("score", list(range(1, len(result.ranked) + 1)),
          [s for _, s in result.ranked])],
        title="Material ranking scores", xlabel="rank", ylabel="score"))


_SCENARIO_FUNCS = {
    "bode": _scenario_bode,
    "margins": _scenario_margins,
    "force_tracking": _scenario_force_tracking,
    "position_step": _scenario_position_step,
    "impact": _scenario_impact,
    "osc": _scenario_osc,
    "thermal": _scenario_thermal,
    "efficiency": _scenario_efficiency,
    "materials": _scenario_materials,
}


# builders of the scenario inputs that range-check the extras, called with
# the extras and the leg parameters; validate() runs them so that a config
# they reject exits 2 instead of failing the run
_EXTRAS_CHECKS = {
    "bode": lambda x, leg: _bode_chirp(x),
    "force_tracking": lambda x, leg: _force_reference(x),
    "position_step": lambda x, leg: simkit.check_duration(x["duration_s"]),
    "impact": lambda x, leg: _impact_configs(x),
    "osc": _check_osc,
    "thermal": _check_thermal,
    "efficiency": _check_efficiency,
    "materials": lambda x, leg: _material_ranking(
        x, elastomat.builtin_materials()),
}


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
    # per simulation: control steps, RK4 substeps, saturated and
    # singularity-damped steps
    counters: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _resolved_parameters(spec: RunSpec) -> dict:
    return {
        "actuator": asdict(spec.actuator),
        "gains": asdict(spec.gains),
        "testbed": asdict(spec.leg),
        "thermal_overrides": dict(spec.thermal_overrides),
        "extras": dict(spec.extras),
        "seed": spec.seed,
    }


def run(raw_config: dict) -> RunManifest:
    """Execute the configured scenario; always leaves a manifest behind
    once the output directory exists."""
    spec = build_run_spec(raw_config)
    outdir = _resolve_outdir(spec.out)
    os.makedirs(outdir, exist_ok=True)
    em = _Emitter(outdir)
    manifest = RunManifest(version=__version__, scenario=spec.scenario,
                           config_digest=spec.digest,
                           parameters=_resolved_parameters(spec),
                           files=[], status="ok", output_dir=outdir,
                           counters=em.counters)
    try:
        _SCENARIO_FUNCS[spec.scenario](spec, em)
    except Exception as exc:
        manifest.status = "failed"
        manifest.error = f"{type(exc).__name__}: {exc}"
        manifest.files = sorted(em.files)
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            fh.write(manifest.to_json())
        raise ScenarioFailed(manifest.error) from exc
    manifest.files = sorted(em.files)
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        fh.write(manifest.to_json())
    return manifest


# ---------------------------------------------------------------- sweep

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
        if step <= 0.0 or b < a:
            raise ConfigInvalid([(key, "range must be a:b:step with step > 0 "
                                       "and b >= a")])
        n = int(math.floor((b - a) / step + 1e-9)) + 1
        return key, [f"{a + i * step:.12g}" for i in range(n)]
    return key, [val.strip()]


def _sweep_worker(args):
    raw, outdir = args
    raw = dict(raw)
    raw["out"] = outdir
    try:
        manifest = run(raw)
        return outdir, manifest.status, None
    except (ConfigInvalid, ScenarioFailed) as exc:
        return outdir, "failed", str(exc)


def run_sweep(raw_config: dict, set_exprs, jobs: int = 1) -> dict:
    base = dict(raw_config)
    axes = []
    for expr in set_exprs:
        key, values = _parse_set(expr)
        axes.append((key, values))
    if not axes:
        raise ConfigInvalid([("--set", "sweep needs at least one --set "
                                       "key=a:b:step")])
    root = _resolve_outdir(base.get("out", "sweep_out"))
    os.makedirs(root, exist_ok=True)

    combos = []
    for idx, values in enumerate(itertools.product(*(v for _, v in axes))):
        raw = dict(base)
        tag_parts = []
        for (key, _), value in zip(axes, values):
            raw[key] = value
            tag_parts.append(f"{key.rsplit('.', 1)[-1]}={value}")
        subdir = os.path.join(root, f"{idx:03d}_" + "_".join(tag_parts))
        combos.append((raw, subdir))

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
