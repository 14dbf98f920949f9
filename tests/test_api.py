"""The public names of the package and their call signatures."""
import ast
import dataclasses
import enum
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

import vlcasim

PUBLIC = [
    "__version__",
    "ActuatorParams", "ControllerGains", "ControllerKind",
    "DEFAULT_MOMENT_ARM", "VLCA_ACTUATOR",
    "DelayedTransferFunction", "FrequencyResponsePoint", "Polynomial",
    "SecondOrderFit", "StabilityReport",
    "calibrate_margins", "closed_loop_tf", "fit_second_order", "force_plant",
    "margin_table", "open_loop_tf", "plant_px", "stability_margins",
    "sweep_response",
]

# str(inspect.signature(...)) of every public callable; an enum is pinned by
# its members instead, since its call signature is the interpreter's
SIGNATURES = {
    "ActuatorParams":
        "(eta: 'float', k_tau: 'float', n_m: 'float', j_m: 'float', "
        "b_m: 'float', m_r: 'float', b_r: 'float', k_r: 'float') -> None",
    "ControllerGains":
        "(k_p: 'float' = 4.0, k_dm: 'float' = 15.0, "
        "k_df: 'Optional[float]' = None, k_i: 'float' = 300.0, "
        "q_d_cutoff: 'Optional[float]' = 314.1592653589793, "
        "q_taud_cutoff: 'Optional[float]' = 94.24777960769379, "
        "q_taud_zeta: 'float' = 0.7071067811865476, "
        "delay_t: 'float' = 0.001) -> None",
    "ControllerKind":
        "[('PDF', 'pd_f'), ('PDM', 'pd_m'), ('PIDM', 'pid_m'), "
        "('PDM_DOB', 'pd_m_dob')]",
    "DelayedTransferFunction":
        "(num: 'Polynomial', den: 'Polynomial', delay_s: 'float' = 0.0) "
        "-> None",
    "FrequencyResponsePoint":
        "(omega: 'float', magnitude: 'float', phase_deg: 'float') -> None",
    "Polynomial": "(coefficients: 'tuple') -> None",
    "SecondOrderFit":
        "(gain: 'float', omega_n: 'float', zeta: 'float') -> None",
    "StabilityReport":
        "(phase_margin_deg: 'float', gain_crossover_rad_s: 'float', "
        "gain_margin_db: 'float', phase_crossover_rad_s: 'float', "
        "crossover_count: 'int') -> None",
    "calibrate_margins":
        "(params: 'ActuatorParams', gains: 'ControllerGains', "
        "pm_pdf_target: 'float' = 17.1, pm_pdm_target: 'float' = 47.6, "
        "delay_grid=None, q_d_grid=None) -> 'MarginCalibration'",
    "closed_loop_tf":
        "(kind: 'ControllerKind', params: 'ActuatorParams', "
        "gains: 'ControllerGains') -> 'ClosedLoopResponse'",
    "fit_second_order":
        "(points: 'Sequence[FrequencyResponsePoint]', "
        "phase_weight: 'float' = 0.5) -> 'SecondOrderFit'",
    "force_plant": "(params: 'ActuatorParams') -> 'DelayedTransferFunction'",
    "margin_table":
        "(params: 'ActuatorParams', gains: 'ControllerGains') -> 'list'",
    "open_loop_tf":
        "(kind: 'ControllerKind', params: 'ActuatorParams', "
        "gains: 'ControllerGains') -> 'DelayedTransferFunction'",
    "plant_px": "(params: 'ActuatorParams') -> 'DelayedTransferFunction'",
    "stability_margins":
        "(open_loop: 'DelayedTransferFunction') -> 'StabilityReport'",
    "sweep_response":
        "(eval_fn: 'Callable[[float], complex]', omega_min: 'float', "
        "omega_max: 'float', points_per_decade: 'int' = 48) -> 'list'",
}


def test_public_names_are_stable_and_import():
    assert vlcasim.__all__ == PUBLIC
    namespace = {}
    exec("from vlcasim import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(vlcasim, name)


def _signature(obj) -> str:
    if isinstance(obj, enum.EnumMeta):
        return str([(m.name, m.value) for m in obj])
    return str(inspect.signature(obj))


def test_public_signatures_are_pinned():
    callables = {name: getattr(vlcasim, name) for name in PUBLIC
                 if callable(getattr(vlcasim, name))}
    assert set(callables) == set(SIGNATURES)
    for name, obj in callables.items():
        assert _signature(obj) == SIGNATURES[name], name


def _bench_tracing():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_still_finds_its_targets():
    # bench/run.py --trace 1 wraps each target by name: a function on its
    # module, a method in its class's own namespace
    for target in _bench_tracing().TARGETS:
        mod_name, _, attr = target.partition(".")
        owner = importlib.import_module(f"vlcasim.{mod_name}")
        *classes, name = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        found = vars(owner).get(name)
        assert callable(found), target
    # the tracer reads the leg mode from the third positional argument
    from vlcasim import testbed
    assert list(inspect.signature(testbed.simulate_osc).parameters)[2] == "mode"


def test_the_leg_simulation_takes_its_pinned_arguments():
    # the whole list, so that a removed option cannot come back unnoticed
    from vlcasim import testbed
    assert list(inspect.signature(testbed.simulate_osc).parameters) == [
        "trajectory", "payload_kg", "mode", "duration", "task_gains",
        "params", "actuator", "force_gains", "external_force", "q_init"]


def test_the_references_and_the_force_rating_take_their_pinned_fields():
    # the whole lists, as for the leg simulation above
    from vlcasim import powertherm, simkit
    assert [f.name for f in dataclasses.fields(simkit.SineRef)] == [
        "amplitude", "freq_hz"]
    assert [f.name for f in dataclasses.fields(simkit.ChirpRef)] == [
        "amplitude", "f0_hz", "f1_hz", "duration_s"]
    assert list(inspect.signature(
        powertherm.continuous_force_limit).parameters) == [
        "params", "actuator", "cooling_on"]


def test_the_force_loop_and_the_material_record_take_their_pinned_fields():
    # the whole lists, as for the leg simulation above
    from vlcasim import elastomat, simkit
    assert list(inspect.signature(simkit.run_force_tracking).parameters) == [
        "kind", "gains", "reference", "duration", "params"]
    assert [f.name for f in dataclasses.fields(elastomat.MaterialRecord)] == [
        "name", "compression_set_pct", "linearity_r2", "stiffness_n_per_mm",
        "modulus_n_per_mm2", "damping_ns_per_m", "creep_pct", "cost_usd"]


# Run in a fresh interpreter: prints which SciPy modules are loaded after
# `import vlcasim.cli` and after each run of a list of configs, run in turn
# into argv[1]/<name>: a default margins run, a calibrating one, a B-spline
# osc run and an efficiency run.
_IMPORT_PROBE = """
import json, sys
import vlcasim.cli
subs = ("scipy.linalg", "scipy.optimize", "scipy.interpolate")
at_import = set(sys.modules)
def loaded():
    return ["scipy"] * ("scipy" in sys.modules) + sorted(
        m for m in sys.modules if m in subs
        or m.startswith("scipy.") and m not in at_import)
runs = {"margins": {"scenario": "margins"},
        "calibrate": {"scenario": "margins", "margins.calibrate": "1"},
        "bspline": {"scenario": "osc", "osc.trajectory": "bspline",
                    "osc.duration_s": "0.2"},
        "efficiency": {"scenario": "efficiency", "efficiency.duration_s": "0.6"},
        "bode": {"scenario": "bode", "bode.chirp_s": "2"},
        "force_tracking": {"scenario": "force_tracking",
                           "force_tracking.duration_s": "0.2"},
        "position_step": {"scenario": "position_step",
                          "position_step.duration_s": "0.2"},
        "impact": {"scenario": "impact"},
        "thermal": {"scenario": "thermal", "thermal.hold_duration_s": "1",
                    "thermal.burst_duration_s": "1"}}
seen, statuses = {"import": loaded()}, []
for name, cfg in runs.items():
    cfg["out"] = sys.argv[1] + "/" + name
    statuses.append(vlcasim.cli.run(cfg).status)
    seen[name] = loaded()
print(json.dumps([statuses, seen]))
"""


def test_importing_the_cli_loads_scipy_but_none_of_its_subpackages(tmp_path):
    # the benchmark worker reads sys.modules["scipy"].__version__ right
    # after importing the CLI; no scenario loads a SciPy module past those
    # that `import scipy` loads, the linear plants' exponentials included
    src = str(pathlib.Path(vlcasim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    statuses, seen = json.loads(done.stdout)
    assert statuses == ["ok"] * 9
    assert seen == {name: ["scipy"] for name in (
        "import", "margins", "calibrate", "bspline", "efficiency", "bode",
        "force_tracking", "position_step", "impact", "thermal")}


def test_only_lintf_imports_scipy():
    importers = set()
    for path in pathlib.Path(vlcasim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n.partition(".")[0] == "scipy" for n in names):
                importers.add(path.stem)
    assert importers == {"lintf"}
