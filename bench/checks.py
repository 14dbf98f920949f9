"""Output checks: is each run's output what the program should produce?

A run counts as failed when `cli.run` raises or its manifest is not `ok`,
when a summary value is not finite or a trace CSV has the wrong number of
rows, or when a summary value is off its reference by more than the
tolerance. References (reference.json) hold the summary values of every
config in the default-seed batches, recorded with record_reference.py;
configs that do not depend on the seed are checked at every seed. Extra
output files are ignored, so a scenario may add outputs.
"""

import hashlib
import json
import math
import os

DEFAULT_SEED = 0
CONTROL_DT = 1e-3  # the controller samples at 1 kHz

# summary CSV -> (relative, absolute) tolerance, each no tighter than the
# repo's tests use for the same quantity: margins rel 1e-8 / abs 1e-6 deg
# (test_cli, test_lintf); position-loop overshoot abs 1e-3 (test_simkit),
# which is also one control sample of settling time; impact peaks 0.1%
# (test_simkit); thermal torque abs 0.01 N*m on ~45 N*m (test_powertherm);
# efficiency rel 1e-9 (test_powertherm); ranking scores rel 1e-8
# (test_elastomat); leg tracking error 0.1%, which the leg tests only bound
# from above. Integer counts in these files (saturated steps, samples
# averaged) stay exact under every relative tolerance here.
TOLERANCES = {
    "margin_table.csv": (1e-8, 1e-6),
    "margins_vs_delay.csv": (1e-8, 1e-6),
    "margin_calibration.csv": (1e-8, 1e-6),
    "position_step_metrics.csv": (0.0, 1e-3),
    "impact_peaks.csv": (1e-3, 0.0),
    "osc_metrics.csv": (1e-3, 0.0),
    "thermal_limits.csv": (2e-4, 0.0),
    "efficiency_summary.csv": (1e-6, 0.0),
    "materials_ranked.csv": (1e-8, 0.0),
}


def _expected_rows(scenario, extras):
    """Trace CSV name -> data rows it must hold, from the resolved extras."""
    def steps(seconds):
        return int(round(seconds / CONTROL_DT))

    if scenario == "force_tracking":
        return {"force_tracking.csv": steps(extras["duration_s"])}
    if scenario == "position_step":
        return {f"position_step_{e}.csv": steps(extras["duration_s"])
                for e in ("elastomer", "steel_spring")}
    if scenario == "impact":
        return {f"impact_{g}.csv": steps(0.3)
                for g in ("rigid", "viscoelastic")}
    if scenario == "osc":
        return {f"osc_{m}.csv": steps(extras["duration_s"])
                for m in ("ideal_torque", "cascaded_vlca")}
    if scenario == "efficiency":
        return {"efficiency_lift.csv": steps(extras["duration_s"] + 0.5)}
    if scenario == "thermal":
        # the hold runs at 10 ms; the burst is followed by a 10 s cool-down
        hold = int(round(extras["hold_duration_s"] / 0.01))
        return {"thermal_hold.csv": hold + 1,
                "thermal_burst.csv": steps(extras["burst_duration_s"]) + 1
                + steps(10.0)}
    return {}


def config_digest(cfg: dict) -> str:
    """Digest of a config without its output directory."""
    text = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg) if k != "out")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cell(text):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def summary_values(outdir: str) -> dict:
    """'file:row:column' -> value for every summary CSV present. The row
    label is the first cell; empty cells read as None."""
    values = {}
    for name in TOLERANCES:
        path = os.path.join(outdir, name)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            header, *rows = fh.read().splitlines()
        cols = header.split(",")
        for row in rows:
            cells = row.split(",")
            for col, text in zip(cols[1:], cells[1:]):
                values[f"{name}:{cells[0]}:{col}"] = _cell(text)
    return values


def compare(values: dict, reference: dict):
    """(problems, largest relative deviation) of values against a
    reference of the same config."""
    problems = []
    worst = 0.0
    for key in sorted(set(values) | set(reference)):
        got, want = values.get(key, "missing"), reference.get(key, "missing")
        if isinstance(got, float) and isinstance(want, float):
            rel, abs_ = TOLERANCES[key.split(":", 1)[0]]
            diff = abs(got - want)
            if diff:
                worst = max(worst, diff / abs(want) if want else math.inf)
            if not diff <= abs_ + rel * abs(want):
                problems.append(f"{key}: {got!r} vs reference {want!r}")
        elif got != want:
            problems.append(f"{key}: {got!r} vs reference {want!r}")
    return problems, worst


def check_run(outdir: str, status: str, cfg: dict, references: dict):
    """Check one run's output directory.

    Returns (problems, max relative deviation or None when the config has
    no reference, bytes written).
    """
    if status != "ok":
        return [f"run did not finish: {status}"], None, 0
    try:
        with open(os.path.join(outdir, "manifest.json")) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"], None, 0
    problems = []
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
    written = os.path.getsize(os.path.join(outdir, "manifest.json"))
    for name in manifest.get("files", []):
        path = os.path.join(outdir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: listed in the manifest but missing")
            continue
        written += os.path.getsize(path)
    expected = _expected_rows(manifest.get("scenario"),
                              manifest.get("parameters", {}).get("extras", {}))
    for name, rows in expected.items():
        try:
            with open(os.path.join(outdir, name), "rb") as fh:
                got = fh.read().count(b"\n") - 1
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if got != rows:
            problems.append(f"{name}: {got} rows, expected {rows}")
    values = summary_values(outdir)
    for key, val in values.items():
        if isinstance(val, float) and not math.isfinite(val):
            problems.append(f"{key}: not finite ({val!r})")
    dev = None
    ref = references.get(config_digest(cfg))
    if ref is not None:
        more, dev = compare(values, ref["values"])
        problems += more
    return problems, dev, written


def identical_outputs(dir_a: str, dir_b: str) -> list:
    """Files that differ between two runs of the same config (the
    manifests themselves differ in their output_dir)."""
    with open(os.path.join(dir_a, "manifest.json")) as fh:
        names_a = json.load(fh)["files"]
    with open(os.path.join(dir_b, "manifest.json")) as fh:
        names_b = json.load(fh)["files"]
    if names_a != names_b:
        return [f"file lists differ: {names_a} vs {names_b}"]
    diffs = []
    for name in names_a:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                diffs.append(f"{name} differs between reruns")
    return diffs
