"""Compare the answers of two source trees on one fixed corpus of runs.

    python tools/answers.py BASE CHANGE [--work DIR]

BASE and CHANGE are checkouts of this repository (each with its src/).
The corpus is the nine default scenarios and a few variants, and the
seed-0 and seed-1 batches of each benchmark workload (bench/workloads.py
beside this script, read as it is). Every corpus config runs through
`python -m vlcasim.cli run` in a fresh process against each tree's src/,
into the same relative output path under DIR/base and DIR/change; the
two trees' corpora run side by side, one thread each. Then
the two output directories are compared file by file, and one line is
printed that a change can quote: the files compared, those
byte-identical by SHA-256 (each manifest.json compared without its
output_dir), the SVGs that differ, and the largest relative CSV
difference with its file, column and row. The exit status is 0 when
every file is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

SCENARIOS = ("bode", "margins", "force_tracking", "position_step", "impact",
             "osc", "thermal", "efficiency", "materials")
KINDS = ("pd_f", "pd_m", "pid_m", "pd_m_dob")
BENCH_SEEDS = (0, 1)


def _workloads():
    """bench/workloads.py, loaded from its file without importing bench."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def corpus() -> dict:
    """Output directory name -> config lines, one entry per run."""
    runs = {sc: {"scenario": sc} for sc in SCENARIOS}
    runs["margins_calibrate"] = {"scenario": "margins", "margins.calibrate": 1}
    runs["osc_bspline"] = {"scenario": "osc", "osc.trajectory": "bspline"}
    for kind in KINDS:
        for delay in ("0", "0.003"):
            runs[f"force_tracking_{kind}_delay_{delay}"] = {
                "scenario": "force_tracking", "force_tracking.kind": kind,
                "gains.delay_t": delay}
    workloads = _workloads()
    for workload in workloads.WORKLOADS:
        for seed in BENCH_SEEDS:
            for i, cfg in enumerate(workloads.batch(workload, seed)):
                runs[f"{workload}_{seed}_{i:02d}_{cfg['scenario']}"] = cfg
    return {name: {**cfg, "out": name} for name, cfg in runs.items()}


def run_corpus(tree: str, workdir: str):
    """Run every corpus config against tree/src, each in a fresh process,
    with workdir as the working directory of every run."""
    os.makedirs(workdir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "VLCA_OUT"}
    env["PYTHONPATH"] = os.path.join(os.path.abspath(tree), "src")
    for name, cfg in corpus().items():
        path = os.path.join(workdir, f"{name}.cfg")
        with open(path, "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in cfg.items())
        # a run that fails still leaves its manifest, which is compared
        subprocess.run([sys.executable, "-m", "vlcasim.cli", "run", path],
                       cwd=workdir, env=env, capture_output=True)
        os.remove(path)


def _files(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("output_dir", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _rel_diff(a: str, b: str) -> float:
    """Relative difference of two CSV cells: 0 for equal text, inf when
    either is no number or only one is finite."""
    if a == b:
        return 0.0
    try:
        x, y = float(a or "nan"), float(b or "nan")
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def csv_difference(path_a: str, path_b: str):
    """(largest relative difference, column, row) between two CSV files,
    rows counted from 1 after the header; inf when their shapes or
    headers differ."""
    def rows(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    ra, rb = rows(path_a), rows(path_b)
    if len(ra) != len(rb) or not ra or ra[0] != rb[0]:
        return math.inf, "", 0
    worst = (0.0, "", 0)
    for i, (row_a, row_b) in enumerate(zip(ra[1:], rb[1:]), start=1):
        if len(row_a) != len(row_b):
            return math.inf, "", i
        for col, a, b in zip(ra[0], row_a, row_b):
            d = _rel_diff(a, b)
            if d > worst[0]:
                worst = (d, col, i)
    return worst


def compare(base: str, change: str) -> dict:
    """The comparison of two output trees, by relative file path."""
    names_a, names_b = _files(base), _files(change)
    names = sorted(names_a | names_b)
    identical, svgs, worst = 0, [], (0.0, "", "", 0)
    for name in names:
        pa, pb = os.path.join(base, name), os.path.join(change, name)
        if name in names_a and name in names_b and _digest(pa) == _digest(pb):
            identical += 1
        elif name.endswith(".svg"):
            svgs.append(name)
        elif name.endswith(".csv"):
            d, col, row = (csv_difference(pa, pb) if name in names_a & names_b
                           else (math.inf, "", 0))
            if d > worst[0]:
                worst = (d, name, col, row)
    return {"compared": len(names), "identical": identical,
            "svgs_differ": svgs, "largest_csv_rel": worst[0], "at": worst[1:]}


def summary_line(result: dict) -> str:
    line = (f"answers: {result['compared']} files compared, "
            f"{result['identical']} byte-identical by SHA-256 (manifests "
            f"without output_dir), {len(result['svgs_differ'])} SVGs differ, "
            f"largest relative CSV difference {result['largest_csv_rel']:.3g}")
    if result["largest_csv_rel"] > 0.0:
        name, col, row = result["at"]
        line += f" at {name} column {col or '-'} row {row}"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--work", help="directory for the two output trees "
                                       "(default: a new temporary one)")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="answers-")
    out = {side: os.path.join(work, side) for side in ("base", "change")}
    # the runs are mostly interpreter start-up: one tree's process starts
    # while the other's runs
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(run_corpus, (args.base, args.change),
                      (out["base"], out["change"])))
    result = compare(out["base"], out["change"])
    print(summary_line(result))
    return 0 if result["identical"] == result["compared"] else 1


if __name__ == "__main__":
    sys.exit(main())
