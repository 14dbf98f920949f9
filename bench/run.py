"""vlcasim benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload leg_sim --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; it imports vlcasim from src/ and
builds nothing. `--workload all` runs the three workloads in turn.

Set-up time is taken from the parent: spawn a fresh interpreter (BLAS and
OpenMP pinned to one thread) and wait for it to print READY after
importing vlcasim.cli and generating the configs; the median of
SETUP_SAMPLES interpreters is reported. A further interpreter then runs
the workload (see worker.py). Run times are scaled to the host's
uncontended speed (see speed.py); the report line also holds them as
measured. Set-up times are not scaled: they are mostly imports and
loading shared libraries, which the witness does not track. Every metric line is printed with its unit; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over src/vlcasim/*.py, for checkouts without git."""
    pkg = os.path.join(ROOT, "src", "vlcasim")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _environment():
    return {"commit": _commit(), "source_digest": _source_digest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "thread_pin": THREAD_PIN, "loadavg_start": os.getloadavg()}


def _spawn(args, deadline):
    """Start a worker, wait for READY; returns (process, set-up seconds)."""
    env = dict(os.environ, **THREAD_PIN)
    env.pop("VLCA_OUT", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(deadline - t0, 0.0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def _finish(proc, deadline):
    """Wait for the worker and return its stdout; kill it at the deadline."""
    try:
        out, _ = proc.communicate(
            timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker overran {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def batch_seconds(batches):
    """Batch wall time: each config's median over the repeats, summed.

    `batches` holds one list of per-config times per batch; taking the
    median per config rather than per batch keeps one disturbed run from
    moving a whole batch's sample.
    """
    return sum(statistics.median(times) for times in zip(*batches))


def measure(workload, seed, seconds, trace, tiny):
    """Run one workload; returns (result line, report)."""
    deadline = time.perf_counter() + DEADLINE_S
    env = _environment()
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        args.append("--tiny")
    setups = []
    for _ in range(SETUP_SAMPLES):
        proc, setup = _spawn(args + ["--setup-only"], deadline)
        _finish(proc, deadline)
        setups.append(setup)
    proc, _ = _spawn(args, deadline)
    out = _finish(proc, deadline)
    if not out.strip():
        raise BenchError("worker printed no result")
    raw = json.loads(out.strip().splitlines()[-1])
    env["loadavg_end"] = os.getloadavg()
    env.update(raw["versions"])

    wall = batch_seconds(raw["untraced"]["scaled"])
    if trace:
        metrics = {name: statistics.median(layer[name] for layer in raw["layers"])
                   for name, _, _ in tracing.LAYER_METRICS
                   if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            batch_seconds(raw["traced"]["scaled"]) / wall - 1.0)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics = {"wall_s": wall, "setup_s": statistics.median(setups),
                   "peak_rss_mb": raw["peak_rss_mb"]}
        units = dict(END_TO_END)
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {n: {"value": v, "unit": units[n]}
                          for n, v in metrics.items()}}
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "environment": env,
        "fail_frac": {"value": raw["failed"] / raw["attempted"],
                      "unit": "ratio"},
        "check.max_rel_dev": {"value": raw["max_rel_dev"], "unit": "ratio",
                              "runs_with_reference": raw["runs_with_reference"]},
        "problems": raw["problems"],
        "measured": {  # as the clock read them, before scaling by the witness
            "wall_s": batch_seconds(raw["untraced"]["raw"])},
        "samples": {"setup_s": setups,
                    "batches": len(raw["untraced"]["raw"]),
                    "traced_batches": len(raw["traced"]["raw"]),
                    "configs_per_batch": raw["configs"],
                    "run_s": raw["untraced"]["scaled"],
                    "run_measured_s": raw["untraced"]["raw"],
                    "batch_cpu_s": raw["cpus"]},
    }
    return result, report


def _print(workload, result, report):
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:45s} {m['value']:.6g} {m['unit']}")
    for name in ("fail_frac", "check.max_rel_dev"):
        v = report[name]["value"]
        print(f"{workload:15s} {name:45s} "
              f"{'n/a' if v is None else format(v, '.3g')} {report[name]['unit']}")
    for problem in report["problems"]:
        print(f"{workload:15s} FAILED {problem}")
    print(json.dumps({"report": report}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one config per scenario; --seconds is ignored")
    args = p.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, report = measure(name, args.seed,
                                     0.0 if args.tiny else args.seconds,
                                     args.trace, args.tiny)
            _print(name, result, report)
            results[name] = result
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{n}": m for w, r in results.items()
                             for n, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
