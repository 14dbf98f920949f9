"""One workload in one fresh process: closed loop, one client, one thread.

Started by run.py. It imports vlcasim from the checkout's src/, generates
the workload's configs from the seed and prints READY, which ends the
set-up that run.py times. Unless --setup-only, it then runs the batch
through `vlcasim.cli.run`, one config after another, at least MIN_BATCHES
times and until the next batch would overrun --seconds; checks every
run's outputs; reruns one config to check byte-identical output; and
prints one JSON line of raw samples.

With --trace 1 it alternates untraced and traced batches, so the traced
per-layer metrics and the tracing overhead come from the same process.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import vlcasim  # noqa: E402
from vlcasim import cli, simkit  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(vlcasim.__file__).startswith(SRC + os.sep):
    raise ImportError(f"vlcasim imported from {vlcasim.__file__}, not {SRC}")

WORK_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
# every config runs at least twice, so each run time has a repeat
MIN_BATCHES = 2


class Batcher:
    """Runs batches back to back, bracketing every run with the witness.

    Untraced batches also sample the witness during each run (see
    speed.Sampler); traced batches do not, so that no span holds witness
    time, and rely on the brackets alone.
    """

    def __init__(self):
        self.last_witness = speed.witness()
        self.sampler = speed.Sampler()

    def run(self, raws, tracer=None):
        """Run every config once.

        Returns (wall s per run as measured, less the witness time inside
        it; the same at reference speed; cpu s of the batch; statuses).
        """
        statuses, walls, scaled = [], [], []
        ctx = (tracer.installed() if tracer
               else self.sampler)
        with ctx:
            cpu0 = time.process_time()
            for raw in raws:
                self.sampler.take()
                t0 = time.perf_counter()
                try:
                    statuses.append(cli.run(raw).status)
                except Exception as exc:  # a failed run is counted, not fatal
                    statuses.append(f"{type(exc).__name__}: {exc}")
                inside = self.sampler.take()
                wall = time.perf_counter() - t0 - sum(inside)
                after = speed.witness()
                walls.append(wall)
                scaled.append(speed.at_reference(
                    wall, [self.last_witness, *inside, after]))
                self.last_witness = after
            cpu = time.process_time() - cpu0
        return walls, scaled, cpu, statuses


def measure(workload, seed, seconds, trace, configs, tamper=None):
    """Run batches for about `seconds` and return the raw samples.

    `tamper(raws)` runs after each batch and before its check; the
    self-test uses it to inject an output deviation.
    """
    warnings.simplefilter("ignore", simkit.SaturationWarning)
    workdir = os.path.join(WORK_DIR, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    raws = [dict(cfg, out=os.path.join(workdir, f"{i:02d}_{cfg['scenario']}"))
            for i, cfg in enumerate(configs)]
    with open(REFERENCE) as fh:
        references = json.load(fh)
    tracer = tracing.Tracer()
    batcher = Batcher()
    samples = {False: {"raw": [], "scaled": []}, True: {"raw": [], "scaled": []}}
    cpus, layers, spans_out = [], [], []
    attempted = failed = 0
    problems, devs = [], []
    started = time.perf_counter()
    while True:
        traced = trace and len(samples[True]["raw"]) < len(samples[False]["raw"])
        walls, scaled, cpu, statuses = batcher.run(raws, tracer if traced else None)
        samples[traced]["raw"].append(walls)
        samples[traced]["scaled"].append(scaled)
        cpus.append(cpu)
        if tamper:
            tamper(raws)
        written = 0
        for raw, status in zip(raws, statuses):
            bad, dev, nbytes = checks.check_run(raw["out"], status, raw,
                                                references)
            attempted += 1
            failed += bool(bad)
            problems += [f"{os.path.basename(raw['out'])}: {p}" for p in bad]
            written += nbytes
            if dev is not None:
                devs.append(dev)
        if traced:
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans, written))
            spans_out.append(spans)
        done = (samples[True]["raw"] if trace
                else len(samples[False]["raw"]) >= MIN_BATCHES)
        if done and time.perf_counter() - started + sum(walls) > seconds:
            break

    rerun = dict(raws[0], out=raws[0]["out"] + "_rerun")
    *_, (status,) = batcher.run([rerun])
    attempted += 1
    diffs = ([f"rerun: {status}"] if status != "ok"
             else checks.identical_outputs(raws[0]["out"], rerun["out"]))
    failed += bool(diffs)
    problems += diffs

    if spans_out:
        with open(os.path.join(workdir, "spans.json"), "w") as fh:
            json.dump(spans_out, fh)
    return {
        "untraced": samples[False], "traced": samples[True], "cpus": cpus,
        "configs": len(raws), "attempted": attempted, "failed": failed,
        "problems": problems[:20],
        "max_rel_dev": max(devs) if devs else None,
        "runs_with_reference": len(devs),
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {"python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__,
                     "scipy": sys.modules["scipy"].__version__,
                     "vlcasim": vlcasim.__version__},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    configs = workloads.batch(args.workload, args.seed, args.tiny)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     configs)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
