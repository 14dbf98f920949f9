"""Self-test of the benchmark itself (not of vlcasim).

    python3 bench/selftest.py

1. Runs every workload once on its tiny batch, untraced and traced, and
   checks that the last line names exactly the metrics BENCHMARK.json
   declares, with the declared units, and that no run failed.
2. Injects a 1% deviation into one summary value and checks that the
   run is counted in fail_frac.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and
   the benchmark's own files, where it must fail without a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402


class SelfTestFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise SelfTestFailed(msg)


def bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def tiny_runs(spec):
    for workload in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(["--workload", workload, "--seed", "0",
                          "--trace", str(trace), "--tiny"])
            expect(proc.returncode == 0, f"{workload} trace={trace} exited "
                   f"{proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload}: runs failed: {report['problems']}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            expect(got == want, f"{workload} trace={trace}: metrics {got} "
                   f"differ from BENCHMARK.json {want}")
            for name, m in result["metrics"].items():
                expect(isinstance(m["value"], (int, float))
                       and math.isfinite(m["value"]), f"{name}: {m['value']!r}")
            expect(report["fail_frac"]["value"] == 0.0, "fail_frac not 0")
            expect(report["check.max_rel_dev"]["value"] is not None,
                   f"{workload}: no run was compared with its reference")
            if trace and workload == "margins_design":
                scans = result["metrics"]["vlca.calibrate_margins.scans"]["value"]
                expect(scans == 172, f"calibrate_margins.scans = {scans}")
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} runs")


def injected_deviation():
    def tamper(raws):
        path = next(os.path.join(r["out"], "materials_ranked.csv")
                    for r in raws if r["scenario"] == "materials")
        with open(path) as fh:
            header, first, *rest = fh.read().splitlines()
        rank, name, score = first.split(",")
        first = f"{rank},{name},{float(score) * 1.01:.10g}"
        with open(path, "w") as fh:
            fh.write("\n".join([header, first, *rest]) + "\n")

    configs = workloads.batch("actuator_sim", 0, tiny=True)
    raw = worker.measure("actuator_sim", 0, 0.0, False, configs, tamper)
    frac = raw["failed"] / raw["attempted"]
    expect(frac > 0.0, "a 1% deviation in materials_ranked.csv went unseen")
    expect(any("materials_ranked.csv" in p for p in raw["problems"]),
           f"problems do not name the file: {raw['problems']}")
    print(f"ok  injected deviation: fail_frac = {frac:.3g}")


def bare_directory():
    bare = os.path.join(worker.WORK_DIR, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench(["--workload", "leg_sim", "--seed", "1", "--seconds", "1"],
                 cwd=bare)
    shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0, "benchmark succeeded without the program")
    expect('"correct"' not in last, "benchmark printed a result without "
           "the program")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        tiny_runs(spec)
        injected_deviation()
        bare_directory()
    except SelfTestFailed as exc:
        print(f"FAIL {exc}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
