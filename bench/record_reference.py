"""Record bench/reference.json: the summary values of every config in the
default-seed batches of all workloads (the tiny batches are subsets).

    python3 bench/record_reference.py

Run it only on a commit whose outputs are known good; the benchmark then
counts any later deviation beyond checks.TOLERANCES as a failed run.
"""

import json
import os
import shutil
import sys
import warnings

import worker  # sets up sys.path for vlcasim
from vlcasim import cli, simkit

import checks
import workloads


def main():
    warnings.simplefilter("ignore", simkit.SaturationWarning)
    out_root = os.path.join(worker.WORK_DIR, "reference")
    shutil.rmtree(out_root, ignore_errors=True)
    references = {}
    for name in workloads.WORKLOADS:
        for i, cfg in enumerate(workloads.batch(name, checks.DEFAULT_SEED)):
            outdir = os.path.join(out_root, f"{name}_{i:02d}")
            cli.run(dict(cfg, out=outdir))
            values = checks.summary_values(outdir)
            if values:  # force_tracking and bode write no summary CSV
                references[checks.config_digest(cfg)] = {"config": cfg,
                                                         "values": values}
            print(name, i, cfg["scenario"], file=sys.stderr)
    with open(worker.REFERENCE, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
