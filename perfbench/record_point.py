"""Record one point of the benchmark trajectory.

Run from the root of a checkout:

    python3 perfbench/record_point.py LABEL [--seconds 40]

Runs every workload on the default seed and on the held-out seed with
tracing off, and traced on the default seed, then writes
perfbench/results/LABEL.json with the results, the sha256 of each sweep and
bound output from the last pass, and the machine they were measured on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

import launch
import run
import workloads

DEFAULT_SEED = 0
# Never used while the benchmark was tuned; recheck claims on it.
HELD_OUT_SEED = 691

RESULTS = os.path.join(run.HERE, "results")


def machine(src: str) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, env=launch.cli_env(src), check=True,
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    print(proc.stdout, end="", flush=True)
    entry = {"workload": workload, "seed": seed, "trace": trace,
             "result": json.loads(proc.stdout.strip().splitlines()[-1])}
    if not trace:
        digests = []
        for i, _ in enumerate(workloads.make(workload, seed)):
            with open(os.path.join(run.OUT_DIR, f"{workload}-{i}.out"), "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        entry["output_sha256"] = digests
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()
    src = launch.source_dir(os.getcwd())
    point = {"label": args.label, "seconds": args.seconds, "machine": machine(src),
             "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "runs": []}
    for workload in workloads.WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            point["runs"].append(bench(workload, seed, args.seconds, 0))
        point["runs"].append(bench(workload, DEFAULT_SEED, args.seconds, 1))
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.label}.json")
    with open(path, "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
