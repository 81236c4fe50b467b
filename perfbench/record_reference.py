"""Record the reference outputs the benchmark checks against.

Run once, from the root of a checkout of the seed program:

    python3 perfbench/record_reference.py

It runs every sweep command of the benchmark over the trial seeds that master
seeds 0..MASTER_SEEDS-1 can reach, stores a digest of each trial's output
bytes, and stores the seed's bound rows for S = 1..12.  Re-recording on a
changed program would turn the byte-identity check into a self-comparison,
so the file is committed once and left alone.
"""

from __future__ import annotations

import json
import os
import sys

import launch
import workloads

OUT_DIR = ".bench_out"
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def main() -> int:
    root = os.getcwd()
    src = launch.source_dir(root)
    env = launch.cli_env(src)
    os.makedirs(OUT_DIR, exist_ok=True)
    reference: dict = {"master_seeds": workloads.MASTER_SEEDS, "csv_header": None,
                       "digests": {}, "bound": {}}
    bad = 0
    for name in ("acs-sweep", "small-s-grid-pool"):
        for cmd in workloads.make(name, 0):
            trials = workloads.MASTER_SEEDS - 1 + cmd.count
            cmd = cmd.with_arg("--trials", trials)
            out = os.path.join(OUT_DIR, f"reference-{cmd.scheme}.{cmd.fmt}")
            usage = launch.run(launch.cli_argv(cmd.argv(out)), env, root,
                               os.path.join(OUT_DIR, "reference.stdout"),
                               os.path.join(OUT_DIR, "reference.stderr"))
            if usage.returncode != 0:
                sys.exit(f"error: {cmd.scheme} sweep exited with {usage.returncode}")
            with open(out) as fh:
                header, blocks = workloads.trial_blocks(fh.read(), cmd.fmt)
            if [b[0] for b in blocks] != list(range(trials)):
                sys.exit(f"error: {cmd.scheme} sweep did not produce trials 0..{trials - 1} in order")
            if header is not None:
                reference["csv_header"] = header
            reference["digests"][cmd.scheme] = [workloads.digest(lines) for _, lines, _ in blocks]
            failing = [seed for seed, _, records in blocks if not workloads.trial_ok(cmd.scheme, records)]
            bad += len(failing)
            print(f"{cmd.scheme}: {trials} trials in {usage.wall_s:.1f} s, "
                  f"{len(failing)} outside the slope band or skipped {failing[:10]}")
    bound = workloads.make("bound-12", 0)[0]
    out = os.path.join(OUT_DIR, "reference-bound.jsonl")
    usage = launch.run(launch.cli_argv(bound.argv(out)), env, root, out,
                       os.path.join(OUT_DIR, "reference.stderr"))
    if usage.returncode != 0:
        sys.exit(f"error: bound exited with {usage.returncode}")
    with open(out) as fh:
        for line in fh:
            row = json.loads(line)
            reference["bound"][str(row["extension"])] = {
                "best_ratio": row["best_ratio"],
                "num_feasible": row["num_feasible"],
                "argmax": len(row["argmax"]),
            }
    print(f"bound: S=1..{bound.count} in {usage.wall_s:.1f} s")
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
