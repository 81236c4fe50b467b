"""Self-test of the benchmark at tiny size (3 trials per sweep, bound to S=3).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every metric is printed by name with its unit, that corrupted
slopes, digests, bound rows and exit codes count as failures, that the two
seed-program trials known to miss their slope band are caught, and that the
benchmark refuses to run without the program's sources.  Exits 0 on success.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import launch
import run
import spans
import workloads

ROOT = os.getcwd()

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_metrics_printed(spec: dict) -> dict[str, str]:
    """Run every workload untraced and traced; return each workload's first
    sweep or bound output for the corruption checks."""
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(end_to_end == dict(run.END_TO_END), "BENCHMARK.json lists the end-to-end metrics run.py reports")
    outputs = {}
    for name in workloads.WORKLOADS:
        bench = run.Bench(ROOT, name, 0, tiny=True)
        lines, res = run.result(bench, 0, trace=False)
        text = "\n".join(lines)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{name}: tiny run passes its checks")
        expect(got == end_to_end, f"{name}: JSON carries every end-to-end metric with its unit")
        sweep = bench.commands[0].kind == "sweep"
        rate = ("trials_per_s", "trials/s") if sweep else ("profiles_per_s", "profiles/s")
        printed = [(m, u) for m, u in end_to_end.items() if m != "work_per_s"] + [rate, ("fail_frac", "failed/attempted")]
        missing = [m for m, u in printed if not re.search(rf"^\s+{re.escape(m)}\s+\S+ {re.escape(u)}\b", text, re.M)]
        expect(not missing, f"{name}: summary prints every metric by name with its unit (missing {missing})")
        with open(bench.path("0.out")) as fh:
            outputs[name] = fh.read()

        lines, res = run.result(bench, 0, trace=True)
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(res["correct"], f"{name}: traced tiny run passes its checks")
        expect(got == per_layer, f"{name}: traced run reports exactly the per-layer metrics with their units")
    return outputs


def failures(cmd: workloads.Command, text: str, returncode: int = 0) -> int:
    return workloads.check(cmd, returncode, text, run.load_reference()).failed


def check_corruptions(outputs: dict[str, str]) -> None:
    acs = workloads.make("acs-sweep", 0, tiny=True)[0]
    text = outputs["acs-sweep"]
    expect(failures(acs, text) == 0, "acs-sweep: untouched output passes")
    bad_slope = re.sub(r'"slope": [0-9.]+', '"slope": 0.5', text, count=1)
    expect(failures(acs, bad_slope) >= 1, "acs-sweep: an out-of-band slope counts as a failure")
    bad_rate = re.sub(r'("sum_rate_bpcu": [0-9]+\.[0-9])', r"\g<1>9", text, count=1)
    expect(bad_rate != text and failures(acs, bad_rate) == 1,
           "acs-sweep: a changed rate digit fails the digest check")
    expect(failures(acs, text, returncode=1) == acs.count, "acs-sweep: a nonzero exit fails every trial")
    skipped = text.replace('"record": "dof"', '"record": "skip"', 1)
    expect(failures(acs, skipped) >= 1, "acs-sweep: a skip record counts as a failure")

    pool = workloads.make("small-s-grid-pool", 0, tiny=True)[0]
    text = outputs["small-s-grid-pool"]
    rows = text.splitlines()
    dof = next(i for i, row in enumerate(rows) if ",dof," in row)
    cells = rows[dof].split(",")
    cells[6] = "1.1"
    corrupted = "\n".join(rows[:dof] + [",".join(cells)] + rows[dof + 1:]) + "\n"
    expect(failures(pool, text) == 0 and failures(pool, corrupted) >= 1,
           "small-s-grid-pool: a corrupted CSV slope counts as a failure")

    bound = workloads.make("bound-12", 0, tiny=True)[0]
    text = outputs["bound-12"]
    expect(failures(bound, text) == 0, "bound-12: untouched output passes")
    wrong_count = text.replace('"num_feasible": 71', '"num_feasible": 70', 1)
    expect(wrong_count != text and failures(bound, wrong_count) == 1, "bound-12: a wrong profile count fails its row")
    wrong_ratio = text.replace('"best_ratio": "7/6"', '"best_ratio": "5/4"', 1)
    expect(wrong_ratio != text and failures(bound, wrong_ratio) == 1, "bound-12: a ratio above 6/5 fails its row")


def check_known_band_misses() -> None:
    """Trial seeds past the benchmark's master-seed range that the seed program
    fits outside their slope bands; the check must catch them."""
    src = launch.source_dir(ROOT)
    env = launch.cli_env(src)
    out_dir = os.path.join(ROOT, run.OUT_DIR)
    cases = (
        workloads.sweep("acs-ic3", 952, 1),
        workloads.sweep("x-channel", 951, 1, "--format", "csv", "--snr-grid", workloads.GRID_21, fmt="csv"),
    )
    for cmd in cases:
        out = os.path.join(out_dir, f"selftest-{cmd.scheme}.out")
        usage = launch.run(launch.cli_argv(cmd.argv(out)), env, ROOT, out + ".stdout", out + ".stderr")
        with open(out) as fh:
            _, blocks = workloads.trial_blocks(fh.read(), cmd.fmt)
        expect(usage.returncode == 0 and len(blocks) == 1 and not workloads.trial_ok(cmd.scheme, blocks[0][2]),
               f"{cmd.scheme} trial seed {cmd.master_seed}: slope outside its band is reported")


def check_missing_entry_point() -> None:
    """A span whose entry point the program no longer has reports 0 calls."""
    real = spans.SPANS
    spans.SPANS = real + (("cli.gone", "acsalign.cli", "no_such_entry_point", False),
                          ("channel.gone", "acsalign.channel", "NoSuchClass.matrix", True))
    try:
        tracer = spans.Tracer()
        with tracer.installed():
            pass
        metrics = tracer.metrics(0.0)
    finally:
        spans.SPANS = real
    expect(metrics["cli.gone.calls"][0] == 0 and metrics["channel.gone.calls"][0] == 0,
           "an entry point missing from the program reports 0 calls")


def check_refuses_without_sources(spec: dict) -> None:
    bare = os.path.join(ROOT, run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", "bound-12", "--seed", "0", "--seconds", "1",
                                             "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0 and not last.startswith("{"),
           "without the program's sources the benchmark exits nonzero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = benchmark_spec()
    outputs = check_metrics_printed(spec)
    check_corruptions(outputs)
    check_known_band_misses()
    check_missing_entry_point()
    check_refuses_without_sources(spec)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
