"""Benchmark of the acsalign command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload acs-sweep --seed 0 --seconds 40 --trace 0

With `--trace 0` the workload's commands run as CLI processes, one at a time
(a closed loop: each starts after the previous one exits), for `--seconds`;
every output is checked and the end-to-end metrics summarise the passes of
the workload.  With `--trace 1` the same commands run in this
process through `acsalign.cli.main`, first untraced, then once with spans
around each layer's entry points, and the per-layer metrics are printed.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout

import launch
import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = ".bench_out"

# Fresh interpreters importing acsalign.cli per run; the median is setup_s.
SETUP_IMPORTS = 9

# (name, unit) of the end-to-end metrics, in the order they are printed.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "items/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (both the value itself for one value)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except FileNotFoundError:
        return ""


def _show_stderr(path: str) -> None:
    text = _read(path).strip()
    if text:
        print(text[-2000:], file=sys.stderr)


class Bench:
    """Paths and inputs shared by the passes of one benchmark run."""

    def __init__(self, root: str, workload: str, seed: int, tiny: bool):
        self.root = os.path.abspath(root)
        self.src = launch.source_dir(self.root)
        self.env = launch.cli_env(self.src)
        self.out_dir = os.path.join(self.root, OUT_DIR)
        os.makedirs(self.out_dir, exist_ok=True)
        self.workload = workload
        self.seed = seed
        self.commands = workloads.make(workload, seed, tiny)
        self.reference = load_reference()

    def path(self, suffix: str) -> str:
        return os.path.join(self.out_dir, f"{self.workload}-{suffix}")

    def setup_times(self) -> list[float]:
        """Time fresh interpreters importing acsalign.cli, after one warm-up
        import that also confirms the checkout's sources are the ones loaded."""
        out, err = self.path("import.stdout"), self.path("import.stderr")
        warm = launch.run(launch.import_argv(), self.env, self.root, out, err)
        loaded = _read(out).strip()
        if warm.returncode != 0 or not loaded.startswith(self.src + os.sep):
            _show_stderr(err)
            sys.exit(f"error: importing acsalign.cli from {self.src} failed (loaded {loaded!r})")
        times = []
        for _ in range(SETUP_IMPORTS):
            usage = launch.run(launch.import_argv(), self.env, self.root, out, err)
            if usage.returncode != 0:
                _show_stderr(err)
                sys.exit("error: importing acsalign.cli failed")
            times.append(usage.wall_s)
        return times


def run_pass(bench: Bench, outcome: workloads.Outcome) -> dict:
    """Run every command of the workload once as a CLI process."""
    totals = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "work": 0}
    for i, cmd in enumerate(bench.commands):
        out = bench.path(f"{i}.out")
        if os.path.exists(out):
            os.remove(out)
        stdout = out if cmd.kind == "bound" else bench.path(f"{i}.stdout")
        stderr = bench.path(f"{i}.stderr")
        usage = launch.run(launch.cli_argv(cmd.argv(out)), bench.env, bench.root, stdout, stderr)
        if usage.returncode != 0:
            _show_stderr(stderr)
        result = workloads.check(cmd, usage.returncode, _read(out), bench.reference)
        outcome.add(result)
        totals["wall_s"] += usage.wall_s
        totals["cpu_s"] += usage.cpu_s
        totals["peak_rss_mb"] = max(totals["peak_rss_mb"], usage.peak_rss_mb)
        totals["work"] += result.work
    return totals


def measure(bench: Bench, seconds: float) -> tuple[workloads.Outcome, dict, list[str]]:
    """End-to-end metrics over the passes that fit in `seconds`.

    Times are the first quartile of the passes and throughput the third:
    on a shared host, other tenants' load only ever slows a pass down.
    """
    setup = bench.setup_times()
    outcome = workloads.Outcome(0)
    passes = []
    start = time.perf_counter()
    # Start a pass only if a typical pass still ends within the run.
    while not passes or (time.perf_counter() - start
                         + statistics.median(p["elapsed_s"] for p in passes) <= seconds):
        began = time.perf_counter()
        passes.append(run_pass(bench, outcome))
        passes[-1]["elapsed_s"] = time.perf_counter() - began

    def median(key):
        return statistics.median(p[key] for p in passes)

    metrics = {
        "wall_s": quartiles([p["wall_s"] for p in passes])[0],
        "setup_s": statistics.median(setup),
        "work_per_s": quartiles([p["work"] / p["wall_s"] for p in passes])[1],
        "cpu_s": quartiles([p["cpu_s"] for p in passes])[0],
        "peak_rss_mb": median("peak_rss_mb"),
    }
    sweep = bench.commands[0].kind == "sweep"
    rate_name, rate_unit = ("trials_per_s", "trials/s") if sweep else ("profiles_per_s", "profiles/s")
    fail_frac = outcome.failed / outcome.attempted
    attempts = "trials" if sweep else "S values"
    lines = [
        f"workload {bench.workload}: seed {bench.seed}, {len(passes)} passes in "
        f"{time.perf_counter() - start:.1f} s, {SETUP_IMPORTS} timed imports; nproc {os.cpu_count()}, "
        f"Python {sys.version.split()[0]}",
        f"  wall_s        {metrics['wall_s']:.4f} s      first quartile of passes (median {median('wall_s'):.4f} s), "
        f"launch to exit summed over commands",
        f"  setup_s       {metrics['setup_s']:.4f} s      median fresh `import acsalign.cli`",
        f"  {rate_name:<13} {metrics['work_per_s']:.4f} {rate_unit}  (work_per_s in the JSON line)",
        f"  cpu_s         {metrics['cpu_s']:.4f} s      user+system of CLI and worker processes",
        f"  peak_rss_mb   {metrics['peak_rss_mb']:.2f} MB     largest CLI or worker process",
        f"  fail_frac     {fail_frac:.4f} failed/attempted  ({outcome.failed} of {outcome.attempted} {attempts})",
    ]
    return outcome, metrics, lines


def _run_in_process(cli, cmd: workloads.Command, out: str) -> int:
    argv = cmd.argv(out)
    try:
        if cmd.kind == "bound":
            with open(out, "w") as fh, redirect_stdout(fh):
                return cli.main(argv)
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing command is a failed output, not a benchmark error
        traceback.print_exc()
        return 1


def measure_traced(bench: Bench, seconds: float) -> tuple[workloads.Outcome, dict, list[str]]:
    """Per-layer metrics from one traced in-process pass, after untraced
    in-process passes for half of `seconds` give the overhead baseline."""
    if bench.src not in sys.path:
        sys.path.insert(0, bench.src)
    import acsalign.cli as cli

    if not os.path.abspath(cli.__file__).startswith(bench.src + os.sep):
        sys.exit(f"error: acsalign was imported from {cli.__file__}, not {bench.src}")
    # The pool cannot be traced in-process; its cost shows in the untraced run.
    commands = [cmd.with_arg("--workers", 1) for cmd in bench.commands]
    outcome = workloads.Outcome(0)

    def one_pass() -> float:
        start = time.perf_counter()
        for i, cmd in enumerate(commands):
            out = bench.path(f"{i}.out")
            returncode = _run_in_process(cli, cmd, out)
            outcome.add(workloads.check(cmd, returncode, _read(out), bench.reference))
        return time.perf_counter() - start

    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds / 2:
        untraced.append(one_pass())
    tracer = Tracer()
    with tracer.installed():
        traced = one_pass()
    spans_path = bench.path(f"spans-seed{bench.seed}.jsonl")
    tracer.write(spans_path)
    metrics = tracer.metrics(traced - statistics.median(untraced))
    lines = [
        f"workload {bench.workload} traced: seed {bench.seed}, {len(untraced)} untraced in-process "
        f"passes (median {statistics.median(untraced):.4f} s), traced pass {traced:.4f} s, "
        f"{len(tracer.spans)} spans in {os.path.relpath(spans_path, bench.root)}"
    ]
    lines += [f"  {name:<36} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return outcome, metrics, lines


def result(bench: Bench, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """Summary lines and the result object of one benchmark run."""
    if trace:
        outcome, metrics, lines = measure_traced(bench, seconds)
        reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        outcome, metrics, lines = measure(bench, seconds)
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    return lines, {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": reported,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the acsalign CLI.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(os.getcwd(), args.workload, args.seed, tiny=False)
    lines, res = result(bench, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
