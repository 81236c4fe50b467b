"""Workloads of the acsalign benchmark and the checks their outputs must pass.

A workload is a fixed list of CLI commands run one after another.  Sweep
commands take the benchmark seed as `--master-seed` (reduced modulo
MASTER_SEEDS, the range the recorded reference digests cover); the bound
command has no randomness.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

# Reference digests exist for every trial that master seeds 0..MASTER_SEEDS-1
# reach.  The range stops short of trial seeds 951 and 952, where the seed
# program fits slopes outside their bands (see README.md).
MASTER_SEEDS = 800

# 21 points, 60 to 110 dB in 2.5 dB steps: many rate evaluations per trial.
GRID_21 = ",".join(f"{60 + 2.5 * i:g}" for i in range(21))

# Slope bands of the acceptance suite, as (low, high).
SLOPE_BANDS = {
    "acs-ic3": (1.17, 1.23),
    "x-channel": (4 / 3 - 0.03, 4 / 3 + 0.03),
    "uplinks": (4 / 3 - 0.03, 4 / 3 + 0.03),
    "cognitive-x": (1.5 - 0.03, 1.5 + 0.03),
    "baseline": (-math.inf, 1.02),
}

SIX_FIFTHS = Fraction(6, 5)
DIGEST_CHARS = 16

WORKLOADS = ("acs-sweep", "small-s-grid-pool", "bound-12")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload."""

    kind: str          # "sweep" or "bound"
    args: tuple[str, ...]
    scheme: str | None = None
    master_seed: int = 0
    count: int = 0     # trials for a sweep, S max for a bound
    fmt: str = "jsonl"

    def argv(self, out_path: str) -> list[str]:
        """CLI arguments; a sweep writes to `out_path`, a bound prints to stdout."""
        return list(self.args) + (["--out", out_path] if self.kind == "sweep" else [])

    def with_arg(self, flag: str, value: int) -> "Command":
        """The same command with `flag` set to `value` (unchanged if it lacks `flag`)."""
        if flag not in self.args:
            return self
        args = list(self.args)
        args[args.index(flag) + 1] = str(value)
        count = value if flag in ("--trials", "--s-max") else self.count
        return replace(self, args=tuple(args), count=count)


def sweep(scheme: str, master_seed: int, trials: int, *extra: str, fmt: str = "jsonl") -> Command:
    args = ("sweep", "--scheme", scheme, "--trials", str(trials), "--master-seed", str(master_seed))
    return Command("sweep", args + extra, scheme, master_seed, trials, fmt)


def make(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The commands of `workload` for benchmark seed `seed`; `tiny` shrinks
    every command to a few trials or S <= 3 for the self-test."""
    master = seed % MASTER_SEEDS
    if workload == "acs-sweep":
        return [sweep("acs-ic3", master, 3 if tiny else 100)]
    if workload == "small-s-grid-pool":
        trials = 3 if tiny else 40
        return [
            sweep(scheme, master, trials, "--workers", "2", "--format", "csv",
                  "--snr-grid", GRID_21, fmt="csv")
            for scheme in ("x-channel", "uplinks", "cognitive-x", "baseline")
        ]
    if workload == "bound-12":
        s_max = 3 if tiny else 12
        return [Command("bound", ("bound", "--s-max", str(s_max)), count=s_max)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


@dataclass
class Outcome:
    """What one command's output is worth: attempts (trials or S values),
    failed attempts, and completed work (passing trials or feasible profiles)."""

    attempted: int
    failed: int = 0
    work: int = 0

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.work += other.work


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()[:DIGEST_CHARS]


def trial_blocks(text: str, fmt: str) -> tuple[str | None, list[tuple[int, list[str], list[dict]]]]:
    """Split a sweep output into (header, [(trial seed, raw lines, records)])
    in file order; consecutive lines with the same seed form one block."""
    lines = text.splitlines()
    header = None
    if fmt == "csv":
        if not lines:
            return None, []
        header, lines = lines[0], lines[1:]
        columns = next(csv.reader([header]))
        records = [dict(zip(columns, next(csv.reader([line])))) for line in lines]
    else:
        records = [json.loads(line) for line in lines]
    blocks: list[tuple[int, list[str], list[dict]]] = []
    for line, record in zip(lines, records):
        seed = int(record["seed"])
        if not blocks or blocks[-1][0] != seed:
            blocks.append((seed, [], []))
        blocks[-1][1].append(line)
        blocks[-1][2].append(record)
    return header, blocks


def trial_ok(scheme: str, records: list[dict]) -> bool:
    if any(r.get("record") == "skip" for r in records):
        return False
    dof = [r for r in records if r.get("record") == "dof"]
    if len(dof) != 1:
        return False
    lo, hi = SLOPE_BANDS[scheme]
    return lo <= float(dof[0]["slope"]) <= hi


def check_sweep(cmd: Command, returncode: int, text: str, reference: dict) -> Outcome:
    """Every trial needs exit code 0, no skip, a slope in its band, and bytes
    whose digest equals the one recorded from the seed program."""
    out = Outcome(cmd.count)
    if returncode != 0:
        out.failed = cmd.count
        return out
    expected = reference["digests"][cmd.scheme]
    try:
        header, blocks = trial_blocks(text, cmd.fmt)
    except (ValueError, KeyError):
        out.failed = cmd.count
        return out
    if cmd.fmt == "csv" and header != reference["csv_header"]:
        out.failed = cmd.count
        return out
    for i in range(cmd.count):
        seed = cmd.master_seed + i
        ok = (
            i < len(blocks)
            and blocks[i][0] == seed
            and seed < len(expected)
            and digest(blocks[i][1]) == expected[seed]
        )
        try:
            ok = ok and trial_ok(cmd.scheme, blocks[i][2])
        except (KeyError, ValueError):
            ok = False
        out.failed += not ok
    # Trials beyond the requested ones make the file differ from the seed's.
    if len(blocks) > cmd.count:
        out.failed = min(cmd.count, out.failed + 1)
    out.work = cmd.count - out.failed
    return out


def _row_ok(row: dict, s: int, expected: dict) -> bool:
    ratio = Fraction(row["best_ratio"])
    ok = (
        row["extension"] == s
        and ratio <= SIX_FIFTHS
        and row["best_ratio"] == expected["best_ratio"]
        and row["num_feasible"] == expected["num_feasible"]
        and len(row["argmax"]) == expected["argmax"]
    )
    if s == 5:
        ok = ok and ratio == SIX_FIFTHS and any(
            p["streams"] == [4, 4, 4] and p["overlaps"] == {"d12": 2, "d23": 2, "d31": 2}
            for p in row["argmax"]
        )
    return ok


def check_bound(cmd: Command, returncode: int, text: str, reference: dict) -> Outcome:
    """Every S row: ratio <= 6/5, the seed's best ratio, profile count and
    argmax size; S=5 attains 6/5 through (4,4,4)/(2,2,2)."""
    out = Outcome(cmd.count)
    if returncode != 0:
        out.failed = cmd.count
        return out
    rows = text.splitlines()
    for s in range(1, cmd.count + 1):
        ok = False
        if s <= len(rows):
            try:
                row = json.loads(rows[s - 1])
                ok = _row_ok(row, s, reference["bound"][str(s)])
            except (KeyError, ValueError, TypeError):
                ok = False
        if ok:
            out.work += row["num_feasible"]
        else:
            out.failed += 1
    if len(rows) != cmd.count:
        out.failed = min(cmd.count, out.failed + 1)
    return out


def check(cmd: Command, returncode: int, text: str, reference: dict) -> Outcome:
    if cmd.kind == "sweep":
        return check_sweep(cmd, returncode, text, reference)
    return check_bound(cmd, returncode, text, reference)
