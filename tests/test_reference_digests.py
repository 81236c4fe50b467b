"""Sweep bytes and bound rows stay those of the recorded reference.

perfbench/reference.json holds a sha256 prefix of every trial's output lines
for the benchmark's sweep commands.  Re-running the first trials of each with
the same arguments must reproduce them exactly, and so must one-trial sweeps
at every 25th recorded master seed, so a refactor that moves a last digit
anywhere in the numerical stack fails here, not in a benchmark.
It also holds each `bound --s-max 12` row's best ratio, feasible-profile count
and number of maximizers, which the bound run must match.
"""

import hashlib
import json
from pathlib import Path

import pytest

from acsalign.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
TRIALS = 3
SEED_STRIDE = 25
GRID_21 = ",".join(f"{60 + 2.5 * i:g}" for i in range(21))

# The benchmark's arguments per scheme: acs-ic3 as JSON lines on the default
# grid, the rest as CSV on the 21-point grid.
SWEEPS = {
    "acs-ic3": [],
    "x-channel": ["--format", "csv", "--snr-grid", GRID_21],
    "uplinks": ["--format", "csv", "--snr-grid", GRID_21],
    "cognitive-x": ["--format", "csv", "--snr-grid", GRID_21],
    "baseline": ["--format", "csv", "--snr-grid", GRID_21],
}


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _trial_digests(lines: list[str], seeds: list[int]) -> list[str]:
    blocks: dict[int, list[str]] = {}
    for line, seed in zip(lines, seeds):
        blocks.setdefault(seed, []).append(line)
    return [
        hashlib.sha256("".join(ln + "\n" for ln in blocks[s]).encode()).hexdigest()[:16]
        for s in sorted(blocks)
    ]


@pytest.mark.parametrize("scheme", sorted(SWEEPS))
def test_first_trials_match_the_reference_digests(scheme, reference, tmp_path, capsys):
    out = tmp_path / "sweep.out"
    argv = ["sweep", "--scheme", scheme, "--trials", str(TRIALS), "--master-seed", "0", "--out", str(out)]
    assert main(argv + SWEEPS[scheme]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    if SWEEPS[scheme]:
        assert lines[0] == reference["csv_header"]
        lines = lines[1:]
        seeds = [int(line.split(",")[1]) for line in lines]
    else:
        seeds = [json.loads(line)["seed"] for line in lines]
    assert _trial_digests(lines, seeds) == reference["digests"][scheme][:TRIALS]


@pytest.mark.parametrize("scheme", sorted(SWEEPS))
def test_every_25th_recorded_seed_matches_its_reference_digest(scheme, reference, tmp_path, capsys):
    # One-trial sweeps spread over the whole recorded range, not just its start.
    out = tmp_path / "sweep.out"
    expected = reference["digests"][scheme]
    for seed in range(0, len(expected), SEED_STRIDE):
        argv = ["sweep", "--scheme", scheme, "--trials", "1", "--master-seed", str(seed), "--out", str(out)]
        assert main(argv + SWEEPS[scheme]) == 0
        lines = out.read_text().splitlines()
        if SWEEPS[scheme]:
            assert lines[0] == reference["csv_header"]
            lines = lines[1:]
        assert _trial_digests(lines, [seed] * len(lines)) == [expected[seed]], f"master seed {seed}"
    capsys.readouterr()


def test_bound_rows_match_the_reference(reference, capsys):
    assert main(["bound", "--s-max", "12"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["extension"] for row in rows] == list(range(1, 13))
    for row in rows:
        expected = reference["bound"][str(row["extension"])]
        assert row["best_ratio"] == expected["best_ratio"]
        assert row["num_feasible"] == expected["num_feasible"]
        assert len(row["argmax"]) == expected["argmax"]
    assert rows[4]["best_ratio"] == rows[9]["best_ratio"] == "6/5"
