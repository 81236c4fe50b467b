"""End-to-end command-line behavior: exit codes, report formats, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import acsalign
from acsalign import verify
from acsalign.bound import max_dof
from acsalign.channel import (
    ComplexChannelMatrix,
    construct_special_channel,
    dump_channel,
    implicated_receiver,
    load_channel,
    sample_channel,
    special_channel_kinds,
)
from acsalign.cli import main
from acsalign.rates import estimate_baseline_dof, estimate_dof
from acsalign.schemes import GENERIC_PHASE_MARGIN, SCHEME_TAGS, SCHEMES, build_scheme
from acsalign.verify import independence_margin


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_passes_on_a_generic_channel(capsys):
    code, out = run_cli(["verify", "--scheme", "acs-ic3", "--channel-seed", "7"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["conditions"]["all_satisfied"] is True
    assert payload["alignment_residual"] <= 1e-9
    assert payload["independence"]["all_independent"] is True
    assert payload["descriptor"]["dof"] == "6/5"
    assert "singularity" in payload


def test_verify_fails_on_the_sign_channel(capsys):
    code, out = run_cli(["verify", "--scheme", "acs-ic3", "--special", "plus-minus-one"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    failed = [c["id"] for c in payload["conditions"]["conditions"] if not c["satisfied"]]
    assert failed == ["rx1-a", "rx1-b", "rx2-a", "rx2-b", "rx3-a", "rx3-b"]
    # Infeasible channels stop before any build is attempted.
    assert "descriptor" not in payload


def test_verify_single_symbol_scheme_on_its_example(capsys):
    code, out = run_cli(["verify", "--scheme", "phase-align", "--special", "phase-example"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["descriptor"]["dof"] == "3/2"


def test_verify_reads_channel_files(tmp_path, capsys):
    path = tmp_path / "chan.txt"
    dump_channel(sample_channel(7, 3, 3), path)
    code, out = run_cli(["verify", "--scheme", "acs-ic3", "--channel-file", str(path)], capsys)
    assert code == 0


def test_verify_missing_channel_file_is_a_usage_error(tmp_path, capsys):
    code = main(["verify", "--scheme", "acs-ic3", "--channel-file", str(tmp_path / "absent.txt")])
    capsys.readouterr()
    assert code == 2


def _reject_nonfinite(token):
    raise ValueError(f"non-finite JSON number {token}")


@pytest.fixture
def zero_link_file(tmp_path):
    """Channel seed 7 with the (2, 3) link gain set to zero."""
    chn = sample_channel(7, 3, 3)
    magnitude = np.array(chn.magnitude)
    magnitude[1, 2] = 0.0
    path = tmp_path / "zero-link.txt"
    dump_channel(ComplexChannelMatrix(magnitude, np.array(chn.phase)), path)
    return path


@pytest.mark.parametrize("scheme,failed", [("acs-ic3", ["fully-connected"]), ("phase-align", ["closure"])])
def test_verify_reports_a_zero_link_channel_as_failed(scheme, failed, zero_link_file, capsys):
    code, out = run_cli(["verify", "--scheme", scheme, "--channel-file", str(zero_link_file)], capsys)
    assert code == 1
    payload = json.loads(out, parse_constant=_reject_nonfinite)
    assert payload["pass"] is False
    assert payload["failed_conditions"] == failed
    assert "descriptor" not in payload
    singularity = payload["singularity"]["conditions"]
    assert not any(rec["satisfied"] for rec in singularity if "magnitude_ratio" not in rec)


def test_sweep_skips_the_same_zero_link_channel(zero_link_file, capsys):
    code, out = run_cli(["sweep", "--scheme", "acs-ic3", "--trials", "1",
                         "--channel-file", str(zero_link_file)], capsys)
    assert code == 1
    assert json.loads(out)["reason"].endswith("failed conditions: fully-connected")


def sweep_lines(path):
    lines = path.read_text().splitlines()
    return [json.loads(ln) for ln in lines]


def test_sweep_writes_rate_and_slope_records(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    code = main([
        "sweep", "--scheme", "acs-ic3", "--trials", "3",
        "--master-seed", "10", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    records = sweep_lines(out)
    assert len(records) == 3 * 7
    seeds = sorted({r["seed"] for r in records})
    assert seeds == [10, 11, 12]
    rates = [r for r in records if r["record"] == "rate"]
    dofs = [r for r in records if r["record"] == "dof"]
    assert len(rates) == 18 and len(dofs) == 3
    for r in rates:
        assert r["scheme"] == "acs-ic3"
        assert len(r["per_user_rates"]) == 3
        assert abs(sum(r["per_user_rates"]) - r["sum_rate_bpcu"]) < 1e-9
    for r in dofs:
        assert 1.17 <= r["slope"] <= 1.23
        assert r["snr_db"] is None


def test_sweep_is_identical_serial_or_parallel(tmp_path, capsys):
    # Two workers take even blocks of 4 trials (2 and 2), then uneven blocks
    # of 5 (3 and 2): the block boundary changes no byte.
    for trials in ("4", "5"):
        serial = tmp_path / f"serial-{trials}.jsonl"
        parallel = tmp_path / f"parallel-{trials}.jsonl"
        base = ["sweep", "--scheme", "x-channel", "--trials", trials, "--master-seed", "3"]
        assert main(base + ["--out", str(serial), "--workers", "1"]) == 0
        assert main(base + ["--out", str(parallel), "--workers", "2"]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes(), trials


def test_sweep_on_a_fixed_channel_is_identical_serial_or_parallel(tmp_path, capsys):
    # The fixed channel is pickled into every worker's task.
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    base = ["sweep", "--scheme", "acs-ic3", "--channel-seed", "5", "--trials", "2"]
    assert main(base + ["--out", str(serial), "--workers", "1"]) == 0
    assert main(base + ["--out", str(parallel), "--workers", "2"]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()


def test_sweep_pool_never_outnumbers_the_trials(tmp_path, capsys, monkeypatch):
    pools = []
    chunksizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor and maps in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            chunksizes.append(chunksize)
            return map(fn, items)

    def sweep(trials, workers):
        out = tmp_path / f"{trials}-{workers}.jsonl"
        argv = ["sweep", "--scheme", "x-channel", "--master-seed", "3", "--trials", str(trials),
                "--workers", str(workers), "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes()

    # run_sweep imports the pool from concurrent.futures when it starts one.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    assert sweep(2, 64) == sweep(2, 1)
    assert pools == [2]
    assert sweep(1, 8) == sweep(1, 1)
    assert pools == [2]
    # Each worker is handed one contiguous block: 5 trials split 3 and 2.
    assert sweep(5, 2) == sweep(5, 1)
    assert pools == [2, 2]
    assert chunksizes == [1, 3]
    capsys.readouterr()


def test_sweep_writes_each_trial_before_the_next_starts(tmp_path, capsys, monkeypatch):
    from acsalign import cli

    # Lines in the output file as each trial starts; the file opens with the first trial's records.
    out = tmp_path / "sweep.jsonl"
    written = []
    real_trial = cli._sweep_trial

    def sweep_trial(*args):
        written.append(len(out.read_text().splitlines()) if out.exists() else 0)
        return real_trial(*args)

    monkeypatch.setattr(cli, "_sweep_trial", sweep_trial)
    assert main(["sweep", "--scheme", "acs-ic3", "--trials", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert written == [0, 7, 14, 21]
    assert len(sweep_lines(out)) == 28


def test_sweep_to_an_unwritable_path_stops_after_the_first_trial(tmp_path, capsys, monkeypatch):
    from acsalign import cli

    calls = []
    real_trial = cli._sweep_trial
    monkeypatch.setattr(cli, "_sweep_trial", lambda *args: calls.append(args) or real_trial(*args))
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["sweep", "--scheme", "acs-ic3", "--trials", "50", "--out", str(blocker / "sweep.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert len(calls) <= 1


@pytest.mark.parametrize("to_file", [False, True])
def test_sweep_whose_first_trial_raises_writes_nothing(to_file, tmp_path, capsys):
    # The output opens only once a trial is in: no CSV header, and no file.
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scheme", "x-channel", "--special", "phase-example", "--format", "csv"]
    code = main(argv + (["--out", str(out)] if to_file else []))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "needs a 2x2 channel" in captured.err
    assert not out.exists()


def test_sweep_csv_format(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--scheme", "baseline", "--trials", "2", "--format", "csv",
        "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,seed,snr_db,sum_rate_bpcu,per_user_rates,record,slope,intercept,rms_residual,reason"
    assert len(lines) == 1 + 2 * 7
    first = lines[1].split(",")
    assert first[0] == "baseline" and first[5] == "rate"
    assert ";" in first[4]


def test_sweep_without_out_prints_to_stdout(capsys):
    code, out = run_cli([
        "sweep", "--scheme", "cognitive-x", "--trials", "1",
        "--snr-grid", "60,70,80,90",
    ], capsys)
    assert code == 0
    records = [json.loads(ln) for ln in out.splitlines()]
    assert len(records) == 5
    assert records[-1]["record"] == "dof"
    assert abs(records[-1]["slope"] - 1.5) < 0.03


@pytest.mark.parametrize("tag", tuple(SCHEMES))
def test_sweep_records_are_the_library_estimate(tag, capsys):
    argv = ["sweep", "--scheme", tag, "--trials", "2"]
    argv += ["--special", "phase-example"] if tag == "phase-align" else []
    code, out = run_cli(argv, capsys)
    assert code == 0
    records = [json.loads(ln) for ln in out.splitlines()]
    assert [r["seed"] for r in records] == [0] * 7 + [1] * 7
    for seed in (0, 1):
        chn = construct_special_channel("phase-example") if tag == "phase-align" else SCHEMES[tag].sample(seed)
        if tag == "baseline":
            est = estimate_baseline_dof(chn)
        else:
            est = estimate_dof(partial(build_scheme, tag), chn, seed)
        *rate, dof = records[7 * seed:7 * seed + 7]
        fmt = "{:.12g}".format
        assert [fmt(r["sum_rate_bpcu"]) for r in rate] == [fmt(x) for x in est.sum_rates]
        assert [[fmt(x) for x in r["per_user_rates"]] for r in rate] == [
            [fmt(x) for x in row] for row in est.per_user_rates]
        assert dof["record"] == "dof" and fmt(dof["slope"]) == fmt(est.slope)


GRID_21 = ",".join(f"{60 + 2.5 * i:g}" for i in range(21))


@pytest.mark.parametrize("scheme, seed, grid", [
    ("acs-ic3", 952, None), ("x-channel", 951, GRID_21), ("cognitive-x", 951, GRID_21),
])
def test_sweep_flags_a_fit_short_of_the_asymptotic_regime(scheme, seed, grid, capsys):
    argv = ["sweep", "--scheme", scheme, "--master-seed", str(seed), "--trials", "1"]
    argv += ["--snr-grid", grid] if grid else []
    code, out = run_cli(argv, capsys)
    assert code == 0
    dof = json.loads(out.splitlines()[-1])
    assert dof["record"] == "dof" and dof["reason"].startswith("fit: slope ")
    code, out = run_cli(argv + ["--format", "csv"], capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[-1]["record"] == "dof" and rows[-1]["reason"] == dof["reason"]


def test_sweep_leaves_an_asymptotic_fit_unflagged(capsys):
    # Seed 247 has the widest slope-to-secant gap among the trials perfbench/reference.json pins.
    code, out = run_cli(["sweep", "--scheme", "acs-ic3", "--master-seed", "247", "--trials", "1"], capsys)
    assert code == 0
    dof = json.loads(out.splitlines()[-1])
    assert dof["record"] == "dof" and "reason" not in dof


def test_sweep_on_an_infeasible_fixed_channel_skips_every_trial(tmp_path, capsys):
    out = tmp_path / "skips.jsonl"
    code = main([
        "sweep", "--scheme", "acs-ic3", "--trials", "2",
        "--special", "plus-minus-one", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 1
    records = sweep_lines(out)
    assert [r["record"] for r in records] == ["skip", "skip"]
    assert all("infeasible" in r["reason"] for r in records)


def nudged_violating_channel(idx: int, delta: float, path) -> None:
    """Write acs-violating-idx moved delta off its degenerate set, through the
    phase of the diagonal link its forced cross sum contains."""
    chn = construct_special_channel(f"acs-violating-{idx}")
    phase = np.array(chn.phase)
    rx = implicated_receiver(idx - 1)
    phase[rx, rx] += delta
    dump_channel(ComplexChannelMatrix(np.array(chn.magnitude), phase), path)


@pytest.mark.parametrize("delta", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("idx", range(1, 7))
def test_sweep_near_the_degenerate_set_skips_or_builds_independent(idx, delta, tmp_path, capsys):
    path = tmp_path / "chan.txt"
    nudged_violating_channel(idx, delta, path)
    argv = ["sweep", "--scheme", "acs-ic3", "--trials", "1", "--channel-file", str(path)]
    code, out = run_cli(argv, capsys)
    record = json.loads(out.splitlines()[-1])
    if record["record"] == "skip":
        # A channel as far off the degenerate set as the sampler's margin builds.
        assert code == 1 and delta < 1e-2
        return
    assert (record["record"], code) == ("dof", 0)
    chn = load_channel(path)
    statuses = [r.status for r in independence_margin(build_scheme("acs-ic3", chn, seed=0), chn).receivers]
    assert statuses == ["independent"] * 3


def test_verify_reports_an_indeterminate_receiver_near_the_degenerate_set(tmp_path, capsys):
    path = tmp_path / "chan.txt"
    nudged_violating_channel(1, 1e-8, path)
    code, out = run_cli(["verify", "--scheme", "acs-ic3", "--channel-file", str(path)], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["independence"]["receivers"][0]["status"] == "indeterminate"


def test_closure_gated_sweep_skips_its_plain_random_draws(tmp_path, capsys):
    out = tmp_path / "phase.jsonl"
    code = main(["sweep", "--scheme", "phase-align", "--trials", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    records = sweep_lines(out)
    assert [(r["seed"], r["record"]) for r in records] == [(0, "skip"), (1, "skip")]
    assert all("closure" in r["reason"] for r in records)


def test_out_dir_env_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ACSALIGN_OUT_DIR", str(tmp_path))
    code = main([
        "sweep", "--scheme", "uplinks", "--trials", "1",
        "--out", "nested/run.jsonl",
    ])
    capsys.readouterr()
    assert code == 0
    records = sweep_lines(tmp_path / "nested" / "run.jsonl")
    assert records[-1]["record"] == "dof"
    assert abs(records[-1]["slope"] - 4.0 / 3.0) < 0.03


def test_bound_reports_ratios_per_extension(capsys):
    code, out = run_cli(["bound", "--s-max", "3"], capsys)
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [ln["extension"] for ln in lines] == [1, 2, 3]
    assert [ln["best_ratio"] for ln in lines] == ["1", "1", "7/6"]
    assert lines[2]["ratio_float"] == pytest.approx(7.0 / 6.0)
    assert lines[0]["num_feasible"] == 13


def test_bound_writes_each_row_before_the_next_s(capsys, monkeypatch):
    from acsalign import cli

    # Lines on stdout since the previous S started, read as each S starts.
    written = []
    real_max_dof = cli.max_dof

    def max_dof(extension):
        written.append(capsys.readouterr().out.count("\n"))
        return real_max_dof(extension)

    monkeypatch.setattr(cli, "max_dof", max_dof)
    assert main(["bound", "--s-min", "2", "--s-max", "4"]) == 0
    assert written == [0, 1, 1]
    assert capsys.readouterr().out.count("\n") == 1


def bound_row(extension, capsys) -> dict:
    code, out = run_cli(["bound", "--s-min", str(extension), "--s-max", str(extension)], capsys)
    assert code == 0
    (row,) = [json.loads(ln) for ln in out.splitlines()]
    assert row["extension"] == extension
    return row


# S has no cap: max_dof costs the same at any S.
def test_bound_takes_an_extension_past_31(capsys):
    row = bound_row(32, capsys)
    assert row["num_feasible"] == 21_494_235
    assert len(row["argmax"]) == 39


def test_bound_row_at_a_million_slots(capsys):
    row = bound_row(1_000_000, capsys)
    assert row["num_feasible"] == 13_333_513_334_325_002_850_004_435_003_450_001
    assert row["argmax"] == [{"extension": 1_000_000, "streams": [800_000] * 3,
                              "overlaps": {"d12": 400_000, "d23": 400_000, "d31": 400_000},
                              "ratio": "6/5"}]


@pytest.fixture
def default_digit_limit():
    """CPython's default int-to-text limit of 4300 digits, restored after the test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int-to-text limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def refused_bound(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(["bound", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_bound_refuses_an_s_whose_count_passes_the_digit_limit(default_digit_limit, capsys):
    # num_feasible grows as S^6: at S = 10^800 it has about 4800 digits.
    err = refused_bound(["--s-max", "1" + "0" * 800], capsys)
    assert "int-to-text limit of 4300 (sys.get_int_max_str_digits())" in err
    assert "S of 801 digits" in err
    # The refusal starts exactly where the row's count stops fitting.
    low, high = 10**700, 10**800
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if max_dof(mid).num_feasible < 10**4300 else (low, mid)
    assert len(str(bound_row(low, capsys)["num_feasible"])) == 4300
    assert "int-to-text limit" in refused_bound(["--s-min", str(high), "--s-max", str(high)], capsys)


def test_bound_refuses_a_flag_past_the_digit_limit_as_too_long(default_digit_limit, capsys):
    err = refused_bound(["--s-max", "1" * 4301], capsys)
    assert "the integer has more digits than CPython's int-to-text limit of 4300" in err
    assert "is not an integer" not in err
    # Text that is no integer at any length is still named as such.
    assert "is not an integer" in refused_bound(["--s-max", "1x"], capsys)


def test_bound_row_at_s_ten_to_the_700(default_digit_limit, capsys):
    s = 10**700
    row = bound_row(s, capsys)
    assert row["num_feasible"] == max_dof(s).num_feasible
    assert len(str(row["num_feasible"])) == 4199
    assert row["best_ratio"] == "6/5"


def test_bound_rejects_the_budget_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--s-max", "4", "--profile-limit", "10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --profile-limit 10" in captured.err


def test_usage_errors_exit_with_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--s-max", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--s-min", "3", "--s-max", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--s-max", "3", "--d-max", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --d-max 4" in captured.err
    for argv in (["verify", "--scheme", "nonsense", "--channel-seed", "0"],
                 ["sweep", "--scheme", "acs-ic3", "--trials", "0"],
                 ["sweep", "--scheme", "acs-ic3", "--workers", "0"],
                 ["sweep", "--scheme", "acs-ic3", "--format", "xml"],
                 ["verify", "--scheme", "acs-ic3", "--channel-seed", "1", "--special", "all-ones"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scheme", "acs-ic3", "--snr-grid", "60,70"])
    assert exc.value.code == 2
    assert "argument --snr-grid: snr grid needs at least 4 points" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scheme", "acs-ic3", "--snr-grid", "60,70,abc,90"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("argument --snr-grid: '60,70,abc,90' is not a comma-separated list of dB values"
            in captured.err)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scheme", "baseline", "--snr-grid", "60,nan,80,90"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --snr-grid: snr grid values must be finite, got nan at position 2" in captured.err
    # An empty field is rejected, not dropped, so positions count as typed.
    for grid, position in (("60,,nan,80,90", 2), ("60,70,80,90,", 5)):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--scheme", "baseline", "--snr-grid", grid])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --snr-grid: snr grid has an empty value at position {position}" in captured.err


@pytest.mark.parametrize("sub, flag", [
    ("verify", "--seed"), ("verify", "--channel-seed"),
    ("sweep", "--master-seed"), ("sweep", "--channel-seed"),
    ("demo-containment", "--seed"), ("demo-containment", "--channel-seed"),
])
def test_negative_seeds_are_usage_errors_naming_the_flag(sub, flag, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    argv = {"verify": [sub, "--scheme", "acs-ic3"],
            "sweep": [sub, "--scheme", "acs-ic3", "--out", str(out)],
            "demo-containment": [sub]}[sub]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be a nonnegative integer" in captured.err
    assert not out.exists()


def listed_choices(argv, capsys) -> tuple[str, ...]:
    """The choices an "invalid choice" usage error lists."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    listed = err.rstrip().rpartition("(choose from ")[2].removesuffix(")")
    return tuple(choice.strip("'") for choice in listed.split(", "))


def test_invalid_choices_list_the_library_names(capsys):
    assert listed_choices(["sweep", "--scheme", "nonsense"], capsys) == tuple(SCHEMES)
    assert listed_choices(["verify", "--scheme", "nonsense"], capsys) == SCHEME_TAGS
    for sub in ("verify", "sweep", "demo-containment"):
        argv = [sub, "--special", "nonsense"]
        assert listed_choices(argv, capsys) == special_channel_kinds()


def test_subcommand_help_names_the_choices(capsys):
    def braced(names):
        return "{" + ",".join(names) + "}"

    expected = {
        "verify": (braced(SCHEME_TAGS), braced(special_channel_kinds())),
        "sweep": (braced(SCHEMES), braced(special_channel_kinds()), "--snr-grid DB,DB,..."),
        "bound": ("--s-max S_MAX",),
        "demo-containment": (braced(special_channel_kinds()),),
    }
    for sub, names in expected.items():
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: acsalign {sub} ")
        for name in names:
            assert name in out


def test_verify_evaluates_each_condition_set_once(monkeypatch, capsys):
    calls = []
    evaluate = verify._evaluate

    def counted(channel, which, gate):
        calls.append(which)
        return evaluate(channel, which, gate)

    # The sampler and the gate both ask for the channel's acs-ic3 report: it
    # is evaluated once.
    monkeypatch.setattr(verify, "_evaluate", counted)
    code, _ = run_cli(["verify", "--scheme", "acs-ic3", "--channel-seed", "0"], capsys)
    assert code == 0
    assert sorted(calls) == ["acs-ic3", "singularity"]


# Seeds whose plain draw comes within GENERIC_PHASE_MARGIN of the degenerate
# set, so the scheme's sampler redraws them.
REDRAWN_SEEDS = [("acs-ic3", 4), ("baseline", 4), ("x-channel", 130), ("cognitive-x", 130), ("uplinks", 24)]


@pytest.mark.parametrize("scheme,seed", REDRAWN_SEEDS)
def test_channel_seed_names_the_channel_of_that_sweep_trial(scheme, seed, capsys):
    spec = SCHEMES[scheme]
    num_rx, num_tx = spec.shape
    assert spec.sample(seed) != sample_channel(seed, num_tx, num_rx)
    trial = ["sweep", "--scheme", scheme, "--master-seed", str(seed), "--trials", "1"]
    assert run_cli(trial + ["--channel-seed", str(seed)], capsys) == run_cli(trial, capsys)


def test_verify_checks_the_redrawn_channel_of_its_seed(capsys):
    code, out = run_cli(["verify", "--scheme", "acs-ic3", "--channel-seed", "4"], capsys)
    assert code == 0
    distances = [rec["distance"] for rec in json.loads(out)["conditions"]["conditions"]]
    assert min(distances) >= GENERIC_PHASE_MARGIN


@pytest.mark.parametrize("argv", [["sweep", "--scheme", "x-channel", "--trials", "200"],
                                  ["sweep", "--scheme", "x-channel", "--trials", "200", "--workers", "2"],
                                  ["bound", "--s-max", "100"]], ids=["sweep", "sweep-pool", "bound"])
def test_a_reader_that_closes_early_ends_the_run_quietly(argv):
    # A reader takes one line and closes the pipe.  Each output (some 220 KB
    # of sweep records, 160 KB of bound rows) overfills a 64 KB pipe buffer,
    # so a write fails after the close whatever the timing.
    env = dict(os.environ, PYTHONPATH=str(Path(acsalign.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "acsalign.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def test_demo_containment_exit_codes(capsys):
    code, out = run_cli(["demo-containment", "--channel-seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["residual"] < 1e-10

    code, out = run_cli(["demo-containment", "--special", "phase-example"], capsys)
    assert code == 1
    assert "error" in json.loads(out)
