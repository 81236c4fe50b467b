"""End-to-end command-line behavior: exit codes, report formats, determinism."""

import json

import numpy as np
import pytest

from acsalign.channel import (
    ComplexChannelMatrix,
    construct_special_channel,
    dump_channel,
    implicated_receiver,
    load_channel,
    sample_channel,
)
from acsalign.cli import ExperimentConfig, main
from acsalign.schemes import build_scheme
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
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    base = ["sweep", "--scheme", "x-channel", "--trials", "4", "--master-seed", "3"]
    assert main(base + ["--out", str(serial), "--workers", "1"]) == 0
    assert main(base + ["--out", str(parallel), "--workers", "2"]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()


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

    class RecordingPool:
        """Stands in for ProcessPoolExecutor and maps in this process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def sweep(trials, workers):
        out = tmp_path / f"{trials}-{workers}.jsonl"
        argv = ["sweep", "--scheme", "x-channel", "--master-seed", "3", "--trials", str(trials),
                "--workers", str(workers), "--out", str(out)]
        assert main(argv) == 0
        return out.read_bytes()

    monkeypatch.setattr("acsalign.cli.ProcessPoolExecutor", RecordingPool)
    assert sweep(2, 64) == sweep(2, 1)
    assert pools == [2]
    assert sweep(1, 8) == sweep(1, 1)
    assert pools == [2]
    capsys.readouterr()


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


def test_bound_respects_the_search_budget(capsys):
    code = main(["bound", "--s-max", "4", "--profile-limit", "10"])
    err = capsys.readouterr().err
    assert code == 1
    assert "exceeds" in err


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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scheme", "nonsense", "--channel-seed", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scheme", "acs-ic3", "--snr-grid", "60,70"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scheme", "baseline", "--snr-grid", "60,nan,80,90"])
    assert exc.value.code == 2
    assert "snr grid values must be finite, got nan at position 2" in capsys.readouterr().err


def test_demo_containment_exit_codes(capsys):
    code, out = run_cli(["demo-containment", "--channel-seed", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["residual"] < 1e-10

    code, out = run_cli(["demo-containment", "--special", "phase-example"], capsys)
    assert code == 1
    assert "error" in json.loads(out)


def test_config_validation_stands_alone():
    with pytest.raises(ValueError):
        ExperimentConfig(subcommand="sweep", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(subcommand="sweep", workers=0)
    with pytest.raises(ValueError):
        ExperimentConfig(subcommand="sweep", format="xml")
    with pytest.raises(ValueError):
        ExperimentConfig(subcommand="verify", channel_seed=1, special="all-ones")
    with pytest.raises(ValueError):
        ExperimentConfig(subcommand="bound", s_min=2, s_max=1)
    with pytest.raises(ValueError):
        ExperimentConfig(subcommand="sweep", snr_grid_db=(60.0, 70.0))
