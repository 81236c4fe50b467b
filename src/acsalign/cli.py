"""Command-line front end: verification, rate sweeps, bound enumeration, demos.

Exit codes: 0 when everything requested passed, 1 when a check failed or no
trial produced results, 2 on usage errors.  Sweep reports are written as
JSON-lines or CSV with floats at 12 significant digits; identical configs
(including the master seed) produce byte-identical files, serial or parallel.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .bound import DEFAULT_PROFILE_LIMIT, SearchSpaceError, max_dof
from .channel import (
    ComplexChannelMatrix,
    construct_special_channel,
    load_channel,
    sample_channel,
    special_channel_kinds,
)
from .rates import (
    DEFAULT_SNR_GRID_DB,
    _db_to_linear,
    baseline_rate_profile,
    fit_dof,
    rate_reports,
    validate_snr_grid,
)
from .schemes import SCHEME_TAGS, SCHEMES, build_scheme, scheme_spec
from .verify import (
    DegenerateAnglesError,
    InfeasibleChannelError,
    alignment_residual,
    check_conditions,
    demonstrate_containment,
    independence_margin,
)

__all__ = [
    "ExperimentConfig",
    "run_verify",
    "run_sweep",
    "run_bound",
    "run_demo_containment",
    "main",
]

OUT_DIR_ENV = "ACSALIGN_OUT_DIR"

# A freshly built scheme must align to rounding level; a containment demo is
# held to the tighter documented threshold.
VERIFY_RESIDUAL_PASS = 1e-9
DEMO_RESIDUAL_PASS = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one subcommand run needs, normalized and validated."""

    subcommand: str
    scheme: str | None = None
    channel_seed: int | None = None
    special: str | None = None
    channel_file: str | None = None
    seed: int = 0
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID_DB
    trials: int = 1
    master_seed: int = 0
    out: str | None = None
    format: str = "jsonl"
    workers: int = 1
    s_min: int = 1
    s_max: int = 1
    profile_limit: int = DEFAULT_PROFILE_LIMIT

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.format not in ("jsonl", "csv"):
            raise ValueError(f"format must be 'jsonl' or 'csv', got {self.format!r}")
        sources = sum(s is not None for s in (self.channel_seed, self.special, self.channel_file))
        if sources > 1:
            raise ValueError("--channel-seed, --special and --channel-file are mutually exclusive")
        if self.subcommand == "bound" and not (1 <= self.s_min <= self.s_max):
            raise ValueError("need 1 <= --s-min <= --s-max")
        validate_snr_grid(self.snr_grid_db)


def _resolve_channel(config: ExperimentConfig, shape: tuple[int, int]) -> ComplexChannelMatrix:
    """Turn the channel-source flags into a channel; `shape` is (num_rx, num_tx)
    and only steers the random draw, fixed sources keep their own shape."""
    if config.special is not None:
        return construct_special_channel(config.special)
    if config.channel_file is not None:
        return load_channel(config.channel_file)
    seed = config.channel_seed if config.channel_seed is not None else 0
    num_rx, num_tx = shape
    return sample_channel(seed, num_tx, num_rx)


# -- report formatting --------------------------------------------------------

def _fmt_float(value: float) -> str:
    return f"{value:.12g}"


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return _json_object(value)
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def _json_object(record: dict) -> str:
    parts = [f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in record.items()]
    return "{" + ", ".join(parts) + "}"


_CSV_COLUMNS = (
    "scheme",
    "seed",
    "snr_db",
    "sum_rate_bpcu",
    "per_user_rates",
    "record",
    "slope",
    "intercept",
    "rms_residual",
    "reason",
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (list, tuple)):
        return ";".join(_fmt_float(float(v)) for v in value)
    return str(value)


def _render_records(records: list[dict], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for record in records:
            writer.writerow([_csv_cell(record.get(col)) for col in _CSV_COLUMNS])
        return buf.getvalue()
    return "".join(_json_object(r) + "\n" for r in records)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = out
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


# -- verify -------------------------------------------------------------------

def run_verify(config: ExperimentConfig) -> int:
    scheme = config.scheme
    spec = scheme_spec(scheme)
    channel = _resolve_channel(config, spec.shape)
    report = check_conditions(channel, spec.feasibility)
    failed = spec.gate_failures(channel)
    payload: dict = {"scheme": scheme, "conditions": report.to_dict(), "failed_conditions": list(failed)}
    if channel.magnitude.shape == (3, 3):
        payload["singularity"] = check_conditions(channel, "singularity").to_dict()
    ok = not failed
    if ok:
        # The gate's conditions were just checked, and independence is judged
        # below, so the build must not raise on a poorly conditioned channel.
        beamformers = build_scheme(scheme, channel, seed=config.seed, check=False)
        residual = alignment_residual(beamformers, channel)
        independence = independence_margin(beamformers, channel)
        payload["descriptor"] = beamformers.descriptor.to_dict()
        payload["alignment_residual"] = residual
        payload["independence"] = independence.to_dict()
        ok = residual <= VERIFY_RESIDUAL_PASS and independence.all_independent
    payload["pass"] = bool(ok)
    print(json.dumps(payload, indent=2))
    return 0 if ok else 1


# -- sweep --------------------------------------------------------------------

def _record(scheme: str, seed: int, kind: str, snr_db, total, per_user, **fields) -> dict:
    """One sweep record: every kind leads with the same keys, in this order."""
    return {"scheme": scheme, "seed": seed, "snr_db": snr_db, "sum_rate_bpcu": total,
            "per_user_rates": per_user, "record": kind, **fields}


def _trial_records(scheme: str, channel: ComplexChannelMatrix, trial_seed: int, grid) -> list[dict]:
    """One rate record per grid point and a closing dof record fitted to them."""
    snrs = _db_to_linear(grid)
    if scheme == "baseline":
        profiles = [baseline_rate_profile(channel, snr) for snr in snrs]
        rates = [(float(p.sum()), [float(r) for r in p]) for p in profiles]
    else:
        beamformers = build_scheme(scheme, channel, seed=trial_seed)
        rates = [(r.sum_rate, list(r.per_receiver)) for r in rate_reports(beamformers, channel, snrs)]
    records = [_record(scheme, trial_seed, "rate", db, total, per_user)
               for db, (total, per_user) in zip(grid, rates)]
    estimate = fit_dof(grid, [total for total, _ in rates])
    records.append(_record(scheme, trial_seed, "dof", None, None, None, slope=estimate.slope,
                           intercept=estimate.intercept, rms_residual=estimate.rms_residual))
    return records


def _sweep_trial(args) -> tuple[int, list[dict]]:
    """One trial, module level so worker processes can unpickle it.

    Trial i draws its channel from seed master+i (redrawn away from the
    degenerate set for the randomized schemes) and reuses the same seed for
    the free beamformer columns.
    """
    scheme, trial_index, trial_seed, grid, fixed = args
    try:
        channel = fixed if fixed is not None else SCHEMES[scheme].sample(trial_seed)
        records = _trial_records(scheme, channel, trial_seed, grid)
    except InfeasibleChannelError as exc:
        records = [_record(scheme, trial_seed, "skip", None, None, None, reason=str(exc))]
    return trial_index, records


def run_sweep(config: ExperimentConfig) -> int:
    scheme = config.scheme
    shape = scheme_spec(scheme).shape
    grid = tuple(float(x) for x in validate_snr_grid(config.snr_grid_db))
    fixed = None
    if config.special is not None or config.channel_file is not None or config.channel_seed is not None:
        fixed = _resolve_channel(config, shape)
    payloads = [
        (scheme, i, config.master_seed + i, grid, fixed)
        for i in range(config.trials)
    ]
    # A fork-started pool launches every worker up front: no more than one per trial.
    workers = min(config.workers, config.trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_trial, payloads))
    else:
        results = [_sweep_trial(p) for p in payloads]
    results.sort(key=lambda pair: pair[0])
    records = [record for _, trial_records in results for record in trial_records]
    _emit(_render_records(records, config.format), config.out)
    produced = any(r["record"] == "dof" for r in records)
    return 0 if produced else 1


# -- bound --------------------------------------------------------------------

def run_bound(config: ExperimentConfig) -> int:
    lines = []
    for extension in range(config.s_min, config.s_max + 1):
        result = max_dof(extension, config.profile_limit)
        payload = result.to_dict()
        payload["ratio_float"] = float(result.best_ratio)
        lines.append(_json_object(payload))
    print("\n".join(lines))
    return 0


# -- containment demo ---------------------------------------------------------

def run_demo_containment(config: ExperimentConfig) -> int:
    channel = _resolve_channel(config, (3, 3))
    try:
        demo = demonstrate_containment(channel, seed=config.seed)
    except DegenerateAnglesError as exc:
        print(json.dumps({"error": str(exc), "pass": False}, indent=2))
        return 1
    payload = demo.to_dict()
    payload["pass"] = bool(demo.residual < DEMO_RESIDUAL_PASS)
    print(json.dumps(payload, indent=2))
    return 0 if payload["pass"] else 1


# -- argument plumbing ---------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _grid_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of dB values") from None
    if not values:
        raise argparse.ArgumentTypeError("snr grid is empty")
    return values


def _add_channel_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--channel-seed", type=int, default=None, metavar="N",
                       help="draw the channel from this seed (default 0)")
    group.add_argument("--special", choices=special_channel_kinds(), default=None,
                       help="use a named constructed channel")
    group.add_argument("--channel-file", default=None, metavar="PATH",
                       help="load the channel from a text file (see README for the format)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acsalign",
        description="Construct, verify and rate-sweep rotation-based alignment schemes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    verify = sub.add_parser("verify", help="check feasibility and build health on one channel")
    verify.add_argument("--scheme", required=True, choices=SCHEME_TAGS)
    _add_channel_source(verify)
    verify.add_argument("--seed", type=int, default=0, help="seed for the free beamformer columns")

    sweep = sub.add_parser("sweep", help="rate sweeps over trials and an SNR grid")
    sweep.add_argument("--scheme", required=True, choices=tuple(SCHEMES))
    sweep.add_argument("--trials", type=_positive_int, default=20)
    sweep.add_argument("--master-seed", type=int, default=0)
    sweep.add_argument("--snr-grid", type=_grid_arg, default=DEFAULT_SNR_GRID_DB,
                       metavar="DB,DB,...", help="comma-separated dB values (default 60..110)")
    sweep.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help=f"output file (relative paths resolve under ${OUT_DIR_ENV}); stdout if omitted")
    sweep.add_argument("--workers", type=_positive_int, default=1)
    _add_channel_source(sweep)

    bound = sub.add_parser("bound", help="exhaustive allocation bound per extension length")
    bound.add_argument("--s-min", type=_positive_int, default=1)
    bound.add_argument("--s-max", type=_positive_int, required=True)
    bound.add_argument("--profile-limit", type=_positive_int, default=DEFAULT_PROFILE_LIMIT)

    demo = sub.add_parser("demo-containment",
                          help="show a doubly-aligned column is trapped at its own receiver")
    _add_channel_source(demo)
    demo.add_argument("--seed", type=int, default=0, help="seed for the demo's random blocks")

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    fields = {}
    for name in ("scheme", "channel_seed", "special", "channel_file", "seed",
                 "trials", "master_seed", "out", "format", "workers",
                 "s_min", "s_max", "profile_limit"):
        if hasattr(args, name) and getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    if hasattr(args, "snr_grid") and args.snr_grid is not None:
        fields["snr_grid_db"] = tuple(args.snr_grid)
    return ExperimentConfig(subcommand=args.subcommand, **fields)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        if config.subcommand == "verify":
            return run_verify(config)
        if config.subcommand == "sweep":
            return run_sweep(config)
        if config.subcommand == "bound":
            return run_bound(config)
        return run_demo_containment(config)
    except SearchSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
