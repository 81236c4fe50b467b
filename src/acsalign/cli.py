"""Command-line front end: verification, rate sweeps, the allocation bound, demos.

Exit codes: 0 when everything requested passed, 1 when a check failed, no
trial produced results or a reader closed stdout early, 2 on usage errors.
Sweep reports are written as JSON-lines or CSV with floats at 12 significant
digits; identical configs (including the master seed) produce byte-identical
files, serial or parallel.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from contextlib import contextmanager
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING

# Only the pure-integer bound is imported here: the numerical modules (and
# numpy) load when a subcommand that needs them parses its arguments or runs.
from .bound import _num_feasible, max_dof

if TYPE_CHECKING:
    from typing import Callable

    from .channel import ComplexChannelMatrix

__all__ = [
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


def _resolve_channel(args: argparse.Namespace,
                     sample: Callable[[int], ComplexChannelMatrix]) -> ComplexChannelMatrix:
    """Turn the channel-source flags into a channel: a named or loaded channel
    as given, else `sample` of the channel seed (default 0)."""
    from .channel import construct_special_channel, load_channel

    if args.special is not None:
        return construct_special_channel(args.special)
    if args.channel_file is not None:
        return load_channel(args.channel_file)
    return sample(args.channel_seed if args.channel_seed is not None else 0)


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


def _record_writer(fh, fmt: str):
    """A function that writes one sweep record to `fh`; a CSV's header is
    written here, when the writer is made."""
    if fmt == "csv":
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        return lambda record: writer.writerow([_csv_cell(record.get(col)) for col in _CSV_COLUMNS])
    return lambda record: fh.write(_json_object(record) + "\n")


@contextmanager
def _emit(out: str | None):
    """Stdout, or the file `out` (a relative path resolves under $ACSALIGN_OUT_DIR)."""
    if out is None:
        yield sys.stdout
        return
    path = os.path.join(os.environ.get(OUT_DIR_ENV, ""), out)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        yield fh


# -- verify -------------------------------------------------------------------

def run_verify(args: argparse.Namespace) -> int:
    from .schemes import build_scheme, scheme_spec
    from .verify import alignment_residual, check_conditions, independence_margin

    scheme = args.scheme
    spec = scheme_spec(scheme)
    channel = _resolve_channel(args, spec.sample)
    report, failed = spec.gate(channel)
    payload: dict = {"scheme": scheme, "conditions": report.to_dict(), "failed_conditions": list(failed)}
    if channel.magnitude.shape == (3, 3):
        payload["singularity"] = check_conditions(channel, "singularity").to_dict()
    ok = not failed
    if ok:
        # The gate's conditions were just checked, and independence is judged
        # below, so the build must not raise on a poorly conditioned channel.
        beamformers = build_scheme(scheme, channel, seed=args.seed, check=False)
        residual = alignment_residual(beamformers, channel)
        independence = independence_margin(beamformers, channel)
        payload["descriptor"] = beamformers.spec.descriptor()
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


def _sweep_trial(scheme: str, grid, fixed, trial_seed: int) -> list[dict]:
    """One trial, module level so worker processes can unpickle it.

    Trial i draws its channel from seed master+i (redrawn away from the
    degenerate set for the randomized schemes) and reuses the same seed for
    the free beamformer columns.  Its records are the library's estimate: one
    rate record per grid point and a closing dof record; a fit that is not
    asymptotic says so in the dof record's reason.
    """
    from .rates import estimate_baseline_dof, estimate_dof
    from .schemes import SCHEMES, build_scheme
    from .verify import InfeasibleChannelError

    try:
        channel = fixed if fixed is not None else SCHEMES[scheme].sample(trial_seed)
        if scheme == "baseline":
            est = estimate_baseline_dof(channel, grid)
        else:
            est = estimate_dof(partial(build_scheme, scheme), channel, trial_seed, grid)
    except InfeasibleChannelError as exc:
        return [_record(scheme, trial_seed, "skip", None, None, None, reason=str(exc))]
    records = [_record(scheme, trial_seed, "rate", db, total, per_user)
               for db, total, per_user in zip(est.snr_grid_db, est.sum_rates, est.per_user_rates)]
    fit = {"slope": est.slope, "intercept": est.intercept, "rms_residual": est.rms_residual}
    if not est.asymptotic:
        fit["reason"] = (f"fit: slope {est.slope:.4f} strays from the top-grid secant "
                         f"{est.secant:.4f}; the grid has not reached the asymptotic regime")
    records.append(_record(scheme, trial_seed, "dof", None, None, None, **fit))
    return records


def _write_sweep(trials, args: argparse.Namespace) -> int:
    """Write each trial's records as the trial comes in, flushed at its end.
    The output opens only once the first trial is in, so a sweep whose first
    trial raises writes nothing."""
    trials = iter(trials)
    first = next(trials)
    produced = False
    with _emit(args.out) as fh:
        write = _record_writer(fh, args.format)
        for records in chain([first], trials):
            for record in records:
                write(record)
            fh.flush()
            produced = produced or records[-1]["record"] == "dof"
    return 0 if produced else 1


def run_sweep(args: argparse.Namespace) -> int:
    # The trials' rate layer (and through it schemes, verify and channel) loads
    # before the pool starts, so forked workers inherit it instead of each
    # importing it.
    from . import rates
    from .schemes import scheme_spec

    scheme = args.scheme
    fixed = None
    if args.special is not None or args.channel_file is not None or args.channel_seed is not None:
        fixed = _resolve_channel(args, scheme_spec(scheme).sample)
    trial = partial(_sweep_trial, scheme, args.snr_grid, fixed)
    seeds = range(args.master_seed, args.master_seed + args.trials)
    # A fork-started pool launches every worker up front: no more than one per trial.
    workers = min(args.workers, args.trials)
    if workers > 1:
        # The pool's modules (multiprocessing and its kin) load only here and
        # after numpy, which in the other order peaks higher in memory; each
        # worker gets one contiguous block of trials, and pool.map, like map,
        # yields the trials in seed order.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _write_sweep(pool.map(trial, seeds, chunksize=-(-args.trials // workers)), args)
    return _write_sweep(map(trial, seeds), args)


# -- bound --------------------------------------------------------------------

def run_bound(args: argparse.Namespace) -> int:
    # argparse has already refused any S that max_dof would, so each row is
    # written as its S finishes.
    for extension in range(args.s_min, args.s_max + 1):
        result = max_dof(extension)
        payload = result.to_dict()
        payload["ratio_float"] = float(result.best_ratio)
        print(_json_object(payload), flush=True)
    return 0


# -- containment demo ---------------------------------------------------------

def run_demo_containment(args: argparse.Namespace) -> int:
    from .channel import sample_channel
    from .verify import DegenerateAnglesError, demonstrate_containment

    channel = _resolve_channel(args, partial(sample_channel, num_tx=3, num_rx=3))
    try:
        demo = demonstrate_containment(channel, seed=args.seed)
    except DegenerateAnglesError as exc:
        print(json.dumps({"error": str(exc), "pass": False}, indent=2))
        return 1
    payload = demo.to_dict()
    payload["pass"] = bool(demo.residual < DEMO_RESIDUAL_PASS)
    print(json.dumps(payload, indent=2))
    return 0 if payload["pass"] else 1


# -- argument plumbing ---------------------------------------------------------

# What int() accepts as an integer literal in base 10.
_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _digit_limit() -> int:
    """CPython's int-to-text limit in digits, 0 for none; the releases that
    lack sys.get_int_max_str_digits have no limit either."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _past_digit_limit(what: str) -> argparse.ArgumentTypeError:
    return argparse.ArgumentTypeError(f"{what} has more digits than CPython's int-to-text limit "
                                      f"of {_digit_limit()} (sys.get_int_max_str_digits())")


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        # A well-formed literal that int() refuses is one longer than the limit.
        if _digit_limit() and _INT_TEXT.fullmatch(text):
            raise _past_digit_limit("the integer") from None
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {'positive' if low else 'nonnegative'} integer")
    return value


_positive_int = partial(_int_at_least, low=1)
_nonnegative_int = partial(_int_at_least, low=0)


def _extension_arg(text: str) -> int:
    """A positive S whose bound row can be printed: the row's largest integer,
    its count of feasible profiles, must fit CPython's int-to-text limit."""
    value = _positive_int(text)
    if _digit_limit() and _num_feasible(value) >= 10 ** _digit_limit():
        raise _past_digit_limit(f"at an S of {len(str(value))} digits, the count of feasible profiles")
    return value


def _grid_arg(text: str) -> tuple[float, ...]:
    from .rates import validate_snr_grid

    tokens = text.split(",")
    for position, tok in enumerate(tokens, start=1):
        if not tok.strip():
            raise argparse.ArgumentTypeError(f"snr grid has an empty value at position {position}")
    try:
        values = tuple(float(tok) for tok in tokens)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of dB values") from None
    try:
        validate_snr_grid(values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return values


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand parser whose arguments `fill` adds the first time it parses,
    which argparse does before it formats its usage or help.  Choices such as
    the scheme tags come from the numerical modules, so they load only for the
    subcommand that is used."""

    def __init__(self, *args, fill, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def _fill_once(self) -> None:
        fill, self._fill = self._fill, None
        if fill is not None:
            fill(self)

    def parse_known_args(self, args=None, namespace=None):
        self._fill_once()
        return super().parse_known_args(args, namespace)


def _add_channel_source(sub: argparse.ArgumentParser) -> None:
    from .channel import special_channel_kinds

    group = sub.add_mutually_exclusive_group()
    group.add_argument("--channel-seed", type=_nonnegative_int, default=None, metavar="N",
                       help="use the channel of seed N: sweep trial N's for a scheme, the plain 3x3 "
                            "draw for demo-containment (default 0)")
    group.add_argument("--special", choices=special_channel_kinds(), default=None,
                       help="use a named constructed channel")
    group.add_argument("--channel-file", default=None, metavar="PATH",
                       help="load the channel from a text file (see README for the format)")


def _verify_arguments(verify: argparse.ArgumentParser) -> None:
    from .schemes import SCHEME_TAGS

    verify.add_argument("--scheme", required=True, choices=SCHEME_TAGS)
    _add_channel_source(verify)
    verify.add_argument("--seed", type=_nonnegative_int, default=0, help="seed for the free beamformer columns")


def _sweep_arguments(sweep: argparse.ArgumentParser) -> None:
    from .rates import DEFAULT_SNR_GRID_DB
    from .schemes import SCHEMES

    sweep.add_argument("--scheme", required=True, choices=tuple(SCHEMES))
    sweep.add_argument("--trials", type=_positive_int, default=20)
    sweep.add_argument("--master-seed", type=_nonnegative_int, default=0)
    sweep.add_argument("--snr-grid", type=_grid_arg, default=DEFAULT_SNR_GRID_DB, metavar="DB,DB,...",
                       help=f"comma-separated dB values (default {DEFAULT_SNR_GRID_DB[0]:g}..{DEFAULT_SNR_GRID_DB[-1]:g})")
    sweep.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help=f"output file (relative paths resolve under ${OUT_DIR_ENV}); stdout if omitted")
    sweep.add_argument("--workers", type=_positive_int, default=1)
    _add_channel_source(sweep)


def _bound_arguments(bound: argparse.ArgumentParser) -> None:
    bound.add_argument("--s-min", type=_extension_arg, default=1)
    bound.add_argument("--s-max", type=_extension_arg, required=True)


def _demo_arguments(demo: argparse.ArgumentParser) -> None:
    _add_channel_source(demo)
    demo.add_argument("--seed", type=_nonnegative_int, default=0, help="seed for the demo's random blocks")


def build_parser() -> argparse.ArgumentParser:
    """The acsalign parser.  Each subcommand's `run` default is its run_*
    function as the module holds it when the parser is built."""
    parser = argparse.ArgumentParser(
        prog="acsalign",
        description="Construct, verify and rate-sweep rotation-based alignment schemes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_SubcommandParser)
    for name, help_text, fill, run in (
        ("verify", "check feasibility and build health on one channel", _verify_arguments, run_verify),
        ("sweep", "rate sweeps over trials and an SNR grid", _sweep_arguments, run_sweep),
        ("bound", "exact allocation bound per extension length", _bound_arguments, run_bound),
        ("demo-containment", "show a doubly-aligned column is trapped at its own receiver",
         _demo_arguments, run_demo_containment),
    ):
        sub.add_parser(name, help=help_text, fill=fill).set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    # Every matrix a subcommand factors is at most 2S x 2S, too small for a
    # second BLAS thread to help, and `--workers` is the parallelism; set
    # before any subcommand imports numpy, so OpenBLAS starts no thread pool
    # here or in the sweep workers, which inherit the environment.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    # The one cross-flag check argparse cannot express.
    if args.subcommand == "bound" and args.s_min > args.s_max:
        parser.error("need 1 <= --s-min <= --s-max")
    try:
        return args.run(args)
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): end quietly, with stdout
        # on devnull so the interpreter's last flush has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
